// Elastic EPC tests: the AIMD quota controller in isolation (grow/shrink
// dynamics, hysteresis, floors, conservation, spec parsing, serialization)
// and end-to-end through the shared driver (quota-aware eviction, engagement
// rules, and the conservation invariant under every chaos fault class).
#include "sgxsim/elastic_epc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "snapshot/codec.h"
#include "trace/generators.h"

namespace sgxpl::sgxsim {
namespace {

ElasticParams test_params() {
  ElasticParams p;
  p.enabled = true;
  p.floor_pages = 16;
  p.grow_step = 8;
  p.decrease_factor = 0.5;
  p.backpressure_utilization = 0.9;
  p.pressure_faults = 4;
  p.grow_streak = 2;
  p.cooldown_windows = 4;
  p.idle_windows = 8;
  return p;
}

ElasticEpcController make_controller(const ElasticParams& p, PageNum capacity,
                                     const std::vector<PageNum>& elranges) {
  ElasticEpcController c;
  c.configure(p, capacity);
  PageNum lo = 0;
  for (const PageNum pages : elranges) {
    c.add_tenant(lo, pages);
    lo += pages;
  }
  c.finalize();
  return c;
}

/// One window of sustained demand-fault pressure on tenant `t`.
void pressure_window(ElasticEpcController& c, std::size_t t) {
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.note_fault(t);
  }
  c.rebalance(0.0, {});
}

// --- spec parsing -----------------------------------------------------------

TEST(ElasticSpec, RoundTripsThroughTheCanonicalString) {
  ElasticParams p = test_params();
  p.floor_pages = 4;
  p.grow_step = 32;
  p.decrease_factor = 0.75;
  p.backpressure_utilization = 0.8;
  p.pressure_faults = 7;
  p.grow_streak = 3;
  p.cooldown_windows = 9;
  p.idle_windows = 5;
  const auto parsed = parse_elastic_spec(elastic_spec(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->enabled);
  EXPECT_EQ(parsed->floor_pages, p.floor_pages);
  EXPECT_EQ(parsed->grow_step, p.grow_step);
  EXPECT_DOUBLE_EQ(parsed->decrease_factor, p.decrease_factor);
  EXPECT_DOUBLE_EQ(parsed->backpressure_utilization,
                   p.backpressure_utilization);
  EXPECT_EQ(parsed->pressure_faults, p.pressure_faults);
  EXPECT_EQ(parsed->grow_streak, p.grow_streak);
  EXPECT_EQ(parsed->cooldown_windows, p.cooldown_windows);
  EXPECT_EQ(parsed->idle_windows, p.idle_windows);
}

TEST(ElasticSpec, EmptyAndDefaultGiveTheDefaults) {
  for (const char* spec : {"", "default"}) {
    const auto parsed = parse_elastic_spec(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_TRUE(parsed->enabled);
    EXPECT_EQ(parsed->floor_pages, ElasticParams{}.floor_pages);
    EXPECT_EQ(parsed->grow_step, ElasticParams{}.grow_step);
  }
}

TEST(ElasticSpec, MalformedSpecsNameTheTokenAndPosition) {
  const struct {
    const char* spec;
    const char* want;
  } cases[] = {
      {"floor=0",
       "bad floor '0' at position 6 (want a positive page count)"},
      {"grow=x",
       "bad grow step 'x' at position 5 (want a page count; 0 freezes "
       "growth)"},
      {"decrease=1.5",
       "bad decrease factor '1.5' at position 9 (want a number in (0, 1))"},
      {"util=0",
       "bad backpressure utilization '0' at position 5 (want a number in "
       "(0, 1])"},
      {"pressure=0",
       "bad pressure threshold '0' at position 9 (want a positive fault "
       "count)"},
      {"streak=0",
       "bad grow streak '0' at position 7 (want a positive window count)"},
      {"floor=16,bogus=1",
       "unknown elastic key 'bogus' at position 9 (valid keys: floor, grow, "
       "decrease, util, pressure, streak, cooldown, idle)"},
      {"floor=16,,idle=2", "empty entry at position 9 (remove the extra "
                           "comma)"},
      {"floor=16,", "trailing comma at position 8"},
      {"pressure", "expected key=value, got 'pressure' at position 0"},
      {"streak=", "missing value after '=' at position 6"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_FALSE(parse_elastic_spec(c.spec, &err).has_value()) << c.spec;
    EXPECT_EQ(err, c.want) << c.spec;
  }
}

TEST(ElasticSpec, RefusesSignsAndValuesPastTheFieldWidth) {
  // A strtoull parse wraps "-1" to 2^64-1, and a u32 cast truncates
  // 4294967296 to 0 (past the "positive" check) and 4294967297 to 1.
  const struct {
    const char* spec;
    const char* want;
  } cases[] = {
      {"floor=-1",
       "bad floor '-1' at position 6 (want a positive page count)"},
      {"grow= 8",
       "bad grow step ' 8' at position 5 (want a page count; 0 freezes "
       "growth)"},
      {"streak=4294967296",
       "bad grow streak '4294967296' at position 7 (want a positive window "
       "count)"},
      {"cooldown=4294967297",
       "bad cooldown '4294967297' at position 9 (want a window count)"},
      {"idle=4294967296",
       "bad idle window count '4294967296' at position 5 (want a window "
       "count; 0 disables idle shrink)"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_FALSE(parse_elastic_spec(c.spec, &err).has_value()) << c.spec;
    EXPECT_EQ(err, c.want) << c.spec;
  }
  const auto widest =
      parse_elastic_spec("streak=4294967295,cooldown=0xffffffff,idle=0");
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->grow_streak, 4294967295u);
  EXPECT_EQ(widest->cooldown_windows, 4294967295u);
  EXPECT_EQ(widest->idle_windows, 0u);
}

// --- lifecycle and the initial split ----------------------------------------

TEST(ElasticController, FinalizeSplitsEvenlyAboveFloorsAndPoolsTheRest) {
  // Tenant 0's 8-page ELRANGE caps both its floor and its share; the pages
  // its cap leaves unclaimed seed the free pool.
  const auto c = make_controller(test_params(), 100, {8, 64, 64});
  EXPECT_EQ(c.tenant_count(), 3u);
  EXPECT_EQ(c.floor(0), 8u);
  EXPECT_EQ(c.floor(1), 16u);
  EXPECT_EQ(c.quota(0), 8u);
  EXPECT_EQ(c.quota(1), 36u);
  EXPECT_EQ(c.quota(2), 36u);
  EXPECT_EQ(c.free_pool(), 20u);
  EXPECT_NO_THROW(c.check_conservation());
}

TEST(ElasticController, OwnerMapsPagesToTheirTenantRanges) {
  const auto c = make_controller(test_params(), 100, {8, 64, 64});
  EXPECT_EQ(c.owner(0), 0u);
  EXPECT_EQ(c.owner(7), 0u);
  EXPECT_EQ(c.owner(8), 1u);
  EXPECT_EQ(c.owner(71), 1u);
  EXPECT_EQ(c.owner(72), 2u);
  EXPECT_EQ(c.owner(135), 2u);
  EXPECT_THROW(c.owner(136), CheckFailure);
}

TEST(ElasticController, FinalizeRefusesAnEpcSmallerThanTheFloors) {
  ElasticEpcController c;
  c.configure(test_params(), 20);
  c.add_tenant(0, 64);
  c.add_tenant(64, 64);
  EXPECT_THROW(c.finalize(), CheckFailure);
}

TEST(ElasticController, TenantRangesMustTileTheAddressSpace) {
  ElasticEpcController c;
  c.configure(test_params(), 100);
  c.add_tenant(0, 64);
  EXPECT_THROW(c.add_tenant(80, 64), CheckFailure);  // gap after page 64
}

// --- AIMD dynamics ----------------------------------------------------------

TEST(ElasticController, GrowRequiresASustainedPressureStreak) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  pressure_window(c, 1);  // streak 1 of the required 2: no grant yet
  EXPECT_EQ(c.quota(1), 36u);
  EXPECT_EQ(c.stats().grows, 0u);
  pressure_window(c, 1);  // streak 2: additive grant from the pool
  EXPECT_EQ(c.quota(1), 44u);
  EXPECT_EQ(c.free_pool(), 12u);
  EXPECT_EQ(c.stats().grows, 1u);
  EXPECT_EQ(c.stats().grow_pages, 8u);
  EXPECT_NO_THROW(c.check_conservation());
}

TEST(ElasticController, ACalmWindowResetsThePressureStreak) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  pressure_window(c, 1);
  // Three faults are below the pressure threshold: the streak restarts.
  c.note_fault(1);
  c.note_fault(1);
  c.note_fault(1);
  c.rebalance(0.0, {});
  pressure_window(c, 1);  // streak is back to 1, still no grant
  EXPECT_EQ(c.quota(1), 36u);
  EXPECT_EQ(c.stats().grows, 0u);
}

TEST(ElasticController, GrowNeverExceedsTheTenantsElrange) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  // Tenant 0's quota already spans its whole 8-page ELRANGE.
  pressure_window(c, 0);
  pressure_window(c, 0);
  pressure_window(c, 0);
  EXPECT_EQ(c.quota(0), 8u);
  EXPECT_EQ(c.stats().grows, 0u);
}

TEST(ElasticController, IdleTenantsShrinkMultiplicativelyToTheFloor) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  for (int w = 0; w < 7; ++w) {
    c.rebalance(0.0, {});
  }
  EXPECT_EQ(c.stats().shrinks, 0u);  // streak of 7 idle windows: not yet
  c.rebalance(0.0, {});              // the 8th triggers both big tenants
  EXPECT_EQ(c.quota(1), 18u);        // 36 * 0.5
  EXPECT_EQ(c.quota(2), 18u);
  EXPECT_EQ(c.quota(0), 8u);  // already at its floor: untouched
  EXPECT_EQ(c.free_pool(), 56u);
  EXPECT_EQ(c.stats().idle_shrinks, 2u);
  // Another full idle cycle (after the cooldown) clamps at the floor.
  for (int w = 0; w < 8; ++w) {
    c.rebalance(0.0, {});
  }
  EXPECT_EQ(c.quota(1), 16u);
  EXPECT_EQ(c.quota(2), 16u);
  EXPECT_EQ(c.stats().floor_hits, 2u);
  // At the floor the quota can never move again, no matter how idle.
  for (int w = 0; w < 16; ++w) {
    c.rebalance(0.0, {});
  }
  EXPECT_EQ(c.quota(1), 16u);
  EXPECT_NO_THROW(c.check_conservation());
}

TEST(ElasticController, BackpressureFastTracksIdleShrinkToOneWindow) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  c.rebalance(0.95, {});  // channel above the backpressure threshold
  EXPECT_EQ(c.quota(1), 18u);
  EXPECT_EQ(c.quota(2), 18u);
  EXPECT_EQ(c.stats().backpressure_shrinks, 2u);
  EXPECT_EQ(c.stats().idle_shrinks, 0u);
  EXPECT_NO_THROW(c.check_conservation());
}

TEST(ElasticController, DemotionShrinksAndCooldownBlocksTheRegrow) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  c.note_demotion(1);
  c.rebalance(0.0, {});
  EXPECT_EQ(c.quota(1), 18u);
  EXPECT_EQ(c.stats().demotion_shrinks, 1u);
  // Hysteresis: the freshly shrunk tenant presses hard every window, but
  // its quota is frozen until the cooldown expires — the admission
  // ladder's stop/probe/resume cannot ping-pong it.
  pressure_window(c, 1);
  pressure_window(c, 1);
  pressure_window(c, 1);
  EXPECT_EQ(c.quota(1), 18u);
  EXPECT_EQ(c.stats().grows, 0u);
  pressure_window(c, 1);  // cooldown of 4 has elapsed: the grant lands
  EXPECT_EQ(c.quota(1), 26u);
  EXPECT_EQ(c.stats().grows, 1u);
  EXPECT_NO_THROW(c.check_conservation());
}

TEST(ElasticController, DemotionDuringCooldownIsHeldNotDropped) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  c.note_demotion(1);
  c.rebalance(0.0, {});
  ASSERT_EQ(c.quota(1), 18u);
  // A second demotion while frozen: the verdict is remembered and applied
  // once, the first window after the cooldown expires.
  c.note_demotion(1);
  for (int w = 0; w < 3; ++w) {
    c.rebalance(0.0, {});
    EXPECT_EQ(c.quota(1), 18u);
  }
  c.rebalance(0.0, {});
  EXPECT_EQ(c.quota(1), 16u);  // max(floor, 18 * 0.5)
  EXPECT_EQ(c.stats().demotion_shrinks, 2u);
}

TEST(ElasticController, GrantCursorRotatesSoNoTenantIsStarved) {
  // A grow step bigger than the pool: whoever is offered the pool first
  // takes all of it. The cursor has rotated past tenants 0 and 1 by the
  // time the streaks mature, so tenant 2 — not lower-indexed tenant 1 —
  // wins the grant despite an equal claim.
  ElasticParams p = test_params();
  p.grow_step = 32;
  auto c = make_controller(p, 100, {8, 64, 64});
  c.rebalance(0.0, {});  // quiet window: cursor 0 -> 1
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 4; ++i) {
      c.note_fault(1);
      c.note_fault(2);
    }
    c.rebalance(0.0, {});  // cursor 1 -> 2, then the granting window
  }
  EXPECT_EQ(c.quota(2), 56u);  // 36 + the whole 20-page pool
  EXPECT_EQ(c.quota(1), 36u);
  EXPECT_EQ(c.free_pool(), 0u);
  EXPECT_EQ(c.stats().grows, 1u);
  EXPECT_NO_THROW(c.check_conservation());
}

TEST(ElasticController, DrainingTenantsAreCompletelyFrozen) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  c.note_demotion(1);
  const std::vector<std::uint8_t> draining = {0, 1, 0};
  for (int w = 0; w < 4; ++w) {
    c.rebalance(0.0, draining);
  }
  // Four windows of a held demotion verdict: nothing moved while draining.
  EXPECT_EQ(c.quota(1), 36u);
  EXPECT_EQ(c.stats().demotion_shrinks, 0u);
  // The drain ends; the held verdict applies on the next window.
  c.rebalance(0.0, {});
  EXPECT_EQ(c.quota(1), 18u);
  EXPECT_EQ(c.stats().demotion_shrinks, 1u);
}

TEST(ElasticController, MostOverQuotaPicksTheDeepestOvercommit) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  EXPECT_FALSE(c.most_over_quota().has_value());
  for (PageNum p = 8; p < 48; ++p) {
    c.note_mapped(p);  // tenant 1: 40 resident vs quota 36
  }
  for (PageNum p = 72; p < 74; ++p) {
    c.note_mapped(p);  // tenant 2: 2 resident, under quota
  }
  const auto over = c.most_over_quota();
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(*over, 1u);
}

TEST(ElasticController, ConservationHoldsThroughArbitraryWindowMixes) {
  auto c = make_controller(test_params(), 100, {8, 64, 64});
  std::uint64_t x = 123456789;  // deterministic LCG event stream
  for (int w = 0; w < 500; ++w) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto t = static_cast<std::size_t>((x >> 33) % 3);
    for (std::uint64_t i = 0; i < (x >> 20) % 6; ++i) {
      c.note_fault(t);
    }
    if ((x >> 13) % 7 == 0) {
      c.note_demotion(t);
    }
    std::vector<std::uint8_t> drains(3, 0);
    if ((x >> 5) % 11 == 0) {
      drains[(x >> 8) % 3] = 1;
    }
    c.rebalance(static_cast<double>((x >> 40) % 100) / 100.0, drains);
    ASSERT_NO_THROW(c.check_conservation()) << "window " << w;
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_GE(c.quota(i), c.floor(i)) << "window " << w;
      ASSERT_LE(c.quota(i), c.hi(i) - c.lo(i)) << "window " << w;
    }
  }
}

// --- serialization ----------------------------------------------------------

TEST(ElasticController, SaveLoadRoundTripsMidResize) {
  auto a = make_controller(test_params(), 100, {8, 64, 64});
  pressure_window(a, 1);  // streak 1 in flight — mid-resize evidence
  a.note_demotion(2);
  for (PageNum p = 8; p < 20; ++p) {
    a.note_mapped(p);
  }
  a.note_fault(1);
  a.note_fault(1);

  snapshot::Writer w;
  w.begin_section("ELAS");
  a.save(w);
  w.end_section();
  const auto bytes = w.finish();

  auto b = make_controller(test_params(), 100, {8, 64, 64});
  snapshot::Reader r(bytes);
  r.enter_section("ELAS");
  b.load(r);
  r.leave_section();

  EXPECT_EQ(b.quota(1), a.quota(1));
  EXPECT_EQ(b.resident(1), a.resident(1));
  EXPECT_EQ(b.free_pool(), a.free_pool());
  EXPECT_EQ(b.stats().rebalance_ticks, a.stats().rebalance_ticks);
  // Both controllers finish the in-flight window identically: the pending
  // demotion fires and the half-built pressure streak keeps building.
  for (auto* c : {&a, &b}) {
    c->note_fault(1);
    c->note_fault(1);
    c->rebalance(0.0, {});
    c->rebalance(0.0, {});
  }
  EXPECT_EQ(b.quota(1), a.quota(1));
  EXPECT_EQ(b.quota(2), a.quota(2));
  EXPECT_EQ(b.free_pool(), a.free_pool());
  EXPECT_EQ(b.stats().grows, a.stats().grows);
  EXPECT_EQ(b.stats().demotion_shrinks, a.stats().demotion_shrinks);
}

TEST(ElasticController, LoadRefusesAForeignGeometry) {
  auto a = make_controller(test_params(), 100, {8, 64, 64});
  snapshot::Writer w;
  w.begin_section("ELAS");
  a.save(w);
  w.end_section();
  const auto bytes = w.finish();

  auto wrong_capacity = make_controller(test_params(), 120, {8, 64, 64});
  snapshot::Reader r1(bytes);
  r1.enter_section("ELAS");
  EXPECT_THROW(wrong_capacity.load(r1), CheckFailure);

  auto wrong_ranges = make_controller(test_params(), 100, {8, 32, 96});
  snapshot::Reader r2(bytes);
  r2.enter_section("ELAS");
  EXPECT_THROW(wrong_ranges.load(r2), CheckFailure);
}

}  // namespace
}  // namespace sgxpl::sgxsim

// --- end-to-end through the shared driver -----------------------------------

namespace sgxpl::core {
namespace {

trace::Trace seq_trace(PageNum pages, Cycles gap, std::uint64_t seed = 1) {
  trace::Trace t("seq", pages + 8);
  Rng rng(seed);
  trace::seq_scan(t, rng, trace::Region{0, pages}, 1,
                  trace::GapModel{.mean = gap, .jitter_pct = 0});
  return t;
}

SimConfig shared_config(PageNum epc) {
  SimConfig cfg;
  cfg.enclave.epc_pages = epc;
  cfg.dfp.predictor.stream_list_len = 8;
  return cfg;
}

TEST(MultiEnclaveElastic, DisabledLeavesTheResultEmpty) {
  const auto a = seq_trace(64, 2'000, 1);
  const auto b = seq_trace(64, 2'000, 2);
  MultiEnclaveSimulator multi(shared_config(96));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_TRUE(r.elastic_quotas.empty());
  EXPECT_EQ(r.elastic.rebalance_ticks, 0u);
  EXPECT_EQ(r.elastic.quota_evictions, 0u);
}

TEST(MultiEnclaveElastic, ConfigFlagAloneNeverEngagesASoloRun) {
  // Elastic partitioning is a multi-tenant concern: a single-enclave run
  // with the flag set is cycle-identical to one without it.
  const auto t = seq_trace(96, 2'000, 1);
  SimConfig cfg = shared_config(64);
  const auto plain = simulate(t, cfg);
  cfg.enclave.elastic.enabled = true;
  const auto flagged = simulate(t, cfg);
  EXPECT_EQ(flagged.total_cycles, plain.total_cycles);
  EXPECT_EQ(flagged.enclave_faults, plain.enclave_faults);
  EXPECT_EQ(flagged.driver.evictions, plain.driver.evictions);
}

TEST(MultiEnclaveElastic, FrozenQuotasEvictTheOvercommittedTenantsOwnPages) {
  // Two tenants whose scans each overflow their frozen half of the EPC:
  // quota enforcement evicts within the overcommitted tenant's own range
  // (the deferred-shrink reclaim), and the final quotas stay conserved.
  const auto a = seq_trace(96, 20'000, 1);
  const auto b = seq_trace(96, 20'000, 2);
  SimConfig cfg = shared_config(64);
  cfg.validate = true;
  cfg.enclave.watchdog_scan_interval = 8;
  cfg.enclave.elastic.enabled = true;
  cfg.enclave.elastic.grow_step = 0;   // the fixed-partition arm
  cfg.enclave.elastic.idle_windows = 0;
  MultiEnclaveSimulator multi(cfg);
  const auto r = multi.run({EnclaveApp{&a, Scheme::kDfpStop, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  ASSERT_EQ(r.elastic_quotas.size(), 2u);
  PageNum granted = 0;
  for (const PageNum q : r.elastic_quotas) {
    EXPECT_GE(q, 16u);  // never below the floor
    granted += q;
  }
  EXPECT_LE(granted, 64u);
  EXPECT_GT(r.elastic.rebalance_ticks, 0u);
  EXPECT_GT(r.elastic.quota_evictions, 0u);
  EXPECT_EQ(r.elastic.grows, 0u);  // frozen: the split never moved
  EXPECT_EQ(r.elastic.shrinks, 0u);
}

// Conservation under every chaos fault class: the watchdog checks
// sum(quotas) + pool == physical EPC at every online interval while faults
// hammer the channel, the bitmap, completions, the scan thread, the EPC
// itself (kEpcSqueeze composes with quotas) and the predictor — and the
// whole quota schedule replays bit-identically under the same plan + seed.
class ElasticChaosSweep : public ::testing::TestWithParam<inject::FaultKind> {
};

TEST_P(ElasticChaosSweep, ConservationHoldsAndReplayIsIdentical) {
  const auto a = seq_trace(96, 4'000, 1);
  const auto b = seq_trace(64, 4'000, 2);
  const auto c = seq_trace(48, 4'000, 3);
  SimConfig cfg = shared_config(96);
  cfg.validate = true;
  cfg.enclave.watchdog_scan_interval = 8;
  cfg.chaos.seed = 77;
  cfg.chaos.enable(GetParam());
  cfg.enclave.channel.max_queued = 24;
  cfg.enclave.channel.max_retries = 3;
  cfg.enclave.admission.enabled = true;
  cfg.enclave.elastic.enabled = true;
  const auto run = [&] {
    MultiEnclaveSimulator multi(cfg);
    return multi.run({EnclaveApp{&a, Scheme::kDfpStop, nullptr},
                      EnclaveApp{&b, Scheme::kDfpStop, nullptr},
                      EnclaveApp{&c, Scheme::kBaseline, nullptr}});
  };
  const auto r1 = run();
  const auto r2 = run();
  ASSERT_EQ(r1.elastic_quotas.size(), 3u);
  PageNum granted = 0;
  for (const PageNum q : r1.elastic_quotas) {
    granted += q;
  }
  EXPECT_LE(granted, 96u);
  EXPECT_GT(r1.driver.watchdog_checks, 0u);
  EXPECT_GT(r1.elastic.rebalance_ticks, 0u);
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.elastic_quotas, r2.elastic_quotas);
  EXPECT_EQ(r1.elastic.grows, r2.elastic.grows);
  EXPECT_EQ(r1.elastic.shrinks, r2.elastic.shrinks);
  EXPECT_EQ(r1.elastic.quota_evictions, r2.elastic.quota_evictions);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ElasticChaosSweep, ::testing::ValuesIn(inject::all_fault_kinds()),
    [](const ::testing::TestParamInfo<inject::FaultKind>& pinfo) {
      std::string n = inject::to_string(pinfo.param);
      for (auto& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

}  // namespace
}  // namespace sgxpl::core
