#include "core/multi_enclave.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "obs/event_log.h"
#include "snapshot/codec.h"
#include "snapshot/snapshotter.h"
#include "trace/generators.h"

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

TEST(MultiEnclave, SingleEnclaveMatchesPlainSimulator) {
  const auto t = seq_trace(64, 2'000);
  const auto cfg = shared_config(128);
  const auto solo = simulate(t, cfg);

  MultiEnclaveSimulator multi(cfg);
  const auto result = multi.run({EnclaveApp{&t, Scheme::kBaseline, nullptr}});
  ASSERT_EQ(result.per_enclave.size(), 1u);
  EXPECT_EQ(result.per_enclave[0].total_cycles, solo.total_cycles);
  EXPECT_EQ(result.per_enclave[0].enclave_faults, solo.enclave_faults);
  EXPECT_EQ(result.makespan, solo.total_cycles);
}

TEST(MultiEnclave, RejectsEmptyInput) {
  MultiEnclaveSimulator multi(shared_config(64));
  EXPECT_THROW(multi.run({}), CheckFailure);
}

TEST(MultiEnclave, SipSchemeRequiresPlan) {
  const auto t = seq_trace(32, 1'000);
  MultiEnclaveSimulator multi(shared_config(64));
  EXPECT_THROW(multi.run({EnclaveApp{&t, Scheme::kSip, nullptr}}),
               CheckFailure);
}

TEST(MultiEnclave, ContentionSlowsBothEnclaves) {
  // Two scans whose combined footprint exceeds the shared EPC: each must
  // finish later than it would alone on the full EPC.
  const auto a = seq_trace(96, 2'000, 1);
  const auto b = seq_trace(96, 2'000, 2);
  const auto cfg = shared_config(128);

  const auto solo_a = simulate(a, cfg);
  const auto solo_b = simulate(b, cfg);

  MultiEnclaveSimulator multi(cfg);
  const auto shared = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                                 EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_GE(shared.per_enclave[0].total_cycles, solo_a.total_cycles);
  EXPECT_GE(shared.per_enclave[1].total_cycles, solo_b.total_cycles);
  EXPECT_GT(shared.driver.evictions, 0u);
}

TEST(MultiEnclave, AddressSpacesAreDisjoint) {
  // Same page numbers in both traces must not collide: each enclave's
  // faults equal its solo cold-fault count when the EPC fits both.
  const auto a = seq_trace(32, 1'000, 1);
  const auto b = seq_trace(32, 1'000, 2);
  MultiEnclaveSimulator multi(shared_config(128));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_EQ(r.per_enclave[0].enclave_faults, 32u);
  EXPECT_EQ(r.per_enclave[1].enclave_faults, 32u);
}

TEST(MultiEnclave, PerEnclaveDfpWorksUnderSharing) {
  // Compute-heavy scans: each enclave's preloads overlap its own compute
  // rather than fighting the other's demand loads for the saturated
  // channel (with memory-bound gaps, cross-enclave channel interference
  // can wash out the per-enclave gain — see bench/multi_enclave).
  const auto a = seq_trace(512, 70'000, 1);
  const auto b = seq_trace(512, 70'000, 2);
  const auto cfg = shared_config(256);

  MultiEnclaveSimulator multi(cfg);
  const auto base = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                               EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  const auto dfp = multi.run({EnclaveApp{&a, Scheme::kDfpStop, nullptr},
                              EnclaveApp{&b, Scheme::kDfpStop, nullptr}});
  // Preloading still helps each enclave (the paper's §5.6 claim).
  EXPECT_LT(dfp.per_enclave[0].total_cycles,
            base.per_enclave[0].total_cycles);
  EXPECT_LT(dfp.per_enclave[1].total_cycles,
            base.per_enclave[1].total_cycles);
  EXPECT_GT(dfp.per_enclave[0].dfp_preload_counter, 0u);
  EXPECT_GT(dfp.per_enclave[1].dfp_preload_counter, 0u);
}

TEST(MultiEnclave, MixedSchemesPerEnclave) {
  // One enclave on DFP, one on baseline: only the first preloads.
  const auto a = seq_trace(256, 2'000, 1);
  const auto b = seq_trace(256, 2'000, 2);
  MultiEnclaveSimulator multi(shared_config(256));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kDfpStop, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_GT(r.per_enclave[0].dfp_preload_counter, 0u);
  EXPECT_EQ(r.per_enclave[1].dfp_preload_counter, 0u);
}

TEST(MultiEnclave, MakespanIsMaxOfFinishTimes) {
  const auto a = seq_trace(16, 1'000, 1);
  const auto b = seq_trace(64, 1'000, 2);
  MultiEnclaveSimulator multi(shared_config(128));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr}});
  EXPECT_EQ(r.makespan, std::max(r.per_enclave[0].total_cycles,
                                 r.per_enclave[1].total_cycles));
  EXPECT_LT(r.per_enclave[0].total_cycles, r.per_enclave[1].total_cycles);
}

TEST(MultiEnclave, ThreeEnclavesShareChannel) {
  const auto a = seq_trace(128, 1'000, 1);
  const auto b = seq_trace(128, 1'000, 2);
  const auto c = seq_trace(128, 1'000, 3);
  MultiEnclaveSimulator multi(shared_config(512));
  const auto r = multi.run({EnclaveApp{&a, Scheme::kBaseline, nullptr},
                            EnclaveApp{&b, Scheme::kBaseline, nullptr},
                            EnclaveApp{&c, Scheme::kBaseline, nullptr}});
  ASSERT_EQ(r.per_enclave.size(), 3u);
  // All share one serialized channel: 384 cold faults serialize on it, so
  // every enclave finishes later than its channel-free lower bound.
  for (const auto& m : r.per_enclave) {
    EXPECT_EQ(m.enclave_faults, 128u);
  }
}

// --- one tenant step: a co-run tenant replays exactly as a solo run ---------

/// A sequential scan (DFP streams, evictions) into irregular accesses on
/// instrumented sites 10..13 (SIP checks and loads), ending on a short
/// scan so preloads are still queued when the trace ends (finish() must
/// settle them alike).
trace::Trace parity_trace(std::uint64_t seed) {
  trace::Trace t("parity-" + std::to_string(seed), 4'096);
  Rng rng(seed);
  const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 512}, 1, gap);
  trace::random_access(t, rng, trace::Region{600, 3'000}, 600, 10, 4, gap);
  trace::seq_scan(t, rng, trace::Region{3'700, 64}, 2, gap);
  return t;
}

sip::InstrumentationPlan parity_plan() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  return plan;
}

/// A plain, unbounded channel; `validate` makes both finishes settle the
/// channel and sweep the invariants.
SimConfig parity_config(std::uint32_t lookahead, double contention,
                        std::optional<inject::FaultKind> chaos) {
  SimConfig cfg;
  cfg.enclave.epc_pages = 96;
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.validate = true;
  cfg.sip_lookahead = lookahead;
  cfg.channel_contention = contention;
  if (chaos.has_value()) {
    cfg.chaos.seed = 77;
    cfg.chaos.enable(*chaos);
  }
  return cfg;
}

/// A frame's sections keyed by tag, minus the ones only one engine writes
/// (chain header, identity, the solo RUNS and the co-run's ENCM/APPS).
std::map<std::string, std::vector<std::uint8_t>> shared_sections(
    const std::vector<std::uint8_t>& bytes) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& span : snapshot::section_spans(bytes)) {
    if (span.tag == "CHNH" || span.tag == "META" || span.tag == "RUNS" ||
        span.tag == "ENCM" || span.tag == "APPS") {
      continue;
    }
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(span.offset);
    out[span.tag].assign(first, first + static_cast<std::ptrdiff_t>(span.size));
  }
  return out;
}

struct ParityCase {
  Scheme scheme;
  std::uint32_t lookahead;
  double contention;
  std::optional<inject::FaultKind> chaos;

  std::string name() const {
    std::ostringstream o;
    o << to_string(scheme) << " lookahead=" << lookahead
      << " contention=" << contention
      << " chaos=" << (chaos ? inject::to_string(*chaos) : "none");
    return o.str();
  }
};

/// Run `c` solo and as the only tenant of a co-run; every Metrics scalar,
/// every driver counter, the injector's counters and the final DFP engine
/// and driver state must agree. Returns the solo Metrics.
Metrics expect_parity(const ParityCase& c, const trace::Trace& t,
                      const sip::InstrumentationPlan& plan) {
  SCOPED_TRACE(c.name());
  SimConfig cfg = parity_config(c.lookahead, c.contention, c.chaos);
  cfg.scheme = c.scheme;
  SimulationRun solo(cfg, t, &plan);
  const Metrics want = solo.run_to_end();
  MultiEnclaveRun co(cfg, {EnclaveApp{&t, c.scheme, &plan}});
  const MultiEnclaveResult got = co.run_to_end();
  EXPECT_EQ(got.makespan, want.total_cycles);
  const Metrics& m = got.per_enclave.at(0);
#define SGXPL_EXPECT_SAME(type, member) \
  EXPECT_EQ(m.member, want.member) << "metrics." #member;
  SGXPL_METRICS_FIELDS(SGXPL_EXPECT_SAME)
#undef SGXPL_EXPECT_SAME
#define SGXPL_EXPECT_SAME(member, metric) \
  EXPECT_EQ(got.driver.member, want.driver.member) << metric;
  SGXPL_DRIVER_STATS_FIELDS(SGXPL_EXPECT_SAME)
#undef SGXPL_EXPECT_SAME
  EXPECT_EQ(got.inject.fired, want.inject.fired);
  EXPECT_EQ(got.inject.opportunities, want.inject.opportunities);
  // The engine's DFPE section holds every DFP counter (and the predictor,
  // preloaded-page list and health monitor); the driver's sections hold
  // its page table, EPC, channel and backing store.
  const auto solo_sections = shared_sections(solo.save_bytes());
  const auto co_sections = shared_sections(co.save_bytes());
  EXPECT_EQ(solo_sections.size(), co_sections.size());
  for (const auto& [tag, bytes] : solo_sections) {
    const auto it = co_sections.find(tag);
    EXPECT_TRUE(it != co_sections.end() && it->second == bytes)
        << "section " << tag << " differs";
  }
  return want;
}

class CoRunParity : public testing::TestWithParam<Scheme> {};

TEST_P(CoRunParity, OneTenantCoRunEqualsSoloRun) {
  // Grid: SIP lookahead {0, 8} x channel contention {0, 0.5} x {no chaos,
  // each fault class}. kPredictorWipe is left out: the co-run's policy
  // router does not forward on_state_lost, so a wipe never reaches a
  // co-run tenant's predictor (nor does on_preloads_shed, which only a
  // bounded or admission-controlled channel raises).
  const Scheme scheme = GetParam();
  const auto t = parity_trace(4);
  const auto plan = parity_plan();
  std::vector<std::optional<inject::FaultKind>> chaos = {std::nullopt};
  for (const inject::FaultKind k : inject::all_fault_kinds()) {
    if (k != inject::FaultKind::kPredictorWipe) {
      chaos.emplace_back(k);
    }
  }
  std::uint64_t contention_cycles = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t bitmap_lies = 0;
  std::uint64_t fired = 0;
  for (const std::uint32_t lookahead : {0u, 8u}) {
    for (const double contention : {0.0, 0.5}) {
      for (const auto& kind : chaos) {
        const Metrics m =
            expect_parity({scheme, lookahead, contention, kind}, t, plan);
        contention_cycles += m.contention_cycles;
        prefetches += m.driver.sip_prefetches;
        bitmap_lies += m.driver.bitmap_lies;
        fired += m.inject.total_fired();
      }
    }
  }
  // Non-vacuity: every knob the grid sweeps acted on this scheme (baseline
  // loads only on demand, so no page copy ever overlaps its compute).
  if (scheme != Scheme::kBaseline) {
    EXPECT_GT(contention_cycles, 0u);
  }
  EXPECT_GT(fired, 0u);
  if (uses_sip(scheme)) {
    EXPECT_GT(prefetches, 0u) << "no hoisted SIP prefetch was issued";
    EXPECT_GT(bitmap_lies, 0u) << "no bitmap chaos reached a SIP check";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CoRunParity,
    testing::Values(Scheme::kBaseline, Scheme::kDfp, Scheme::kDfpStop,
                    Scheme::kSip, Scheme::kHybrid),
    [](const testing::TestParamInfo<Scheme>& param) {
      std::string name = to_string(param.param);
      std::erase_if(name, [](char ch) { return std::isalnum(ch) == 0; });
      return name;
    });

TEST(MultiEnclave, DrainingTenantShedsOnlyItsOwnHoistedPrefetches) {
  // Two SIP tenants at lookahead 8; tenant 1 drains for the whole run.
  const auto a = parity_trace(4);
  const auto b = parity_trace(5);
  const auto plan = parity_plan();
  obs::EventLog log(1u << 16);
  SimConfig cfg = parity_config(8, 0.0, std::nullopt);
  cfg.event_log = &log;
  MultiEnclaveRun run(cfg, {EnclaveApp{&a, Scheme::kSip, &plan},
                            EnclaveApp{&b, Scheme::kSip, &plan}});
  run.begin_tenant_drain(1);
  const MultiEnclaveResult r = run.run_to_end();
  ASSERT_EQ(log.dropped(), 0u) << "the event log overflowed";
  const PageNum split = run.tenant_geometry(1).lo;
  std::uint64_t issued[2] = {0, 0};
  std::uint64_t shed[2] = {0, 0};
  for (const obs::Event& e : log.events()) {
    const std::size_t owner = e.page < split ? 0 : 1;
    if (e.type == obs::EventType::kSipPrefetch) {
      ++issued[owner];
    } else if (e.type == obs::EventType::kAdmission) {
      ++shed[owner];
    }
  }
  EXPECT_GT(issued[0], 0u) << "tenant 0 does not drain; its prefetches issue";
  EXPECT_EQ(shed[0], 0u);
  EXPECT_EQ(issued[1], 0u) << "a draining tenant's prefetch was issued";
  EXPECT_GT(shed[1], 0u);
  EXPECT_EQ(r.driver.sip_prefetches, issued[0]);
  EXPECT_EQ(r.driver.preloads_shed, shed[1]);
}

TEST(MultiEnclave, HoistedSipCoRunKillRestoreMatchesUninterrupted) {
  // Tenant 1 runs hybrid at lookahead 8. Both clocks start at 0 and the
  // scheduler breaks ties by index, so cut 1 leaves tenant 1 at cursor 0:
  // its hoisted prefix must run once, after the restore.
  const auto a = parity_trace(4);
  const auto b = parity_trace(5);
  const auto plan = parity_plan();
  SimConfig cfg = parity_config(8, 0.5, std::nullopt);
  const std::vector<EnclaveApp> apps = {
      EnclaveApp{&a, Scheme::kDfpStop, nullptr},
      EnclaveApp{&b, Scheme::kHybrid, &plan}};
  MultiEnclaveRun whole(cfg, apps);
  const MultiEnclaveResult want = whole.run_to_end();
  for (const std::uint64_t cut : {0u, 1u, 2u, 9u, 333u, 1'500u}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    std::vector<std::uint8_t> frame;
    {
      MultiEnclaveRun victim(cfg, apps);
      while (victim.steps() < cut) {
        victim.step();
      }
      if (cut == 1) {
        ASSERT_EQ(victim.tenant_cursor(1), 0u);
      }
      frame = victim.save_bytes();
    }
    MultiEnclaveRun resumed(cfg, apps);
    resumed.load_bytes(frame);
    const MultiEnclaveResult got = resumed.run_to_end();
    EXPECT_EQ(got.makespan, want.makespan);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const auto d =
          snapshot::diff_metrics(want.per_enclave[i], got.per_enclave[i]);
      EXPECT_TRUE(d.identical) << "enclave " << i << ": "
                               << d.first_divergence;
    }
    EXPECT_EQ(got.driver.sip_prefetches, want.driver.sip_prefetches);
    EXPECT_EQ(got.driver.faults, want.driver.faults);
  }
  EXPECT_GT(want.driver.sip_prefetches, 0u);
  EXPECT_GT(want.per_enclave[0].contention_cycles +
                want.per_enclave[1].contention_cycles,
            0u);
}

}  // namespace
}  // namespace sgxpl::core
