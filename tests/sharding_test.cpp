// Shard-count invariance of the fleet supervisor: the differential
// battery. The contract under test (SupervisorPolicy::shard_threads, run on
// a core::ShardPool) is that the worker-thread count K is pure execution
// mechanics — for ANY K the host snapshot frames, driver chaos schedules,
// event streams, manifests, and incident ledgers are bit-identical to the
// sequential K=1 run. Everything here compares serialized bytes, not
// floats: a mismatch anywhere in the state fails.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/multi_enclave.h"
#include "core/sharding.h"
#include "fleet/supervisor.h"
#include "golden_recipe.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "obs/event_log.h"
#include "sip/instrumenter.h"
#include "snapshot/codec.h"

namespace sgxpl {
namespace {

using core::Scheme;
using core::ShardPool;

/// The shard counts every differential below sweeps. 1 is the reference;
/// 3 does not divide most host counts (uneven blocks); 8 oversubscribes
/// small fleets (some workers own zero hosts).
constexpr std::size_t kShardCounts[] = {1, 2, 3, 8};

// --- ShardPool --------------------------------------------------------------

TEST(ShardPool, SingleThreadedPoolRunsInlineInIndexOrder) {
  ShardPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ShardPool, EveryJobRunsExactlyOnceAcrossWorkers) {
  ShardPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  // 13 jobs over 4 workers: uneven blocks, every index covered once.
  std::vector<std::atomic<int>> hits(13);
  pool.run(13, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
  // Fewer jobs than workers: the trailing workers own empty blocks.
  std::atomic<int> ran{0};
  pool.run(2, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ShardPool, IsReusableAcrossManyGenerations) {
  ShardPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 64; ++round) {
    pool.run(7, [&](std::size_t i) { total += i + 1; });
  }
  EXPECT_EQ(total.load(), 64u * (7u * 8u / 2u));
}

TEST(ShardPool, RethrowsAWorkerExceptionAfterTheBarrier) {
  ShardPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(8,
                        [&](std::size_t i) {
                          ++ran;
                          if (i == 5) {
                            throw std::runtime_error("lane 5 exploded");
                          }
                        }),
               std::runtime_error);
  // The pool joined the generation before rethrowing: it stays usable.
  std::atomic<int> after{0};
  pool.run(4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
  EXPECT_GE(ran.load(), 1);
}

/// Worker counts reach the pool from outside input; a count past the cap is
/// refused before any thread starts (only cap + 1 is ever tried here).
TEST(ShardPool, RefusesMoreWorkersThanTheCap) {
  EXPECT_THROW(ShardPool pool(core::kMaxShardThreads + 1), CheckFailure);
}

// --- FleetSupervisor.shard_threads ------------------------------------------

fleet::SupervisorPolicy sup_policy(std::uint64_t k) {
  fleet::SupervisorPolicy p;
  p.epoch_steps = 16;
  p.checkpoint.mode = fleet::CheckpointMode::kFixed;
  p.checkpoint.fixed_every = 32;
  p.checkpoint.full_every = 4;
  p.shard_threads = k;
  return p;
}

inject::HostCrashPlan crashy_plan() {
  inject::HostCrashPlan plan;
  plan.enabled = true;
  plan.crash_per_epoch = 0.08;
  plan.torn_frac = 0.5;
  plan.seed = 42;
  return plan;
}

void expect_same_report(const fleet::FleetReport& got,
                        const fleet::FleetReport& ref) {
  EXPECT_EQ(got.epochs, ref.epochs);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.ledger.tenants_total, ref.ledger.tenants_total);
  EXPECT_EQ(got.ledger.running, ref.ledger.running);
  EXPECT_EQ(got.ledger.finished, ref.ledger.finished);
  EXPECT_EQ(got.ledger.quarantined, ref.ledger.quarantined);
  EXPECT_EQ(got.ledger.crashes, ref.ledger.crashes);
  EXPECT_EQ(got.ledger.recoveries, ref.ledger.recoveries);
  EXPECT_EQ(got.ledger.cold_starts, ref.ledger.cold_starts);
  EXPECT_EQ(got.ledger.torn_checkpoints, ref.ledger.torn_checkpoints);
  EXPECT_EQ(got.ledger.checkpoints, ref.ledger.checkpoints);
  EXPECT_EQ(got.ledger.evacuations_completed,
            ref.ledger.evacuations_completed);
  EXPECT_EQ(got.ledger.evacuation_retries, ref.ledger.evacuation_retries);
  EXPECT_EQ(got.ledger.hosts_retired, ref.ledger.hosts_retired);
  EXPECT_EQ(got.ledger.hosts_spawned, ref.ledger.hosts_spawned);
  ASSERT_EQ(got.crash_incidents.size(), ref.crash_incidents.size());
  for (std::size_t i = 0; i < ref.crash_incidents.size(); ++i) {
    const fleet::CrashIncident& g = got.crash_incidents[i];
    const fleet::CrashIncident& r = ref.crash_incidents[i];
    EXPECT_EQ(g.host, r.host) << "incident " << i;
    EXPECT_EQ(g.at_epoch, r.at_epoch) << "incident " << i;
    EXPECT_EQ(g.steps_at_crash, r.steps_at_crash) << "incident " << i;
    EXPECT_EQ(g.steps_at_checkpoint, r.steps_at_checkpoint)
        << "incident " << i;
    EXPECT_EQ(g.rpo_steps, r.rpo_steps) << "incident " << i;
    EXPECT_EQ(g.rpo_cycles, r.rpo_cycles) << "incident " << i;
    EXPECT_EQ(g.rto_cycles, r.rto_cycles) << "incident " << i;
    EXPECT_EQ(g.frames_offered, r.frames_offered) << "incident " << i;
    EXPECT_EQ(g.frames_salvaged, r.frames_salvaged) << "incident " << i;
    EXPECT_EQ(g.torn_tail, r.torn_tail) << "incident " << i;
    EXPECT_EQ(g.cold_start, r.cold_start) << "incident " << i;
  }
  ASSERT_EQ(got.evacuation_incidents.size(), ref.evacuation_incidents.size());
  for (std::size_t i = 0; i < ref.evacuation_incidents.size(); ++i) {
    const fleet::EvacuationIncident& g = got.evacuation_incidents[i];
    const fleet::EvacuationIncident& r = ref.evacuation_incidents[i];
    EXPECT_EQ(g.host, r.host) << "evacuation " << i;
    EXPECT_EQ(g.tenant_id, r.tenant_id) << "evacuation " << i;
    EXPECT_EQ(g.at_epoch, r.at_epoch) << "evacuation " << i;
    EXPECT_EQ(g.attempts, r.attempts) << "evacuation " << i;
    EXPECT_EQ(g.outcome, r.outcome) << "evacuation " << i;
    EXPECT_EQ(g.backoff_epochs, r.backoff_epochs) << "evacuation " << i;
    EXPECT_EQ(g.detail, r.detail) << "evacuation " << i;
  }
}

/// The fleet the widened differentials run: three hosts whose tenants
/// cover every scheme a co-run hosts — baseline, DFP, DFP-stop and the
/// SIP+DFP hybrid (the golden single trace under its plan) — with the
/// driver's full chaos plan optionally armed on every host.
struct MixedFleet {
  trace::Trace a = golden::multi_trace(11);
  trace::Trace b = golden::multi_trace(12);
  trace::Trace s = golden::single_trace();
  sip::InstrumentationPlan plan = golden::single_plan();

  void populate(fleet::FleetSupervisor& sup, bool driver_chaos) const {
    core::SimConfig cfg = golden::multi_config();
    if (driver_chaos) {
      cfg.chaos = inject::ChaosPlan::all(/*seed=*/7);
    }
    sup.add_host(cfg, {{.trace = &a, .scheme = Scheme::kBaseline},
                       {.trace = &b, .scheme = Scheme::kDfp}});
    sup.add_host(cfg, {{.trace = &b, .scheme = Scheme::kDfpStop},
                       {.trace = &s, .scheme = Scheme::kHybrid, .plan = &plan}});
    sup.add_host(cfg, {{.trace = &s, .scheme = Scheme::kHybrid, .plan = &plan},
                       {.trace = &a, .scheme = Scheme::kDfpStop}});
  }
};

using Frame = std::vector<std::uint8_t>;

/// Everything one supervised run produces that must not depend on K.
struct FleetRecord {
  /// Per epoch barrier, every live host's full frame in host order.
  std::vector<std::vector<Frame>> barriers;
  fleet::FleetReport report;
  Frame manifest;
  std::string events;
};

/// One cell of the supervisor differentials. A nonzero `cut` kills every
/// live host right after epoch `cut` (tearing the in-flight checkpoint
/// when `torn`) and recovers it before that barrier is recorded.
struct FleetCase {
  bool driver_chaos = false;
  bool host_crashes = false;
  std::uint64_t cut = 0;
  bool torn = false;
  /// Checkpoint cadence in steps (sup_policy's default is 32).
  std::uint64_t checkpoint_every = 32;

  std::string name() const {
    return std::string("driver chaos ") + (driver_chaos ? "all" : "off") +
           ", host crashes " + (host_crashes ? "on" : "off") +
           ", checkpoint every " + std::to_string(checkpoint_every) +
           (cut > 0 ? ", cut " + std::to_string(cut) : "") +
           (torn ? " torn" : "");
  }
};

/// Run the fleet under K workers to completion, recording every barrier.
FleetRecord run_recorded(const MixedFleet& fleet, const FleetCase& c,
                         std::uint64_t k) {
  obs::EventLog log;
  fleet::SupervisorPolicy policy = sup_policy(k);
  policy.checkpoint.fixed_every = c.checkpoint_every;
  fleet::FleetSupervisor sup(
      policy, c.host_crashes ? crashy_plan() : inject::HostCrashPlan{});
  sup.set_event_log(&log);
  fleet.populate(sup, c.driver_chaos);
  FleetRecord rec;
  while (!sup.done()) {
    sup.run_epoch();
    if (sup.epoch() == c.cut) {
      for (std::size_t h = 0; h < sup.host_count(); ++h) {
        if (sup.host_run(h) != nullptr) {
          sup.crash_host(h, c.torn);
          sup.recover_host(h);
        }
      }
    }
    std::vector<Frame>& frames = rec.barriers.emplace_back();
    for (std::size_t h = 0; h < sup.host_count(); ++h) {
      if (const core::MultiEnclaveRun* run = sup.host_run(h)) {
        frames.push_back(run->save_bytes());
      }
    }
  }
  rec.report = sup.report();
  rec.manifest = sup.save_manifest();
  rec.events = log.render();
  return rec;
}

/// Frames are compared with == and a located message: a mismatch names the
/// barrier and host instead of dumping kilobytes of bytes.
void expect_same_record(const FleetRecord& got, const FleetRecord& ref) {
  ASSERT_EQ(got.barriers.size(), ref.barriers.size());
  for (std::size_t e = 0; e < ref.barriers.size(); ++e) {
    ASSERT_EQ(got.barriers[e].size(), ref.barriers[e].size())
        << "barrier " << e;
    for (std::size_t h = 0; h < ref.barriers[e].size(); ++h) {
      EXPECT_TRUE(got.barriers[e][h] == ref.barriers[e][h])
          << "barrier " << e << ", live host " << h;
    }
  }
  expect_same_report(got.report, ref.report);
  EXPECT_TRUE(got.manifest == ref.manifest);
  EXPECT_EQ(got.events, ref.events);
}

/// The driver injector's total fired count, read from a host frame.
std::uint64_t injected_faults(const Frame& frame) {
  snapshot::Reader r(frame);
  std::uint64_t fired = 0;
  while (r.sections_entered() < r.section_count()) {
    r.enter_any_section();
    while (r.more_fields()) {
      const snapshot::FieldView f = r.next_field();
      if (f.label == "inject.fired") {
        fired += std::accumulate(f.vecv.begin(), f.vecv.end(), 0ull);
      }
    }
    r.leave_section();
  }
  return fired;
}

/// The widened grid: scheme mix x driver chaos {off, all} x host crashes
/// {off, on} x checkpoint cadence {2, 3 epochs} x K. Every K > 1 run must
/// reproduce the K=1 run's host frames at every epoch barrier, its report,
/// manifest and event stream.
TEST(ShardInvariance, GridOverSchemesChaosShardsAndCadence) {
  const MixedFleet fleet;
  for (const bool driver_chaos : {false, true}) {
    for (const bool host_crashes : {false, true}) {
      for (const std::uint64_t every : {std::uint64_t{32}, std::uint64_t{48}}) {
        const FleetCase c{.driver_chaos = driver_chaos,
                          .host_crashes = host_crashes,
                          .checkpoint_every = every};
        SCOPED_TRACE(c.name());
        const FleetRecord ref = run_recorded(fleet, c, 1);
        ASSERT_GT(ref.barriers.size(), 2u) << "workload too small to shard";
        EXPECT_TRUE(ref.report.ledger.balanced());
        EXPECT_EQ(ref.report.ledger.running, 0u);
        EXPECT_GT(ref.report.ledger.checkpoints, 0u);
        // A vacuous differential would pass too: armed host crashes must
        // actually have fired (the driver injector is checked below).
        if (host_crashes) {
          EXPECT_GT(ref.report.ledger.crashes, 0u);
        }
        for (const std::size_t k : kShardCounts) {
          if (k == 1) continue;
          SCOPED_TRACE("K=" + std::to_string(k));
          expect_same_record(run_recorded(fleet, c, k), ref);
        }
      }
    }
  }
}

/// Non-vacuity of the grid's driver-chaos cells: with the full driver plan
/// armed on every host, the injector fires in the run the grid compares,
/// at the sequential count and at an oversubscribed K.
TEST(ShardInvariance, ChaosLanesActuallyInjectFaults) {
  const MixedFleet fleet;
  std::uint64_t fired_at_k1 = 0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const FleetRecord rec = run_recorded(fleet, {.driver_chaos = true}, k);
    std::uint64_t fired = 0;
    for (const auto& barrier : rec.barriers) {
      for (const Frame& f : barrier) {
        fired = std::max(fired, injected_faults(f));
      }
    }
    EXPECT_GT(fired, 0u);
    if (k == 1) {
      fired_at_k1 = fired;
    } else {
      EXPECT_EQ(fired, fired_at_k1);
    }
  }
}

/// Kill-restore cuts across K: at every third barrier, kill every live
/// host (tearing the in-flight checkpoint on alternate cuts), salvage and
/// replay it, and run on to the end. Every K > 1 run must match the K=1
/// run of the same cut byte for byte; and since recovery replays to the
/// crash point, every host frame must match the uninterrupted run's too.
TEST(SupervisorSharding, KillRestoreCutsAcrossShardCounts) {
  const MixedFleet fleet;
  const FleetRecord whole = run_recorded(fleet, {.driver_chaos = true}, 1);
  ASSERT_GT(whole.barriers.size(), 3u);
  for (std::uint64_t cut = 3; cut < whole.barriers.size(); cut += 3) {
    const FleetCase c{.driver_chaos = true,
                      .cut = cut,
                      .torn = (cut / 3) % 2 == 0};
    SCOPED_TRACE(c.name());
    const FleetRecord ref = run_recorded(fleet, c, 1);
    const std::size_t live = whole.barriers[cut - 1].size();
    ASSERT_GT(live, 0u);
    EXPECT_EQ(ref.report.ledger.crashes, live);
    EXPECT_EQ(ref.report.ledger.recoveries, live);
    EXPECT_EQ(ref.report.ledger.torn_checkpoints, c.torn ? live : 0u);
    EXPECT_TRUE(ref.barriers == whole.barriers)
        << "recovery did not land on the uninterrupted frames";
    for (const std::size_t k : kShardCounts) {
      if (k == 1) continue;
      SCOPED_TRACE("K=" + std::to_string(k));
      expect_same_record(run_recorded(fleet, c, k), ref);
    }
  }
}

/// Mid-flight differential on a quiet fleet: after a fixed number of
/// epochs, every host's full frame, the supervisor manifest, and the event
/// stream must match the sequential run byte-for-byte at every K.
TEST(SupervisorSharding, MidRunHostFramesManifestAndEventsMatchSequential) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  constexpr std::uint64_t kEpochs = 12;

  auto capture = [&](std::uint64_t k) {
    obs::EventLog log;
    fleet::FleetSupervisor sup(sup_policy(k), inject::HostCrashPlan{});
    sup.set_event_log(&log);
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    sup.add_host(golden::multi_config(), golden::multi_apps(b, a));
    sup.add_host(golden::multi_config(), golden::multi_apps(a, a));
    for (std::uint64_t e = 0; e < kEpochs && !sup.done(); ++e) {
      sup.run_epoch();
    }
    struct Snap {
      std::vector<std::vector<std::uint8_t>> hosts;
      std::vector<std::uint8_t> manifest;
      std::string events;
    } snap;
    for (std::size_t h = 0; h < sup.host_count(); ++h) {
      EXPECT_NE(sup.host_run(h), nullptr) << "host " << h;
      if (sup.host_run(h) != nullptr) {
        snap.hosts.push_back(sup.host_run(h)->save_bytes());
      }
    }
    snap.manifest = sup.save_manifest();
    snap.events = log.render();
    return snap;
  };

  const auto ref = capture(1);
  ASSERT_EQ(ref.hosts.size(), 3u);
  for (const std::size_t k : kShardCounts) {
    if (k == 1) continue;
    const auto got = capture(k);
    SCOPED_TRACE("K=" + std::to_string(k));
    ASSERT_EQ(got.hosts.size(), ref.hosts.size());
    for (std::size_t h = 0; h < ref.hosts.size(); ++h) {
      EXPECT_EQ(got.hosts[h], ref.hosts[h]) << "host " << h;
    }
    EXPECT_EQ(got.manifest, ref.manifest);
    EXPECT_EQ(got.events, ref.events);
  }
}

/// Full-service differential under host chaos: crashes, torn checkpoints,
/// salvage+replay recovery, evacuations, and retirement all run under K
/// workers and must land on the sequential incident history exactly.
TEST(SupervisorSharding, ChaoticServiceRunIsShardCountInvariant) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);

  auto run_fleet = [&](std::uint64_t k) {
    obs::EventLog log;
    fleet::FleetSupervisor sup(sup_policy(k), crashy_plan());
    sup.set_event_log(&log);
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    sup.add_host(golden::multi_config(), golden::multi_apps(b, a));
    sup.add_host(golden::multi_config(), golden::multi_apps(a, a));
    sup.add_host(golden::multi_config(), golden::multi_apps(b, b));
    struct Out {
      fleet::FleetReport report;
      std::vector<std::uint8_t> manifest;
      std::string events;
      std::uint64_t chaos_crashes = 0;
    } out;
    out.report = sup.run_to_completion(5'000);
    out.manifest = sup.save_manifest();
    out.events = log.render();
    out.chaos_crashes = sup.chaos().stats().crashes;
    return out;
  };

  const auto ref = run_fleet(1);
  // The differential is only meaningful if chaos actually fired.
  ASSERT_GT(ref.report.ledger.crashes, 0u);
  EXPECT_TRUE(ref.report.ledger.balanced());
  for (const std::size_t k : kShardCounts) {
    if (k == 1) continue;
    const auto got = run_fleet(k);
    SCOPED_TRACE("K=" + std::to_string(k));
    expect_same_report(got.report, ref.report);
    EXPECT_EQ(got.manifest, ref.manifest);
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.chaos_crashes, ref.chaos_crashes);
    EXPECT_TRUE(got.report.ledger.balanced());
  }
}

/// shard_threads is left out of the policy fingerprint, while a policy
/// field that changes the modelled run is in it.
TEST(ShardInvariance, SpecStringExcludesTheShardCount) {
  EXPECT_EQ(sup_policy(1).spec(), sup_policy(8).spec());
  fleet::SupervisorPolicy sparser = sup_policy(1);
  sparser.checkpoint.fixed_every = 48;
  EXPECT_NE(sup_policy(1).spec(), sparser.spec());
}

/// Because of that, a manifest saved under K=8 loads into a K=1 supervisor.
TEST(SupervisorSharding, ManifestCrossesShardCounts) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);

  fleet::FleetSupervisor donor(sup_policy(8), inject::HostCrashPlan{});
  donor.add_host(golden::multi_config(), golden::multi_apps(a, b));
  for (int e = 0; e < 4 && !donor.done(); ++e) {
    donor.run_epoch();
  }
  const std::vector<std::uint8_t> manifest = donor.save_manifest();

  fleet::FleetSupervisor heir(sup_policy(1), inject::HostCrashPlan{});
  heir.add_host(golden::multi_config(), golden::multi_apps(a, b));
  heir.load_manifest(manifest);
  EXPECT_EQ(heir.save_manifest(), manifest);
}

}  // namespace
}  // namespace sgxpl
