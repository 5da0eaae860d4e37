// Parameterized property suites: invariants that must hold for every
// (workload, scheme) combination, swept with TEST_P.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "fleet/supervisor.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "obs/event_log.h"
#include "snapshot/codec.h"
#include "trace/workloads.h"

namespace sgxpl::core {
namespace {

constexpr double kScale = 0.06;  // small but non-trivial sweeps

SimConfig tiny_platform(Scheme scheme) {
  SimConfig cfg = paper_platform(scheme);
  cfg.enclave.epc_pages = static_cast<PageNum>(
      static_cast<double>(cfg.enclave.epc_pages) * kScale);
  cfg.validate = true;  // end-of-run structural invariant check
  return cfg;
}

using Param = std::tuple<std::string, Scheme>;

class SchemeProperties : public ::testing::TestWithParam<Param> {
 protected:
  /// Run the parameterized combination once, compiling a SIP plan if the
  /// scheme needs one.
  WorkloadComparison run() const {
    const auto& [name, scheme] = GetParam();
    return compare_schemes(name, {scheme}, tiny_platform(scheme),
                           ExperimentOptions{.scale = kScale,
                                             .train_scale = kScale * 0.5});
  }
};

TEST_P(SchemeProperties, Deterministic) {
  const auto a = run();
  const auto b = run();
  const auto& [name, scheme] = GetParam();
  ASSERT_NE(a.find(scheme), nullptr);
  EXPECT_EQ(a.find(scheme)->metrics.total_cycles,
            b.find(scheme)->metrics.total_cycles)
      << name;
  EXPECT_EQ(a.baseline.total_cycles, b.baseline.total_cycles) << name;
}

TEST_P(SchemeProperties, EveryAccessIsSimulated) {
  const auto& [name, scheme] = GetParam();
  const auto c = run();
  const auto trace_size =
      trace::find_workload(name)->make(trace::ref_params(kScale)).size();
  EXPECT_EQ(c.find(scheme)->metrics.accesses, trace_size);
  EXPECT_EQ(c.baseline.accesses, trace_size);
}

TEST_P(SchemeProperties, TimeIsAtLeastCompute) {
  const auto& [name, scheme] = GetParam();
  const auto c = run();
  const auto& m = c.find(scheme)->metrics;
  EXPECT_GE(m.total_cycles, m.compute_cycles) << name;
  EXPECT_GT(m.total_cycles, 0u);
}

TEST_P(SchemeProperties, DriverAccountingConsistent) {
  const auto& [name, scheme] = GetParam();
  const auto c = run();
  const auto& m = c.find(scheme)->metrics;
  const auto& d = m.driver;
  // Retried faults make the driver's count an upper bound on the
  // per-access fault count.
  EXPECT_GE(d.faults, m.enclave_faults) << name;
  // Every fault was satisfied by a fresh demand load or an in-flight op
  // (retries may add demand loads, never remove them).
  EXPECT_GE(d.demand_loads + d.fault_wait_hits, d.faults) << name;
  // Preload accounting: issued >= completed + aborted (some may still be
  // queued when the trace ends).
  EXPECT_GE(d.preloads_issued, d.preloads_completed + d.preloads_aborted)
      << name;
  // A used preload must have completed (as a DFP preload or a SIP load).
  EXPECT_LE(d.preloads_used, d.preloads_completed + d.sip_loads +
                                 d.sip_inflight_waits + d.sip_prefetches)
      << name;
}

TEST_P(SchemeProperties, SchemeActivityMatchesConfiguration) {
  const auto& [name, scheme] = GetParam();
  const auto c = run();
  const auto& m = c.find(scheme)->metrics;
  SimConfig probe = tiny_platform(scheme);
  if (!probe.uses_dfp()) {
    EXPECT_EQ(m.driver.preloads_issued, 0u) << name;
    EXPECT_EQ(m.dfp_preload_counter, 0u) << name;
  }
  if (!probe.uses_sip()) {
    EXPECT_EQ(m.sip_checks, 0u) << name;
    EXPECT_EQ(m.driver.sip_loads, 0u) << name;
  }
  // Baseline itself must be pristine.
  EXPECT_EQ(c.baseline.driver.preloads_issued, 0u);
  EXPECT_EQ(c.baseline.sip_checks, 0u);
}

TEST_P(SchemeProperties, NormalizationArithmetic) {
  const auto& [name, scheme] = GetParam();
  const auto c = run();
  const auto* r = c.find(scheme);
  EXPECT_NEAR(r->normalized + r->improvement, 1.0, 1e-12) << name;
  EXPECT_GT(r->normalized, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsBySchemes, SchemeProperties,
    ::testing::Combine(
        ::testing::Values("microbenchmark", "lbm", "deepsjeng", "mcf",
                          "MSER", "mixed-blood", "leela"),
        ::testing::Values(Scheme::kDfp, Scheme::kDfpStop, Scheme::kSip,
                          Scheme::kHybrid)),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      std::string n = std::get<0>(pinfo.param);
      for (auto& ch : n) {
        if (ch == '-' || ch == '.') {
          ch = '_';
        }
      }
      std::string s = to_string(std::get<1>(pinfo.param));
      for (auto& ch : s) {
        if (ch == '-' || ch == '+') {
          ch = '_';
        }
      }
      return n + "_" + s;
    });

// --- EPC-size monotonicity (LRU has the inclusion property) ---------------

class EpcMonotonicity : public ::testing::TestWithParam<const char*> {};

TEST_P(EpcMonotonicity, MoreEpcNeverMoreFaultsUnderLru) {
  const auto t =
      trace::find_workload(GetParam())->make(trace::ref_params(kScale));
  std::uint64_t prev_faults = std::numeric_limits<std::uint64_t>::max();
  for (const double frac : {0.5, 1.0, 2.0, 4.0}) {
    SimConfig cfg = tiny_platform(Scheme::kBaseline);
    cfg.enclave.eviction = sgxsim::EvictionKind::kLru;
    cfg.enclave.epc_pages = static_cast<PageNum>(
        static_cast<double>(cfg.enclave.epc_pages) * frac);
    const auto m = simulate(t, cfg);
    EXPECT_LE(m.enclave_faults, prev_faults) << "frac=" << frac;
    prev_faults = m.enclave_faults;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EpcMonotonicity,
                         ::testing::Values("microbenchmark", "deepsjeng",
                                           "MSER", "xz"));

// --- Lookahead sanity across distances -------------------------------------

class LookaheadSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LookaheadSweep, HoistedSipNeverLosesToBaselineOnIrregularTrace) {
  const auto* w = trace::find_workload("deepsjeng");
  SimConfig cfg = tiny_platform(Scheme::kSip);
  cfg.sip_lookahead = GetParam();
  const auto c = compare_schemes(
      *w, {Scheme::kSip}, cfg,
      ExperimentOptions{.scale = kScale, .train_scale = kScale * 0.5});
  EXPECT_GT(c.find(Scheme::kSip)->improvement, 0.0)
      << "lookahead=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Distances, LookaheadSweep,
                         ::testing::Values(0u, 1u, 4u, 16u, 64u));

// --- Eviction kinds keep every scheme sound --------------------------------

class EvictionSweep
    : public ::testing::TestWithParam<sgxsim::EvictionKind> {};

TEST_P(EvictionSweep, AllSchemesRunToCompletion) {
  const auto t =
      trace::find_workload("MSER")->make(trace::ref_params(kScale));
  for (const Scheme s :
       {Scheme::kBaseline, Scheme::kDfpStop, Scheme::kHybrid}) {
    SimConfig cfg = tiny_platform(s);
    cfg.enclave.eviction = GetParam();
    sip::InstrumentationPlan plan;
    for (SiteId site = 100; site < 154; ++site) {
      plan.add_site(site);
    }
    const auto m = simulate(t, cfg, &plan);
    EXPECT_EQ(m.accesses, t.size());
    EXPECT_GE(m.total_cycles, m.compute_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EvictionSweep,
    ::testing::Values(sgxsim::EvictionKind::kClock, sgxsim::EvictionKind::kFifo,
                      sgxsim::EvictionKind::kRandom,
                      sgxsim::EvictionKind::kLru),
    [](const ::testing::TestParamInfo<sgxsim::EvictionKind>& pinfo) {
      return std::string(sgxsim::to_string(pinfo.param));
    });

// --- Predictor kinds keep DFP sound ----------------------------------------

class PredictorSweep : public ::testing::TestWithParam<dfp::PredictorKind> {};

TEST_P(PredictorSweep, DfpRunsAndAccountsCorrectly) {
  const auto t =
      trace::find_workload("lbm")->make(trace::ref_params(kScale));
  SimConfig cfg = tiny_platform(Scheme::kDfpStop);
  cfg.dfp.kind = GetParam();
  const auto m = simulate(t, cfg);
  EXPECT_EQ(m.accesses, t.size());
  EXPECT_GE(m.driver.preloads_issued,
            m.driver.preloads_completed + m.driver.preloads_aborted);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PredictorSweep,
    ::testing::Values(dfp::PredictorKind::kMultiStream,
                      dfp::PredictorKind::kNextN, dfp::PredictorKind::kStride,
                      dfp::PredictorKind::kMarkov,
                      dfp::PredictorKind::kTournament),
    [](const ::testing::TestParamInfo<dfp::PredictorKind>& pinfo) {
      std::string n = dfp::to_string(pinfo.param);
      for (auto& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

// --- Chaos fault classes keep the driver sound ------------------------------
// Every fault class, injected into the full hybrid stack: the driver's
// structural invariants must hold throughout (online watchdog every 8 scans
// plus the end-of-run check), and a second run under the same plan + seed
// must replay bit-identically — same pages, same order, same cycle count.

class ChaosSweep : public ::testing::TestWithParam<inject::FaultKind> {};

TEST_P(ChaosSweep, InvariantsHoldAndReplayIsIdentical) {
  const auto* w = trace::find_workload("deepsjeng");
  SimConfig cfg = tiny_platform(Scheme::kHybrid);  // validate = on
  cfg.chaos.seed = 99;
  cfg.chaos.enable(GetParam());
  cfg.enclave.watchdog_scan_interval = 8;
  const auto run = [&] {
    return compare_schemes(
        *w, {Scheme::kHybrid}, cfg,
        ExperimentOptions{.scale = kScale, .train_scale = kScale * 0.5});
  };
  const auto a = run();
  const auto b = run();
  const auto& ma = a.find(Scheme::kHybrid)->metrics;
  const auto& mb = b.find(Scheme::kHybrid)->metrics;
  EXPECT_GT(ma.inject.total_opportunities(), 0u)
      << "fault class never reached a decision point";
  EXPECT_GT(ma.driver.watchdog_checks, 0u);
  EXPECT_EQ(ma.total_cycles, mb.total_cycles);
  EXPECT_EQ(ma.enclave_faults, mb.enclave_faults);
  EXPECT_EQ(ma.driver.faults, mb.driver.faults);
  EXPECT_EQ(ma.driver.evictions, mb.driver.evictions);
  EXPECT_EQ(ma.inject.total_fired(), mb.inject.total_fired());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ChaosSweep, ::testing::ValuesIn(inject::all_fault_kinds()),
    [](const ::testing::TestParamInfo<inject::FaultKind>& pinfo) {
      std::string n = inject::to_string(pinfo.param);
      for (auto& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

// --- Overload hardening under chaos -----------------------------------------
// The same sweep with the hardened paging path switched on: bounded channel,
// retries, and the per-tenant admission ladder. The load-bearing property is
// conservation — a completion the chaos layer swallowed is never silently
// parked: it is re-issued, made moot by a demand load, or surfaced as a
// permanent fault. Demand faults are never rejected (every access is
// simulated), the structural invariants hold (validate + watchdog on), and
// the whole retry/admission schedule replays bit-identically.

class HardenedChaosSweep : public ::testing::TestWithParam<inject::FaultKind> {
};

TEST_P(HardenedChaosSweep, NoSilentLossUnderBoundedQueueAndRetries) {
  const auto* w = trace::find_workload("deepsjeng");
  SimConfig cfg = tiny_platform(Scheme::kHybrid);  // validate = on
  cfg.chaos.seed = 1234;
  cfg.chaos.enable(GetParam());
  cfg.enclave.watchdog_scan_interval = 8;
  cfg.enclave.channel.max_queued = 24;
  cfg.enclave.channel.max_retries = 3;
  cfg.enclave.admission.enabled = true;
  const auto run = [&] {
    return compare_schemes(
        *w, {Scheme::kHybrid}, cfg,
        ExperimentOptions{.scale = kScale, .train_scale = kScale * 0.5});
  };
  const auto a = run();
  const auto b = run();
  const auto& ma = a.find(Scheme::kHybrid)->metrics;
  const auto& mb = b.find(Scheme::kHybrid)->metrics;
  const auto& d = ma.driver;
  // Conservation: nothing the chaos layer swallowed went missing.
  EXPECT_EQ(d.lost_completions,
            d.retries + d.retries_resolved + d.permanent_faults);
  // Demand is never shed: every access of the trace was simulated to
  // completion even while preloads were being rejected and retried.
  const auto trace_size =
      trace::find_workload("deepsjeng")->make(trace::ref_params(kScale)).size();
  EXPECT_EQ(ma.accesses, trace_size);
  EXPECT_GT(d.watchdog_checks, 0u);
  // The hardened machinery is as deterministic as the seed path: the retry
  // jitter stream and admission windows replay exactly.
  EXPECT_EQ(ma.total_cycles, mb.total_cycles);
  EXPECT_EQ(d.lost_completions, mb.driver.lost_completions);
  EXPECT_EQ(d.retries, mb.driver.retries);
  EXPECT_EQ(d.permanent_faults, mb.driver.permanent_faults);
  EXPECT_EQ(d.preloads_shed, mb.driver.preloads_shed);
  EXPECT_EQ(d.queued_preload_evictions, mb.driver.queued_preload_evictions);
  EXPECT_EQ(d.duplicate_completions, mb.driver.duplicate_completions);
  EXPECT_EQ(d.degrade_demotions, mb.driver.degrade_demotions);
  EXPECT_EQ(d.degrade_promotions, mb.driver.degrade_promotions);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, HardenedChaosSweep, ::testing::ValuesIn(inject::all_fault_kinds()),
    [](const ::testing::TestParamInfo<inject::FaultKind>& pinfo) {
      std::string n = inject::to_string(pinfo.param);
      for (auto& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

// --- Shard-count invariance over randomized supervised fleets ----------------
// The sharded-execution analogue of ChaosSweep: each iteration draws a
// random fleet (1-3 hosts of 2-3 tenants, traces, schemes), a random driver
// chaos toggle, a random host-crash toggle, and a random worker count K > 1,
// then demands the supervisor finish bit-identically to the sequential K=1
// run — incident report, manifest and event stream compared as bytes, so
// a divergence anywhere in host stepping, checkpointing, crash recovery or
// evacuation fails.

class SupervisorShardCountInvariance
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Workload traces are iteration-independent; build each once.
  static const trace::Trace& workload(std::size_t which) {
    static const std::array<trace::Trace, 3> kTraces = {
        trace::find_workload("microbenchmark")->make(trace::ref_params(kScale)),
        trace::find_workload("deepsjeng")->make(trace::ref_params(kScale)),
        trace::find_workload("mcf")->make(trace::ref_params(kScale)),
    };
    return kTraces[which % kTraces.size()];
  }
};

TEST_P(SupervisorShardCountInvariance, RandomFleetMatchesSequentialBitForBit) {
  Rng draw(GetParam() * 0x9e3779b97f4a7c15ull + 17);
  const std::size_t host_count = 1 + draw.bounded(3);
  constexpr Scheme kSchemes[] = {Scheme::kBaseline, Scheme::kDfp,
                                 Scheme::kDfpStop};
  std::vector<std::vector<EnclaveApp>> hosts(host_count);
  for (auto& apps : hosts) {
    const std::size_t tenants = 2 + draw.bounded(2);
    for (std::size_t t = 0; t < tenants; ++t) {
      apps.push_back({.trace = &workload(draw.bounded(3)),
                      .scheme = kSchemes[draw.bounded(3)]});
    }
  }
  SimConfig host_cfg = tiny_platform(Scheme::kBaseline);
  if (draw.chance(0.5)) {
    host_cfg.chaos = inject::ChaosPlan::all(draw.bounded(1 << 20));
  }
  inject::HostCrashPlan crashes;
  if (draw.chance(0.5)) {
    crashes.enabled = true;
    crashes.crash_per_epoch = 0.05;
    crashes.torn_frac = 0.5;
    crashes.seed = draw.bounded(1 << 20);
  }
  constexpr std::uint64_t kWorkerDraws[] = {2, 3, 4, 8};
  const std::uint64_t k = kWorkerDraws[draw.bounded(4)];

  struct Outcome {
    fleet::FleetReport report;
    std::vector<std::uint8_t> manifest;
    std::string events;
  };
  const auto run_at = [&](std::uint64_t threads) {
    fleet::SupervisorPolicy policy;
    policy.shard_threads = threads;
    obs::EventLog log;
    fleet::FleetSupervisor sup(policy, crashes);
    sup.set_event_log(&log);
    for (const auto& apps : hosts) {
      sup.add_host(host_cfg, apps);
    }
    Outcome out;
    out.report = sup.run_to_completion(5'000);
    out.manifest = sup.save_manifest();
    out.events = log.render();
    return out;
  };
  const Outcome ref = run_at(1);
  const Outcome got = run_at(k);
  SCOPED_TRACE("K=" + std::to_string(k));
  EXPECT_TRUE(ref.report.ledger.balanced());
  EXPECT_EQ(ref.report.ledger.running, 0u) << "fleet did not drain";
  EXPECT_EQ(got.report.epochs, ref.report.epochs);
  EXPECT_EQ(got.report.makespan, ref.report.makespan);
  EXPECT_EQ(got.report.ledger.crashes, ref.report.ledger.crashes);
  EXPECT_EQ(got.report.ledger.checkpoints, ref.report.ledger.checkpoints);
  EXPECT_EQ(got.report.ledger.evacuations_completed,
            ref.report.ledger.evacuations_completed);
  EXPECT_EQ(got.report.ledger.quarantined, ref.report.ledger.quarantined);
  EXPECT_EQ(got.report.crash_incidents.size(),
            ref.report.crash_incidents.size());
  EXPECT_TRUE(got.manifest == ref.manifest);
  EXPECT_EQ(got.events, ref.events);
}

INSTANTIATE_TEST_SUITE_P(Iterations, SupervisorShardCountInvariance,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace sgxpl::core
