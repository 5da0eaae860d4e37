#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/simulator.h"
#include "trace/workloads.h"

namespace sgxpl::obs {
namespace {

using Phase = obs::Phase;

TEST(PhaseTest, ToStringParseRoundTrip) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    const auto back = parse_phase(to_string(p));
    ASSERT_TRUE(back.has_value()) << to_string(p);
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(parse_phase("no_such_phase").has_value());
  EXPECT_FALSE(parse_phase("").has_value());
}

TEST(PhaseTest, WatchdogIsTheLastPhase) {
  EXPECT_STREQ(to_string(Phase::kWatchdog), "watchdog");
  EXPECT_EQ(parse_phase("watchdog"), Phase::kWatchdog);
  EXPECT_EQ(static_cast<std::size_t>(Phase::kWatchdog) + 1, kPhaseCount);
}

TEST(ProfilerTest, SpanNestingBuildsTree) {
  Profiler prof;
  prof.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan step(&prof, Phase::kStep);
    step.add_cycles(10);
    {
      ScopedSpan fault(&prof, Phase::kFault);
      fault.add_cycles(100);
      ScopedSpan evict(&prof, Phase::kEviction);
      evict.add_cycles(7);
    }
    ScopedSpan lookup(&prof, Phase::kPageTableLookup);
  }

  const PhaseProfile p = prof.profile();
  ASSERT_EQ(p.roots.size(), 1u);
  const auto* step = p.find({Phase::kStep});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->count, 3u);
  EXPECT_EQ(step->sim_cycles, 30u);

  const auto* fault = p.find({Phase::kStep, Phase::kFault});
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->count, 3u);
  EXPECT_EQ(fault->sim_cycles, 300u);

  // kEviction nests under kFault, not under kStep: the tree is keyed by
  // actual runtime nesting.
  EXPECT_EQ(p.find({Phase::kStep, Phase::kEviction}), nullptr);
  const auto* evict = p.find({Phase::kStep, Phase::kFault, Phase::kEviction});
  ASSERT_NE(evict, nullptr);
  EXPECT_EQ(evict->count, 3u);
  EXPECT_EQ(evict->sim_cycles, 21u);

  const auto* lookup = p.find({Phase::kStep, Phase::kPageTableLookup});
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->count, 3u);
  EXPECT_EQ(p.node_count(), 4u);
}

TEST(ProfilerTest, SameSiteDifferentParentsAreDistinctNodes) {
  Profiler prof;
  prof.set_enabled(true);
  {
    ScopedSpan fault(&prof, Phase::kFault);
    ScopedSpan ch(&prof, Phase::kChannelService);
    ch.add_cycles(5);
  }
  {
    ScopedSpan scan(&prof, Phase::kScan);
    ScopedSpan ch(&prof, Phase::kChannelService);
    ch.add_cycles(9);
  }
  const PhaseProfile p = prof.profile();
  const auto* under_fault = p.find({Phase::kFault, Phase::kChannelService});
  const auto* under_scan = p.find({Phase::kScan, Phase::kChannelService});
  ASSERT_NE(under_fault, nullptr);
  ASSERT_NE(under_scan, nullptr);
  EXPECT_EQ(under_fault->sim_cycles, 5u);
  EXPECT_EQ(under_scan->sim_cycles, 9u);
}

TEST(ProfilerTest, EarlyExitUnwindsSpans) {
  Profiler prof;
  prof.set_enabled(true);
  const auto thrower = [&prof] {
    ScopedSpan outer(&prof, Phase::kStep);
    ScopedSpan inner(&prof, Phase::kFault);
    inner.add_cycles(1);
    throw std::runtime_error("early exit");
  };
  EXPECT_THROW(thrower(), std::runtime_error);

  // Both spans closed on unwind: a fresh top-level span lands at the root,
  // not under a dangling kFault.
  {
    ScopedSpan next(&prof, Phase::kScan);
  }
  const PhaseProfile p = prof.profile();
  EXPECT_NE(p.find({Phase::kStep, Phase::kFault}), nullptr);
  EXPECT_NE(p.find({Phase::kScan}), nullptr);
  EXPECT_EQ(p.find({Phase::kStep, Phase::kFault, Phase::kScan}), nullptr);
  EXPECT_EQ(p.find({Phase::kStep, Phase::kScan}), nullptr);
}

TEST(ProfilerTest, DisabledRecordsNothingAndAllocatesNothing) {
  Profiler prof;  // default: disabled
  for (int i = 0; i < 100; ++i) {
    ScopedSpan span(&prof, Phase::kFault);
    span.add_cycles(123);
    ScopedSpan nested(&prof, Phase::kEviction);
  }
  EXPECT_EQ(prof.node_count(), 0u);
  EXPECT_TRUE(prof.profile().empty());

  // Null profiler is equally inert.
  ScopedSpan null_span(nullptr, Phase::kStep);
  null_span.add_cycles(5);
}

TEST(ProfilerTest, ResetClearsSpans) {
  Profiler prof;
  prof.set_enabled(true);
  {
    ScopedSpan s(&prof, Phase::kStep);
  }
  EXPECT_EQ(prof.node_count(), 1u);
  prof.reset();
  EXPECT_EQ(prof.node_count(), 0u);
  EXPECT_TRUE(prof.profile().empty());
  // Recording keeps working after reset.
  {
    ScopedSpan s(&prof, Phase::kScan);
  }
  EXPECT_NE(prof.profile().find({Phase::kScan}), nullptr);
}

PhaseProfile sample_profile() {
  Profiler prof;
  prof.set_enabled(true);
  for (int i = 0; i < 2; ++i) {
    ScopedSpan step(&prof, Phase::kStep);
    step.add_cycles(50);
    ScopedSpan fault(&prof, Phase::kFault);
    fault.add_cycles(40);
    ScopedSpan ch(&prof, Phase::kChannelService);
    ch.add_cycles(4);
  }
  {
    ScopedSpan save(&prof, Phase::kSnapshotSave);
    save.add_cycles(1000);
  }
  return prof.profile();
}

TEST(PhaseProfileTest, JsonRoundTrip) {
  const PhaseProfile p = sample_profile();
  const std::string json = p.to_json();
  EXPECT_NE(json.find(PhaseProfile::kSchema), std::string::npos);

  std::string err;
  const auto back = PhaseProfile::parse(json, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->to_json(), json);
  EXPECT_EQ(back->node_count(), p.node_count());
  const auto* fault = back->find({Phase::kStep, Phase::kFault});
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->count, 2u);
  EXPECT_EQ(fault->sim_cycles, 80u);
}

TEST(PhaseProfileTest, ParseRejectsGarbage) {
  std::string err;
  EXPECT_FALSE(PhaseProfile::parse("garbage", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(PhaseProfile::parse("", nullptr).has_value());
  EXPECT_FALSE(PhaseProfile::parse("{}", nullptr).has_value());
  EXPECT_FALSE(
      PhaseProfile::parse(R"({"schema":"wrong/v9","phases":[]})", nullptr)
          .has_value());
  EXPECT_FALSE(
      PhaseProfile::parse(
          R"({"schema":"sgxpl-phase-profile/v1","phases":[{"phase":"bogus","count":1,"wall_ns":0,"cycles":0,"children":[]}]})",
          nullptr)
          .has_value());
  // Trailing junk after a well-formed document.
  EXPECT_FALSE(PhaseProfile::parse(sample_profile().to_json() + "x", nullptr)
                   .has_value());
}

TEST(PhaseProfileTest, MergeAccumulatesPointwise) {
  PhaseProfile a = sample_profile();
  const PhaseProfile b = sample_profile();
  a.merge(b);
  const auto* step = a.find({Phase::kStep});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->count, 4u);
  EXPECT_EQ(step->sim_cycles, 200u);
  const auto* ch = a.find({Phase::kStep, Phase::kFault, Phase::kChannelService});
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->count, 4u);
  // Merging does not invent nodes.
  EXPECT_EQ(a.node_count(), b.node_count());
}

TEST(PhaseProfileTest, DescribeListsEveryNode) {
  const PhaseProfile p = sample_profile();
  const std::string text = p.describe();
  EXPECT_NE(text.find("step"), std::string::npos);
  EXPECT_NE(text.find("channel_service"), std::string::npos);
  EXPECT_NE(text.find("snapshot_save"), std::string::npos);
}

/// (phase, count, sim_cycles) must match node-for-node; wall_ns is host
/// time and legitimately differs between runs.
void expect_cycle_identical(const std::vector<PhaseProfile::Node>& a,
                            const std::vector<PhaseProfile::Node>& b,
                            const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string here =
        where + "/" + to_string(a[i].phase);
    EXPECT_EQ(a[i].phase, b[i].phase) << here;
    EXPECT_EQ(a[i].count, b[i].count) << here;
    EXPECT_EQ(a[i].sim_cycles, b[i].sim_cycles) << here;
    expect_cycle_identical(a[i].children, b[i].children, here);
  }
}

TEST(ProfilerTest, CycleMetricsDeterministicAcrossIdenticalRuns) {
  const auto* w = trace::find_workload("lbm");
  ASSERT_NE(w, nullptr);
  const auto t = w->make(trace::WorkloadParams{.scale = 0.02, .seed = 11});

  const auto run_once = [&t](Profiler& prof) {
    core::SimConfig cfg = core::paper_platform(core::Scheme::kDfpStop);
    cfg.enclave.epc_pages = 600;
    cfg.profiler = &prof;
    prof.set_enabled(true);
    return core::simulate(t, cfg);
  };

  Profiler p1;
  Profiler p2;
  const auto m1 = run_once(p1);
  const auto m2 = run_once(p2);
  ASSERT_EQ(m1.total_cycles, m2.total_cycles);

  const PhaseProfile a = p1.profile();
  const PhaseProfile b = p2.profile();
  ASSERT_FALSE(a.empty());
  // The fault path actually recorded spans with attributed cycles.
  const auto* fault = a.find({Phase::kStep, Phase::kFault});
  ASSERT_NE(fault, nullptr);
  EXPECT_GT(fault->count, 0u);
  EXPECT_GT(fault->sim_cycles, 0u);
  expect_cycle_identical(a.roots, b.roots, "");

  // The fault spans' attributed cycles reconcile with the driver's own
  // stall accounting.
  EXPECT_EQ(fault->sim_cycles, m1.driver.fault_stall_cycles);
}

TEST(ProfilerTest, ProfiledRunMatchesUnprofiledMetrics) {
  const auto* w = trace::find_workload("mcf");
  ASSERT_NE(w, nullptr);
  const auto t = w->make(trace::WorkloadParams{.scale = 0.02, .seed = 3});
  core::SimConfig cfg = core::paper_platform(core::Scheme::kDfp);
  cfg.enclave.epc_pages = 500;
  const auto plain = core::simulate(t, cfg);

  Profiler prof;
  prof.set_enabled(true);
  cfg.profiler = &prof;
  const auto profiled = core::simulate(t, cfg);

  // Observability must never perturb the simulation.
  EXPECT_EQ(plain.total_cycles, profiled.total_cycles);
  EXPECT_EQ(plain.driver.faults, profiled.driver.faults);
  EXPECT_EQ(plain.driver.preloads_issued, profiled.driver.preloads_issued);
}

/// Total span count of `phase` anywhere under `nodes`.
std::uint64_t count_phase(const std::vector<PhaseProfile::Node>& nodes,
                          Phase phase) {
  std::uint64_t n = 0;
  for (const auto& node : nodes) {
    if (node.phase == phase) {
      n += node.count;
    }
    n += count_phase(node.children, phase);
  }
  return n;
}

TEST(ProfilerTest, WatchdogSweepsAreAttributed) {
  const auto* w = trace::find_workload("lbm");
  ASSERT_NE(w, nullptr);
  const auto t = w->make(trace::WorkloadParams{.scale = 0.02, .seed = 5});
  core::SimConfig cfg = core::paper_platform(core::Scheme::kDfp);
  cfg.enclave.epc_pages = 600;
  cfg.enclave.watchdog_scan_interval = 2;
  Profiler prof;
  prof.set_enabled(true);
  cfg.profiler = &prof;
  const auto m = core::simulate(t, cfg);
  ASSERT_GT(m.driver.watchdog_checks, 0u);
  // One watchdog span per online sweep.
  EXPECT_EQ(count_phase(prof.profile().roots, Phase::kWatchdog),
            m.driver.watchdog_checks);
}

}  // namespace
}  // namespace sgxpl::obs
