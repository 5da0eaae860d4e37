// Kill-restore differential tests: a run checkpointed at an adversarial
// access boundary, destroyed, and restored into a fresh run must finish with
// Metrics bit-identical to the uninterrupted run — for every scheme and under
// every chaos fault class. Also covers the restore gates: snapshots from a
// different run are refused, corrupt snapshots are rejected with a diagnostic
// CheckFailure, and the file-based --checkpoint/--resume path round-trips.
#include "snapshot/snapshotter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "inject/chaos_plan.h"
#include "snapshot/chain.h"
#include "trace/generators.h"

namespace sgxpl {
namespace {

using core::Scheme;
using core::SimConfig;
using core::SimulationRun;

/// Sequential scan into irregular instrumented accesses: forms DFP streams,
/// overflows the EPC (evictions), and — with the plan below — drives SIP.
trace::Trace mixed_trace(std::uint64_t seed = 4) {
  trace::Trace t("mixed", 4'096);
  Rng rng(seed);
  const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 512}, 1, gap);
  trace::random_access(t, rng, trace::Region{600, 3'000}, 600, 10, 4, gap);
  return t;
}

sip::InstrumentationPlan irregular_sites() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 14; ++s) {
    plan.add_site(s);
  }
  return plan;
}

SimConfig small_config(Scheme scheme, PageNum epc = 96) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.enclave.epc_pages = epc;
  cfg.dfp.predictor.stream_list_len = 8;
  cfg.dfp.predictor.load_length = 4;
  cfg.validate = true;
  return cfg;
}

core::Metrics run_uninterrupted(const SimConfig& cfg, const trace::Trace& t,
                                const sip::InstrumentationPlan* plan) {
  SimulationRun run(cfg, t, plan);
  return run.run_to_end();
}

/// Step a victim run to `cut`, snapshot it, destroy it (the "kill"), then
/// restore the snapshot into a fresh run and finish that one.
core::Metrics run_killed_at(const SimConfig& cfg, const trace::Trace& t,
                            const sip::InstrumentationPlan* plan,
                            std::uint64_t cut) {
  std::vector<std::uint8_t> snap;
  {
    SimulationRun victim(cfg, t, plan);
    while (!victim.done() && victim.cursor() < cut) {
      victim.step();
    }
    snap = victim.save_bytes();
  }
  SimulationRun resumed(cfg, t, plan);
  resumed.load_bytes(snap);
  return resumed.run_to_end();
}

void expect_bit_identical(const core::Metrics& want, const core::Metrics& got,
                          const std::string& context) {
  const auto d = snapshot::diff_metrics(want, got);
  EXPECT_TRUE(d.identical) << context << ": " << d.first_divergence;
  EXPECT_EQ(want.total_cycles, got.total_cycles) << context;
}

TEST(KillRestore, BitIdenticalForEverySchemeAndCutPoint) {
  const auto t = mixed_trace();
  const auto plan = irregular_sites();
  const std::uint64_t n = t.size();
  for (const Scheme scheme :
       {Scheme::kBaseline, Scheme::kDfpStop, Scheme::kHybrid}) {
    const auto cfg = small_config(scheme);
    const auto want = run_uninterrupted(cfg, t, &plan);
    for (const std::uint64_t cut :
         {std::uint64_t{0}, std::uint64_t{1}, n / 3, n / 2, n - 1}) {
      const auto got = run_killed_at(cfg, t, &plan, cut);
      expect_bit_identical(want, got,
                           std::string(to_string(scheme)) + " cut=" +
                               std::to_string(cut));
    }
  }
}

TEST(KillRestore, BitIdenticalUnderEveryChaosClass) {
  const auto t = mixed_trace();
  const std::uint64_t n = t.size();
  for (const inject::FaultKind k : inject::all_fault_kinds()) {
    auto cfg = small_config(Scheme::kDfpStop);
    cfg.chaos.seed = 99;
    cfg.chaos.enable(k);
    const auto want = run_uninterrupted(cfg, t, nullptr);
    const auto got = run_killed_at(cfg, t, nullptr, n / 2);
    expect_bit_identical(want, got, to_string(k));
  }
}

TEST(KillRestore, AllFaultClassesAtOnceUnderHybrid) {
  const auto t = mixed_trace();
  const auto plan = irregular_sites();
  auto cfg = small_config(Scheme::kHybrid);
  cfg.chaos = inject::ChaosPlan::all(1234);
  const auto want = run_uninterrupted(cfg, t, &plan);
  const std::uint64_t n = t.size();
  for (const std::uint64_t cut : {std::uint64_t{1}, n / 3, n - 1}) {
    expect_bit_identical(want, run_killed_at(cfg, t, &plan, cut),
                         "chaos cut=" + std::to_string(cut));
  }
}

TEST(KillRestore, EveryCutPointOnASmallDfpRun) {
  // Exhaustive cut sweep: catches in-flight channel ops, mid-preload-batch
  // and scan-cursor states that coarse cut points could step over.
  trace::Trace t("small", 512);
  Rng rng(7);
  trace::seq_scan(t, rng, trace::Region{0, 256}, 1,
                  trace::GapModel{.mean = 2'000, .jitter_pct = 0});
  const auto cfg = small_config(Scheme::kDfpStop, 32);
  const auto want = run_uninterrupted(cfg, t, nullptr);
  for (std::uint64_t cut = 0; cut <= t.size(); ++cut) {
    const auto got = run_killed_at(cfg, t, nullptr, cut);
    const auto d = snapshot::diff_metrics(want, got);
    ASSERT_TRUE(d.identical) << "cut=" << cut << ": " << d.first_divergence;
  }
}

TEST(KillRestore, ResumedRunStateMatchesTheVictimExactly) {
  // Not just the final metrics: the restored run's complete serialized state
  // matches the victim's, and the two stay in lockstep stepping forward.
  const auto t = mixed_trace();
  const auto cfg = small_config(Scheme::kDfpStop);
  SimulationRun a(cfg, t, nullptr);
  while (!a.done() && a.cursor() < t.size() / 2) {
    a.step();
  }
  SimulationRun b(cfg, t, nullptr);
  b.load_bytes(a.save_bytes());
  const auto d = snapshot::diff_runs(a, b);
  EXPECT_TRUE(d.identical) << d.first_divergence;
  for (int i = 0; i < 200 && !a.done(); ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.cursor(), b.cursor());
  EXPECT_EQ(a.now(), b.now());
  const auto d2 = snapshot::diff_runs(a, b);
  EXPECT_TRUE(d2.identical) << d2.first_divergence;
}

TEST(KillRestore, RestoreIsRefusedForADifferentRun) {
  const auto t = mixed_trace();
  const auto cfg = small_config(Scheme::kDfpStop);
  SimulationRun victim(cfg, t, nullptr);
  while (victim.cursor() < 64) {
    victim.step();
  }
  const auto snap = victim.save_bytes();
  {
    SimulationRun other(small_config(Scheme::kBaseline), t, nullptr);
    EXPECT_FALSE(other.restore_if_compatible(snap));
    EXPECT_EQ(other.cursor(), 0u);  // left untouched
    try {
      other.load_bytes(snap);
      FAIL() << "cross-scheme restore accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("scheme"), std::string::npos)
          << e.what();
    }
  }
  {
    SimulationRun other(small_config(Scheme::kDfpStop, 48), t, nullptr);
    EXPECT_FALSE(other.restore_if_compatible(snap));  // EPC geometry differs
  }
  {
    auto chaotic = cfg;
    chaotic.chaos = inject::ChaosPlan::all(5);
    SimulationRun other(chaotic, t, nullptr);
    EXPECT_FALSE(other.restore_if_compatible(snap));  // chaos plan differs
  }
  {
    SimulationRun same(cfg, t, nullptr);
    EXPECT_TRUE(same.restore_if_compatible(snap));
    EXPECT_EQ(same.cursor(), 64u);
  }
}

TEST(KillRestore, CorruptSnapshotsAreRejectedNotApplied) {
  const auto t = mixed_trace();
  const auto cfg = small_config(Scheme::kDfpStop);
  SimulationRun victim(cfg, t, nullptr);
  while (victim.cursor() < 100) {
    victim.step();
  }
  const auto snap = victim.save_bytes();
  auto flipped = snap;
  flipped[flipped.size() - 3] ^= 0x40;  // payload bit flip -> CRC mismatch
  SimulationRun fresh(cfg, t, nullptr);
  EXPECT_THROW(fresh.load_bytes(flipped), CheckFailure);
  auto truncated = snap;
  truncated.resize(truncated.size() / 2);
  SimulationRun fresh2(cfg, t, nullptr);
  EXPECT_THROW(fresh2.load_bytes(truncated), CheckFailure);
  // Corrupt is not "a different run": the gated restore throws too.
  SimulationRun fresh3(cfg, t, nullptr);
  EXPECT_THROW(fresh3.restore_if_compatible(truncated), CheckFailure);
}

TEST(KillRestore, NativeSchemeIsNotSteppable) {
  const auto t = mixed_trace();
  EXPECT_THROW(SimulationRun(small_config(Scheme::kNative), t, nullptr),
               CheckFailure);
}

TEST(KillRestore, CaptureToFileRoundTrips) {
  const auto t = mixed_trace();
  const auto cfg = small_config(Scheme::kDfpStop);
  SimulationRun victim(cfg, t, nullptr);
  while (victim.cursor() < 200) {
    victim.step();
  }
  const std::string path = testing::TempDir() + "sgxpl-capture.snap";
  snapshot::write_file_atomic(path, victim.save_bytes());
  SimulationRun fresh(cfg, t, nullptr);
  ASSERT_TRUE(snapshot::restore_chain_from_files(fresh, path));
  EXPECT_EQ(fresh.cursor(), 200u);
  const auto d = snapshot::diff_runs(victim, fresh);
  EXPECT_TRUE(d.identical) << d.first_divergence;
  std::remove(path.c_str());
}

TEST(KillRestore, RestoreFromAbsentFileReturnsFalse) {
  const auto t = mixed_trace();
  SimulationRun run(small_config(Scheme::kBaseline), t, nullptr);
  EXPECT_FALSE(snapshot::restore_chain_from_files(
      run, testing::TempDir() + "no-such-snapshot.snap"));
  EXPECT_EQ(run.cursor(), 0u);
}

TEST(KillRestore, FileCheckpointResumeMatchesUninterrupted) {
  // The bench-facing path: SimConfig::checkpoint drives periodic snapshot
  // writes, and resume_path picks the run back up from the last one.
  const auto t = mixed_trace();
  const auto cfg = small_config(Scheme::kDfpStop);
  const auto want = core::simulate(t, cfg);
  const std::string path = testing::TempDir() + "sgxpl-recovery-ck.snap";
  std::remove(path.c_str());
  auto writing = cfg;
  writing.checkpoint.path = path;
  writing.checkpoint.every_accesses = 97;
  const auto wrote = core::simulate(t, writing);
  expect_bit_identical(want, wrote, "checkpointing must not perturb the run");
  ASSERT_TRUE(snapshot::file_readable(path));
  auto resuming = cfg;
  resuming.checkpoint.resume_path = path;
  const auto resumed = core::simulate(t, resuming);
  expect_bit_identical(want, resumed, "resume from last on-disk snapshot");
  std::remove(path.c_str());
}

TEST(KillRestore, ForeignOrAbsentResumeFileStartsTheRunFresh) {
  // Benches that simulate several schemes share one --checkpoint file, so
  // every run but the snapshotted one sees a foreign snapshot on --resume.
  // simulate() must skip it (meta-gated) and run from the start, not abort.
  const auto t = mixed_trace();
  const auto want = core::simulate(t, small_config(Scheme::kBaseline));
  const std::string path = testing::TempDir() + "sgxpl-foreign-ck.snap";
  std::remove(path.c_str());
  {
    SimulationRun other(small_config(Scheme::kDfpStop), t, nullptr);
    for (int i = 0; i < 64; ++i) {
      other.step();
    }
    snapshot::write_file_atomic(path, other.save_bytes());
  }
  auto resuming = small_config(Scheme::kBaseline);
  resuming.checkpoint.resume_path = path;
  const auto got = core::simulate(t, resuming);
  expect_bit_identical(want, got, "foreign snapshot must be skipped");
  auto absent = small_config(Scheme::kBaseline);
  absent.checkpoint.resume_path = testing::TempDir() + "never-written.snap";
  const auto fresh = core::simulate(t, absent);
  expect_bit_identical(want, fresh, "absent resume file must be skipped");
  // Corruption is still an error, not a silent fresh start.
  auto bytes = snapshot::read_file(path);
  bytes[bytes.size() / 2] ^= 0x10;
  snapshot::write_file_atomic(path, bytes);
  auto corrupt = small_config(Scheme::kDfpStop);
  corrupt.checkpoint.resume_path = path;
  EXPECT_THROW(core::simulate(t, corrupt), CheckFailure);
  std::remove(path.c_str());
}

TEST(KillRestore, HardenedPagingPathResumesBitIdentically) {
  // The overload-hardened path carries extra live state across a kill:
  // lost-op retry queue, the retry-jitter Rng cursor, the completed-op-id
  // ring, per-tenant admission windows and ladder levels, and the bounded
  // channel's shed counters. Under drop+dup chaos all of it is exercised;
  // the resumed run must still finish bit-identical to the uninterrupted
  // one at every cut point.
  const auto t = mixed_trace();
  auto cfg = small_config(Scheme::kDfpStop);
  cfg.chaos.seed = 77;
  cfg.chaos.enable(inject::FaultKind::kDropCompletion);
  cfg.chaos.enable(inject::FaultKind::kDupCompletion);
  cfg.enclave.channel.max_queued = 12;
  cfg.enclave.channel.max_retries = 3;
  cfg.enclave.admission.enabled = true;
  const auto want = run_uninterrupted(cfg, t, nullptr);
  // The chaos plan really fed the retry machinery; otherwise this test
  // degenerates to the plain chaos sweep above.
  EXPECT_GT(want.driver.lost_completions + want.driver.duplicate_completions,
            0u);
  const std::uint64_t n = t.size();
  for (const std::uint64_t cut : {std::uint64_t{1}, n / 3, n / 2, n - 1}) {
    const auto got = run_killed_at(cfg, t, nullptr, cut);
    expect_bit_identical(want, got, "hardened cut=" + std::to_string(cut));
    EXPECT_EQ(want.driver.lost_completions, got.driver.lost_completions);
    EXPECT_EQ(want.driver.retries, got.driver.retries);
    EXPECT_EQ(want.driver.retries_resolved, got.driver.retries_resolved);
    EXPECT_EQ(want.driver.permanent_faults, got.driver.permanent_faults);
    EXPECT_EQ(want.driver.duplicate_completions,
              got.driver.duplicate_completions);
    EXPECT_EQ(want.driver.preloads_shed, got.driver.preloads_shed);
    EXPECT_EQ(want.driver.degrade_demotions, got.driver.degrade_demotions);
    EXPECT_EQ(want.driver.degrade_promotions, got.driver.degrade_promotions);
  }
}

TEST(KillRestore, HardenedConfigRefusesSeedSnapshots) {
  // Channel hardening is part of the snapshot contract: a snapshot taken
  // with the seed (unbounded, no-retry) channel must not restore into a
  // hardened run, whose extra state would silently start from zero.
  const auto t = mixed_trace();
  const auto cfg = small_config(Scheme::kDfpStop);
  SimulationRun victim(cfg, t, nullptr);
  while (victim.cursor() < 64) {
    victim.step();
  }
  const auto snap = victim.save_bytes();
  auto hardened = cfg;
  hardened.enclave.channel.max_queued = 12;
  hardened.enclave.channel.max_retries = 3;
  SimulationRun other(hardened, t, nullptr);
  EXPECT_FALSE(other.restore_if_compatible(snap));
  EXPECT_EQ(other.cursor(), 0u);
}

TEST(KillRestore, MultiEnclaveResumesBitIdentically) {
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto cfg = small_config(Scheme::kBaseline, 128);
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  core::MultiEnclaveRun ref(cfg, apps);
  const auto want = ref.run_to_end();
  std::vector<std::uint8_t> snap;
  {
    core::MultiEnclaveRun victim(cfg, apps);
    const std::uint64_t cut = (ta.size() + tb.size()) / 2;
    while (!victim.done() && victim.steps() < cut) {
      victim.step();
    }
    snap = victim.save_bytes();
  }
  core::MultiEnclaveRun resumed(cfg, apps);
  resumed.load_bytes(snap);
  const auto got = resumed.run_to_end();
  EXPECT_EQ(want.makespan, got.makespan);
  ASSERT_EQ(want.per_enclave.size(), got.per_enclave.size());
  for (std::size_t i = 0; i < want.per_enclave.size(); ++i) {
    const auto d =
        snapshot::diff_metrics(want.per_enclave[i], got.per_enclave[i]);
    EXPECT_TRUE(d.identical) << "enclave " << i << ": " << d.first_divergence;
  }
  EXPECT_EQ(want.driver.faults, got.driver.faults);
  EXPECT_EQ(want.driver.evictions, got.driver.evictions);
}

TEST(KillRestore, MultiEnclaveRefusesForeignSnapshots) {
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto cfg = small_config(Scheme::kBaseline, 128);
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  core::MultiEnclaveRun victim(cfg, apps);
  for (int i = 0; i < 100; ++i) {
    victim.step();
  }
  const auto snap = victim.save_bytes();
  // A single-enclave run must refuse a multi-enclave snapshot (and say why).
  SimulationRun single(small_config(Scheme::kDfpStop), ta, nullptr);
  EXPECT_FALSE(single.restore_if_compatible(snap));
  // A differently composed multi run must refuse it too.
  const std::vector<core::EnclaveApp> swapped = {
      {.trace = &ta, .scheme = Scheme::kBaseline},
      {.trace = &tb, .scheme = Scheme::kDfpStop},
  };
  core::MultiEnclaveRun other(cfg, swapped);
  EXPECT_FALSE(other.restore_if_compatible(snap));
}

TEST(KillRestore, ElasticMultiEnclaveResumesBitIdenticallyAtEveryCut) {
  // A long pressured tenant next to a short one that finishes early and
  // goes idle: the elastic controller shrinks the idle tenant and grows the
  // pressured one, so the cuts below land in the middle of live resizes —
  // quotas, window evidence, cooldowns and the grant cursor all in flight.
  const auto ta = mixed_trace(4);
  trace::Trace tb("short", 4'096);
  {
    Rng rng(5);
    trace::seq_scan(tb, rng, trace::Region{0, 192}, 1,
                    trace::GapModel{.mean = 2'000, .jitter_pct = 0});
  }
  auto cfg = small_config(Scheme::kBaseline, 128);
  cfg.enclave.elastic.enabled = true;
  cfg.enclave.elastic.floor_pages = 8;
  cfg.enclave.elastic.grow_streak = 1;
  cfg.enclave.elastic.idle_windows = 2;
  cfg.enclave.elastic.cooldown_windows = 2;
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  core::MultiEnclaveRun ref(cfg, apps);
  const auto want = ref.run_to_end();
  // The controller really moved quotas in this run; otherwise the sweep
  // degenerates to the static multi-enclave test above.
  EXPECT_GT(want.elastic.grows + want.elastic.shrinks, 0u);
  const std::uint64_t n = ta.size() + tb.size();
  for (const std::uint64_t cut : {std::uint64_t{1}, n / 4, n / 2, n - 1}) {
    std::vector<std::uint8_t> snap;
    {
      core::MultiEnclaveRun victim(cfg, apps);
      while (!victim.done() && victim.steps() < cut) {
        victim.step();
      }
      snap = victim.save_bytes();
    }
    core::MultiEnclaveRun resumed(cfg, apps);
    resumed.load_bytes(snap);
    const auto got = resumed.run_to_end();
    EXPECT_EQ(want.makespan, got.makespan) << "cut=" << cut;
    ASSERT_EQ(want.per_enclave.size(), got.per_enclave.size());
    for (std::size_t i = 0; i < want.per_enclave.size(); ++i) {
      const auto d =
          snapshot::diff_metrics(want.per_enclave[i], got.per_enclave[i]);
      EXPECT_TRUE(d.identical)
          << "cut=" << cut << " enclave " << i << ": " << d.first_divergence;
    }
    EXPECT_EQ(want.elastic_quotas, got.elastic_quotas) << "cut=" << cut;
    EXPECT_EQ(want.elastic.grows, got.elastic.grows) << "cut=" << cut;
    EXPECT_EQ(want.elastic.shrinks, got.elastic.shrinks) << "cut=" << cut;
    EXPECT_EQ(want.elastic.quota_evictions, got.elastic.quota_evictions)
        << "cut=" << cut;
    EXPECT_EQ(want.driver.evictions, got.driver.evictions) << "cut=" << cut;
  }
}

TEST(KillRestore, ElasticConfigAndPlainConfigRefuseEachOthersSnapshots) {
  // The elastic geometry is part of the snapshot identity (overload spec):
  // a plain snapshot must not restore into an elastic run — whose quota
  // state would silently start from the initial split — and vice versa.
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto plain_cfg = small_config(Scheme::kBaseline, 128);
  auto elastic_cfg = plain_cfg;
  elastic_cfg.enclave.elastic.enabled = true;
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  const auto snapshot_of = [&apps](const SimConfig& cfg) {
    core::MultiEnclaveRun run(cfg, apps);
    for (int i = 0; i < 200; ++i) {
      run.step();
    }
    return run.save_bytes();
  };
  const auto plain_snap = snapshot_of(plain_cfg);
  core::MultiEnclaveRun elastic_run(elastic_cfg, apps);
  EXPECT_FALSE(elastic_run.restore_if_compatible(plain_snap));
  const auto elastic_snap = snapshot_of(elastic_cfg);
  core::MultiEnclaveRun plain_run(plain_cfg, apps);
  EXPECT_FALSE(plain_run.restore_if_compatible(elastic_snap));
}

// --- the co-run's file checkpoint loop ---------------------------------------

std::vector<core::EnclaveApp> two_tenants(const trace::Trace& ta,
                                          const trace::Trace& tb) {
  return {{.trace = &ta, .scheme = Scheme::kDfpStop},
          {.trace = &tb, .scheme = Scheme::kBaseline}};
}

void expect_same_corun(const core::MultiEnclaveResult& want,
                       const core::MultiEnclaveResult& got,
                       const std::string& context) {
  EXPECT_EQ(want.makespan, got.makespan) << context;
  ASSERT_EQ(want.per_enclave.size(), got.per_enclave.size()) << context;
  for (std::size_t i = 0; i < want.per_enclave.size(); ++i) {
    const auto d =
        snapshot::diff_metrics(want.per_enclave[i], got.per_enclave[i]);
    EXPECT_TRUE(d.identical)
        << context << ", enclave " << i << ": " << d.first_divergence;
  }
  EXPECT_EQ(want.driver.faults, got.driver.faults) << context;
  EXPECT_EQ(want.driver.evictions, got.driver.evictions) << context;
}

TEST(KillRestore, CoRunFileCheckpointChainResumeMatchesUninterrupted) {
  // MultiEnclaveSimulator::run drives the same file loop as simulate():
  // with full_every > 1 the chain's deltas land beside the base, and a
  // resume replays base + deltas before finishing.
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto apps = two_tenants(ta, tb);
  const auto cfg = small_config(Scheme::kBaseline, 128);
  const auto want = core::MultiEnclaveSimulator(cfg).run(apps);
  const std::string path = testing::TempDir() + "sgxpl-corun-ck.snap";
  std::remove(path.c_str());
  snapshot::remove_stale_deltas(path);
  auto writing = cfg;
  writing.checkpoint.path = path;
  writing.checkpoint.every_accesses = 97;
  writing.checkpoint.full_every = 4;
  expect_same_corun(want, core::MultiEnclaveSimulator(writing).run(apps),
                    "checkpointing must not perturb the co-run");
  ASSERT_TRUE(snapshot::file_readable(path));
  ASSERT_TRUE(snapshot::file_readable(snapshot::delta_path(path, 1)))
      << "the cadence left no delta on disk; the chain path went untested";
  auto resuming = cfg;
  resuming.checkpoint.resume_path = path;
  expect_same_corun(want, core::MultiEnclaveSimulator(resuming).run(apps),
                    "resume from the on-disk chain");
  // The resume really started mid-run: the chain's base is past cursor 0.
  core::MultiEnclaveRun probe(cfg, apps);
  ASSERT_TRUE(snapshot::restore_chain_from_files(probe, path));
  EXPECT_GT(probe.steps(), 0u);
  // A corrupt delta is an error, not a silent fresh start.
  const std::string delta = snapshot::delta_path(path, 1);
  auto bytes = snapshot::read_file(delta);
  bytes[bytes.size() / 2] ^= 0x10;
  snapshot::write_file_atomic(delta, bytes);
  EXPECT_THROW(core::MultiEnclaveSimulator(resuming).run(apps), CheckFailure);
  std::remove(path.c_str());
  snapshot::remove_stale_deltas(path);
}

TEST(KillRestore, CoRunForeignOrCorruptResumeFile) {
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto apps = two_tenants(ta, tb);
  const auto cfg = small_config(Scheme::kBaseline, 128);
  const auto want = core::MultiEnclaveSimulator(cfg).run(apps);
  const std::string path = testing::TempDir() + "sgxpl-corun-foreign.snap";
  // Same traces, schemes swapped between the tenants: a foreign co-run.
  const std::vector<core::EnclaveApp> swapped = {
      {.trace = &ta, .scheme = Scheme::kBaseline},
      {.trace = &tb, .scheme = Scheme::kDfpStop}};
  {
    core::MultiEnclaveRun other(cfg, swapped);
    for (int i = 0; i < 100; ++i) {
      other.step();
    }
    snapshot::write_file_atomic(path, other.save_bytes());
  }
  auto resuming = cfg;
  resuming.checkpoint.resume_path = path;
  expect_same_corun(want, core::MultiEnclaveSimulator(resuming).run(apps),
                    "foreign snapshot must be skipped");
  // Corruption is still an error for the run the file belongs to.
  auto bytes = snapshot::read_file(path);
  bytes[bytes.size() / 2] ^= 0x10;
  snapshot::write_file_atomic(path, bytes);
  EXPECT_THROW(core::MultiEnclaveSimulator(resuming).run(swapped),
               CheckFailure);
  std::remove(path.c_str());
}

// --- one refusal battery over both engines -----------------------------------

/// A solo run of the recovery trace; make(scheme) builds a fresh one.
struct SoloRig {
  using Run = SimulationRun;
  trace::Trace t = mixed_trace();
  std::unique_ptr<Run> make(Scheme scheme) const {
    return std::make_unique<Run>(small_config(scheme), t, nullptr);
  }
};

/// A two-tenant co-run; `scheme` is tenant 0's.
struct CoRunRig {
  using Run = core::MultiEnclaveRun;
  trace::Trace ta = mixed_trace(4);
  trace::Trace tb = mixed_trace(5);
  std::unique_ptr<Run> make(Scheme scheme) const {
    const std::vector<core::EnclaveApp> apps = {
        {.trace = &ta, .scheme = scheme},
        {.trace = &tb, .scheme = Scheme::kBaseline}};
    return std::make_unique<Run>(small_config(Scheme::kBaseline, 128), apps);
  }
};

template <class Rig>
class FrameRefusal : public testing::Test {
 protected:
  using Run = typename Rig::Run;

  /// A run of the rig's default identity, stepped `n` accesses.
  std::unique_ptr<Run> stepped(int n, Scheme scheme = Scheme::kDfpStop) {
    auto run = rig_.make(scheme);
    for (int i = 0; i < n; ++i) {
      run->step();
    }
    return run;
  }

  Rig rig_;
};

using Engines = testing::Types<SoloRig, CoRunRig>;
TYPED_TEST_SUITE(FrameRefusal, Engines);

template <class Fn>
void expect_refused(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "accepted a frame that should be refused (" << needle
                  << ")";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TYPED_TEST(FrameRefusal, BareDeltaIsRefusedByLoadBytes) {
  auto victim = this->stepped(64);
  snapshot::Snapshotter<typename TypeParam::Run> snap(4);
  (void)snap.checkpoint(*victim);
  for (int i = 0; i < 64; ++i) {
    victim->step();
  }
  const snapshot::ChainFrame delta = snap.checkpoint(*victim);
  ASSERT_EQ(delta.header.kind, snapshot::FrameKind::kDelta);
  auto fresh = this->stepped(0);
  const auto before = fresh->save_bytes();
  expect_refused([&] { fresh->load_bytes(delta.bytes); },
                 "cannot be restored on its own");
  EXPECT_EQ(fresh->save_bytes(), before);
}

TYPED_TEST(FrameRefusal, FullFrameIsRefusedByApplyDeltaBytes) {
  const auto full = this->stepped(64)->save_bytes();
  auto fresh = this->stepped(0);
  const auto before = fresh->save_bytes();
  expect_refused([&] { fresh->apply_delta_bytes(full); },
                 "apply_delta_bytes() on a full frame");
  EXPECT_EQ(fresh->save_bytes(), before);
}

TYPED_TEST(FrameRefusal, ForeignMetaIsSkippedAndLeavesTheRunUntouched) {
  const auto snap = this->stepped(64)->save_bytes();
  auto other = this->stepped(32, Scheme::kBaseline);
  const auto before = other->save_bytes();
  EXPECT_FALSE(other->restore_if_compatible(snap));
  EXPECT_EQ(other->save_bytes(), before);
  // The strict path refuses the same frame and names the mismatch.
  expect_refused([&] { other->load_bytes(snap); }, "does not match this run");
}

TYPED_TEST(FrameRefusal, SurplusSectionIsRefused) {
  auto victim = this->stepped(64);
  snapshot::Writer w;
  victim->save(w);
  w.begin_section("XTRA");
  w.u64("surplus", 1);
  w.end_section();
  const auto bytes = w.finish();
  auto fresh = this->stepped(0);
  expect_refused([&] { fresh->load_bytes(bytes); },
                 "sections but this run consumes");
  // The well-formed frame still restores.
  fresh->load_bytes(victim->save_bytes());
  EXPECT_EQ(fresh->save_bytes(), victim->save_bytes());
}

// --- per-enclave extraction -------------------------------------------------

TEST(Extraction, ExtractedTenantMatchesItsInSituState) {
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto cfg = small_config(Scheme::kBaseline, 128);
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  core::MultiEnclaveRun run(cfg, apps);
  while (!run.done() && run.steps() < (ta.size() + tb.size()) / 2) {
    run.step();
  }
  const auto bytes = run.save_bytes();
  for (std::size_t i = 0; i < run.enclave_count(); ++i) {
    const auto frame = snapshot::extract_enclave(bytes, i);
    const snapshot::ExtractedEnclave e = snapshot::read_extracted(frame);
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.scheme, core::to_string(apps[i].scheme));
    EXPECT_EQ(e.trace, apps[i].trace->name());
    EXPECT_EQ(e.has_dfp, apps[i].scheme == Scheme::kDfpStop);
    EXPECT_EQ(e.cursor, run.tenant_cursor(i));
    const auto d = snapshot::diff_metrics(e.metrics, run.tenant_metrics(i));
    EXPECT_TRUE(d.identical) << "enclave " << i << ": " << d.first_divergence;
    // Writer determinism: extracting the same tenant twice is byte-stable.
    EXPECT_EQ(frame, snapshot::extract_enclave(bytes, i));
  }
}

TEST(Extraction, NonExistentEnclaveIdIsRefused) {
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const auto cfg = small_config(Scheme::kBaseline, 128);
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  core::MultiEnclaveRun run(cfg, apps);
  for (int i = 0; i < 50; ++i) {
    run.step();
  }
  const auto bytes = run.save_bytes();
  try {
    snapshot::extract_enclave(bytes, 99);
    FAIL() << "extraction of a non-existent enclave accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no enclave 99"), std::string::npos) << what;
    EXPECT_NE(what.find("2 enclaves"), std::string::npos) << what;
  }
  // The tenant state must also refuse to restore into the wrong slot: a
  // run composed differently rejects the whole frame at the meta gate.
  const std::vector<core::EnclaveApp> swapped = {
      {.trace = &ta, .scheme = Scheme::kBaseline},
      {.trace = &tb, .scheme = Scheme::kDfpStop},
  };
  core::MultiEnclaveRun other(cfg, swapped);
  EXPECT_FALSE(other.restore_if_compatible(bytes));
}

TEST(Extraction, RefusesFramesThatHoldNoTenantSections) {
  const auto t = mixed_trace();
  SimulationRun single(small_config(Scheme::kDfpStop), t, nullptr);
  for (int i = 0; i < 50; ++i) {
    single.step();
  }
  // A single-enclave frame has no per-enclave sections to lift.
  EXPECT_THROW(snapshot::extract_enclave(single.save_bytes(), 0),
               CheckFailure);

  // A delta frame only carries what changed — extraction needs a full base.
  const auto ta = mixed_trace(4);
  const auto tb = mixed_trace(5);
  const std::vector<core::EnclaveApp> apps = {
      {.trace = &ta, .scheme = Scheme::kDfpStop},
      {.trace = &tb, .scheme = Scheme::kBaseline},
  };
  core::MultiEnclaveRun multi(small_config(Scheme::kBaseline, 128), apps);
  snapshot::Snapshotter<core::MultiEnclaveRun> snap(/*full_every=*/4);
  for (int i = 0; i < 50; ++i) {
    multi.step();
  }
  (void)snap.checkpoint(multi);  // full base
  for (int i = 0; i < 50; ++i) {
    multi.step();
  }
  const auto delta = snap.checkpoint(multi);
  ASSERT_EQ(delta.header.kind, snapshot::FrameKind::kDelta);
  EXPECT_THROW(snapshot::extract_enclave(delta.bytes, 0), CheckFailure);
}

}  // namespace
}  // namespace sgxpl
