// Fleet supervisor: crash-at-every-cut recovery differential, checkpoint
// policies, evacuation/backoff/quarantine, the conservation ledger, and the
// supervisor manifest. The golden multi-enclave recipe (tests/golden_recipe.h)
// supplies the workload so every run here is deterministic.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "fleet/supervisor.h"
#include "golden_recipe.h"
#include "inject/fleet_chaos.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "snapshot/chain.h"

namespace sgxpl {
namespace {

using fleet::CheckpointMode;
using fleet::CheckpointPolicy;
using fleet::CrashIncident;
using fleet::EvacuationOutcome;
using fleet::FleetLedger;
using fleet::FleetReport;
using fleet::FleetSupervisor;
using fleet::HostState;
using fleet::SupervisorPolicy;

/// A supervisor policy sized for the 512-step golden multi workload:
/// single-step epochs (cut-exact crash placement) and a tight fixed
/// checkpoint cadence.
SupervisorPolicy cut_policy(std::uint64_t fixed_every = 16) {
  SupervisorPolicy p;
  p.epoch_steps = 1;
  p.checkpoint.mode = CheckpointMode::kFixed;
  p.checkpoint.fixed_every = fixed_every;
  p.checkpoint.full_every = 4;
  return p;
}

inject::HostCrashPlan no_chaos() { return inject::HostCrashPlan{}; }

/// The fleet-less reference: the same apps stepped to `steps` on a bare
/// MultiEnclaveRun (what the supervised host must be bit-identical to).
std::vector<std::uint8_t> reference_bytes(const trace::Trace& a,
                                          const trace::Trace& b,
                                          std::uint64_t steps) {
  core::MultiEnclaveRun ref(golden::multi_config(), golden::multi_apps(a, b));
  while (!ref.done() && ref.steps() < steps) {
    ref.step();
  }
  return ref.save_bytes();
}

// --- spec round-trips -------------------------------------------------------

TEST(CheckpointPolicy, ParseRoundTripsEveryMode) {
  for (const char* spec :
       {"fixed:2048:full8", "dirty:65536:full8", "rpo:4000000:full8",
        "fixed:1:full1", "dirty:512:full4"}) {
    std::string err;
    const auto p = CheckpointPolicy::parse(spec, &err);
    ASSERT_TRUE(p.has_value()) << err;
    EXPECT_EQ(p->spec(), spec);
  }
  // The chain-length field is optional on input, canonical on output.
  const auto p = CheckpointPolicy::parse("fixed:128");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->fixed_every, 128u);
  EXPECT_EQ(p->full_every, 8u);
  EXPECT_EQ(p->spec(), "fixed:128:full8");
  EXPECT_EQ(CheckpointPolicy{}.spec(), "fixed:2048:full8");
}

TEST(CheckpointPolicy, ParseRejectsMalformedSpecsWithTypedErrors) {
  const struct {
    const char* spec;
    const char* needle;
  } kBad[] = {
      {"hourly:10", "unknown checkpoint mode"},
      {"fixed", "missing its value"},
      {"fixed:zero", "bad checkpoint value"},
      {"fixed:0", "bad checkpoint value"},
      {"fixed:16:full0", "bad chain-length field"},
      {"fixed:16:deltas4", "bad chain-length field"},
      {"fixed:16:full4:extra", "too many ':' fields"},
  };
  for (const auto& c : kBad) {
    std::string err;
    EXPECT_FALSE(CheckpointPolicy::parse(c.spec, &err).has_value()) << c.spec;
    EXPECT_NE(err.find(c.needle), std::string::npos)
        << c.spec << " -> " << err;
  }
}

TEST(CheckpointPolicy, ParseRefusesSignsSpacesAndWrappedValues) {
  // A strtoull parse reads "-1" as 2^64-1 and skips a leading space; every
  // value goes through the one strict unsigned parse instead.
  const struct {
    const char* spec;
    const char* want;
  } kBad[] = {
      {"fixed:-1", "bad checkpoint value '-1' (want a positive integer)"},
      {"fixed: 5", "bad checkpoint value ' 5' (want a positive integer)"},
      {"dirty:+4", "bad checkpoint value '+4' (want a positive integer)"},
      {"rpo:18446744073709551616",
       "bad checkpoint value '18446744073709551616' (want a positive "
       "integer)"},
      {"fixed:16:full-1",
       "bad chain-length field 'full-1' (want fullN with N >= 1)"},
      {"fixed:16:full 2",
       "bad chain-length field 'full 2' (want fullN with N >= 1)"},
  };
  for (const auto& c : kBad) {
    std::string err;
    EXPECT_FALSE(CheckpointPolicy::parse(c.spec, &err).has_value()) << c.spec;
    EXPECT_EQ(err, c.want) << c.spec;
  }
  const auto hex = CheckpointPolicy::parse("fixed:0x800:full8");
  ASSERT_TRUE(hex.has_value());
  EXPECT_EQ(hex->fixed_every, 2048u);
}

TEST(HostCrashPlan, ParseRoundTripsAndRejects) {
  std::string err;
  auto p = inject::HostCrashPlan::parse("host-crash:0.02:0.5", &err);
  ASSERT_TRUE(p.has_value()) << err;
  EXPECT_TRUE(p->any_enabled());
  EXPECT_DOUBLE_EQ(p->crash_per_epoch, 0.02);
  EXPECT_DOUBLE_EQ(p->torn_frac, 0.5);
  EXPECT_EQ(p->spec(), "host-crash:0.02:0.5");

  p = inject::HostCrashPlan::parse("host-crash", &err);
  ASSERT_TRUE(p.has_value()) << err;
  EXPECT_DOUBLE_EQ(p->crash_per_epoch, 0.01);  // default when enabled bare

  p = inject::HostCrashPlan::parse("none", &err);
  ASSERT_TRUE(p.has_value()) << err;
  EXPECT_FALSE(p->any_enabled());
  EXPECT_EQ(p->spec(), "none");

  EXPECT_FALSE(inject::HostCrashPlan::parse("host-melt:0.1", &err));
  EXPECT_NE(err.find("unknown host fault class"), std::string::npos) << err;
  EXPECT_FALSE(inject::HostCrashPlan::parse("host-crash:2.0", &err));
  EXPECT_NE(err.find("bad crash probability"), std::string::npos) << err;
  EXPECT_FALSE(inject::HostCrashPlan::parse("host-crash:0.1:0.2:9", &err));
  EXPECT_NE(err.find("too many"), std::string::npos) << err;
}

TEST(SupervisorPolicy, SpecIsEmptyForDefaultsAndNamesEveryDeviation) {
  EXPECT_EQ(SupervisorPolicy{}.spec(), "");  // the seed-identical guard
  SupervisorPolicy p;
  p.checkpoint.fixed_every = 64;
  p.epoch_steps = 32;
  p.crash_threshold = 5;
  p.migration.warm_rounds = 1;
  const std::string s = p.spec();
  EXPECT_NE(s.find("ckpt=fixed:64:full8"), std::string::npos) << s;
  EXPECT_NE(s.find("epoch=32"), std::string::npos) << s;
  EXPECT_NE(s.find("crash-threshold=5"), std::string::npos) << s;
  EXPECT_NE(s.find("mig-warm=1"), std::string::npos) << s;
}

TEST(SupervisorEnums, NamesAreStable) {
  EXPECT_STREQ(fleet::to_string(HostState::kHealthy), "healthy");
  EXPECT_STREQ(fleet::to_string(HostState::kCrashed), "crashed");
  EXPECT_STREQ(fleet::to_string(HostState::kRecovering), "recovering");
  EXPECT_STREQ(fleet::to_string(HostState::kEvacuating), "evacuating");
  EXPECT_STREQ(fleet::to_string(HostState::kRetired), "retired");
  EXPECT_STREQ(fleet::to_string(CheckpointMode::kFixed), "fixed");
  EXPECT_STREQ(fleet::to_string(CheckpointMode::kDirtyBudget), "dirty");
  EXPECT_STREQ(fleet::to_string(CheckpointMode::kRpoTarget), "rpo");
  EXPECT_STREQ(fleet::to_string(EvacuationOutcome::kMoved), "moved");
  EXPECT_STREQ(fleet::to_string(EvacuationOutcome::kRetryScheduled),
               "retry-scheduled");
  EXPECT_STREQ(fleet::to_string(EvacuationOutcome::kQuarantined),
               "quarantined");
  EXPECT_STREQ(fleet::to_string(EvacuationOutcome::kUncarvable),
               "uncarvable");
  EXPECT_STREQ(inject::to_string(inject::HostFaultKind::kHostCrash),
               "host-crash");
}

// --- supervised service mode ------------------------------------------------

TEST(Supervisor, QuietFleetFinishesEveryTenantAndBalances) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  SupervisorPolicy policy;
  policy.epoch_steps = 64;
  policy.checkpoint.fixed_every = 128;
  FleetSupervisor sup(policy, no_chaos());
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));

  const FleetReport rep = sup.run_to_completion(10'000);
  EXPECT_TRUE(sup.done());
  EXPECT_TRUE(rep.ledger.balanced());
  EXPECT_EQ(rep.ledger.tenants_total, 4u);
  EXPECT_EQ(rep.ledger.finished, 4u);
  EXPECT_EQ(rep.ledger.running, 0u);
  EXPECT_EQ(rep.ledger.crashes, 0u);
  EXPECT_GT(rep.ledger.checkpoints, 2u);  // initial bases + cadence
  EXPECT_GT(rep.makespan, 0u);
  EXPECT_EQ(sup.host_state(0), HostState::kRetired);
  EXPECT_EQ(sup.host_state(1), HostState::kRetired);
}

TEST(Supervisor, CrashAtEveryCutRecoversBitIdenticalWithExactRpo) {
  // The satellite property test: for each cut, kill the host there (torn
  // every third cut), recover, and demand (a) the post-recovery state is
  // bit-identical to an uninterrupted run at the same step count, and
  // (b) the incident's RPO equals the measured checkpoint gap.
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  constexpr std::uint64_t kCadence = 16;

  // Every cut around the first checkpoint boundaries, then a coarse sweep
  // across the rest of the combined trace.
  std::vector<std::uint64_t> cuts;
  for (std::uint64_t c = 1; c <= 34; ++c) cuts.push_back(c);
  for (std::uint64_t c = 47; c < 510; c += 13) cuts.push_back(c);

  for (const std::uint64_t cut : cuts) {
    FleetSupervisor sup(cut_policy(kCadence), no_chaos());
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    while (sup.host_run(0)->steps() < cut && !sup.done()) {
      sup.run_epoch();
    }
    const std::uint64_t at = sup.host_run(0)->steps();
    const bool torn = cut % 3 == 0;

    sup.crash_host(0, torn);
    EXPECT_EQ(sup.host_state(0), HostState::kCrashed);
    EXPECT_EQ(sup.host_run(0), nullptr);
    const CrashIncident inc = sup.recover_host(0);

    EXPECT_EQ(inc.steps_at_crash, at) << "cut " << cut;
    EXPECT_EQ(inc.torn_tail, torn);
    EXPECT_FALSE(inc.cold_start) << "cut " << cut;
    // The measured checkpoint gap: the initial base sits at step 0 and the
    // cadence fires every kCadence steps, so the last durable checkpoint
    // before the crash is the largest multiple of kCadence <= at.
    EXPECT_EQ(inc.steps_at_checkpoint, at - (at % kCadence)) << "cut " << cut;
    EXPECT_EQ(inc.rpo_steps, at % kCadence) << "cut " << cut;
    EXPECT_EQ(inc.rpo_steps, inc.steps_at_crash - inc.steps_at_checkpoint);
    EXPECT_GE(inc.rto_cycles, inc.rpo_cycles + 50'000) << "cut " << cut;
    if (torn) {
      // The torn tail was offered to salvage and dropped.
      EXPECT_GT(inc.frames_offered, inc.frames_salvaged) << "cut " << cut;
    }

    // Beyond the replayed window the recovered host is indistinguishable
    // from one that never crashed.
    ASSERT_NE(sup.host_run(0), nullptr);
    EXPECT_EQ(sup.host_run(0)->save_bytes(), reference_bytes(a, b, at))
        << "post-recovery state diverged at cut " << cut;
    const FleetLedger led = sup.ledger();
    EXPECT_TRUE(led.balanced());
    EXPECT_EQ(led.crashes, 1u);
    EXPECT_EQ(led.recoveries, 1u);
    EXPECT_EQ(led.torn_checkpoints, torn ? 1u : 0u);

    // And the fleet still finishes cleanly afterwards.
    const FleetReport rep = sup.run_to_completion(10'000);
    EXPECT_TRUE(rep.ledger.balanced());
    EXPECT_EQ(rep.ledger.finished, 2u) << "cut " << cut;
  }
}

TEST(Supervisor, TornTailBeforeFirstCadenceCheckpointReplaysFromBase) {
  // Crash torn before the cadence ever fired: the only durable frame is
  // the initial base at step 0, the torn tail is offered and dropped, and
  // the whole run so far is replayed (rpo == steps at crash).
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  FleetSupervisor sup(cut_policy(64), no_chaos());
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
  for (int i = 0; i < 10; ++i) sup.run_epoch();
  sup.crash_host(0, /*torn=*/true);
  const CrashIncident inc = sup.recover_host(0);
  EXPECT_FALSE(inc.cold_start);
  EXPECT_EQ(inc.frames_offered, inc.frames_salvaged + 1);  // the torn tail
  EXPECT_EQ(sup.host_run(0)->save_bytes(), reference_bytes(a, b, 10));
}

TEST(Supervisor, CheckpointCadenceTradesFramesForRpo) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  const auto run_with = [&](CheckpointPolicy ckpt) {
    SupervisorPolicy p;
    p.epoch_steps = 32;
    p.checkpoint = ckpt;
    FleetSupervisor sup(p, no_chaos());
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    return sup.run_to_completion(10'000).ledger;
  };
  CheckpointPolicy tight, loose;
  tight.fixed_every = 32;
  loose.fixed_every = 480;
  const FleetLedger t = run_with(tight);
  const FleetLedger l = run_with(loose);
  EXPECT_GT(t.checkpoints, l.checkpoints);

  CheckpointPolicy dirty;
  dirty.mode = CheckpointMode::kDirtyBudget;
  dirty.dirty_byte_budget = 32 * 1024;
  EXPECT_GT(run_with(dirty).checkpoints, 1u);

  CheckpointPolicy rpo;
  rpo.mode = CheckpointMode::kRpoTarget;
  rpo.rpo_target_cycles = 500'000;
  EXPECT_GT(run_with(rpo).checkpoints, 1u);
}

TEST(Supervisor, SeededHostChaosIsDeterministicAndConserved) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  inject::HostCrashPlan chaos;
  chaos.enabled = true;
  chaos.crash_per_epoch = 0.3;
  chaos.torn_frac = 0.5;
  chaos.seed = 77;
  SupervisorPolicy policy;
  policy.epoch_steps = 32;
  policy.checkpoint.fixed_every = 64;
  policy.crash_threshold = 1000;  // keep every host in place (no evacuation)

  const auto soak = [&]() {
    FleetSupervisor sup(policy, chaos);
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    return sup.run_to_completion(20'000);
  };
  const FleetReport r1 = soak();
  const FleetReport r2 = soak();

  EXPECT_GT(r1.ledger.crashes, 0u);
  EXPECT_EQ(r1.ledger.crashes, r1.ledger.recoveries);
  EXPECT_EQ(r1.ledger.cold_starts, 0u);
  EXPECT_TRUE(r1.ledger.balanced());
  EXPECT_EQ(r1.ledger.finished, 6u);  // every tenant survives the chaos

  // Same hosts + policies + seed => bit-identical incident history.
  ASSERT_EQ(r1.crash_incidents.size(), r2.crash_incidents.size());
  for (std::size_t i = 0; i < r1.crash_incidents.size(); ++i) {
    const CrashIncident& x = r1.crash_incidents[i];
    const CrashIncident& y = r2.crash_incidents[i];
    EXPECT_EQ(x.host, y.host);
    EXPECT_EQ(x.at_epoch, y.at_epoch);
    EXPECT_EQ(x.steps_at_crash, y.steps_at_crash);
    EXPECT_EQ(x.rpo_steps, y.rpo_steps);
    EXPECT_EQ(x.rpo_cycles, y.rpo_cycles);
    EXPECT_EQ(x.rto_cycles, y.rto_cycles);
    EXPECT_EQ(x.torn_tail, y.torn_tail);
  }
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.epochs, r2.epochs);
}

// --- evacuation -------------------------------------------------------------

TEST(Supervisor, RepeatedCrashesEvacuateTenantsOntoReplacementHosts) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  SupervisorPolicy policy;
  policy.epoch_steps = 16;
  policy.checkpoint.fixed_every = 64;
  policy.crash_threshold = 2;
  policy.crash_window_epochs = 64;
  policy.migration.warm_rounds = 2;
  policy.migration.round_steps = 16;
  FleetSupervisor sup(policy, no_chaos());
  // Tenant 0 (kDfpStop) sits at lo == 0 so its engine state rebases; tenant
  // 1 (baseline) carves anywhere — both evacuate cleanly.
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));

  for (int i = 0; i < 4; ++i) sup.run_epoch();
  sup.crash_host(0, false);
  sup.recover_host(0);
  for (int i = 0; i < 2; ++i) sup.run_epoch();
  sup.crash_host(0, false);
  sup.recover_host(0);
  EXPECT_EQ(sup.host_state(0), HostState::kEvacuating);

  const FleetReport rep = sup.run_to_completion(10'000);
  EXPECT_TRUE(rep.ledger.balanced());
  EXPECT_EQ(rep.ledger.evacuations_completed, 2u);
  EXPECT_EQ(rep.ledger.hosts_spawned, 2u);
  EXPECT_EQ(rep.ledger.finished, 2u);
  EXPECT_EQ(rep.ledger.quarantined, 0u);
  EXPECT_EQ(sup.host_state(0), HostState::kRetired);
  EXPECT_EQ(sup.host_count(), 3u);
  ASSERT_EQ(rep.evacuation_incidents.size(), 2u);
  for (const auto& inc : rep.evacuation_incidents) {
    EXPECT_EQ(inc.outcome, EvacuationOutcome::kMoved);
    EXPECT_EQ(inc.migration, fleet::MigrationOutcome::kCompleted);
  }
  // The two tenants kept distinct fleet-wide ids across the move.
  EXPECT_NE(rep.evacuation_incidents[0].tenant_id,
            rep.evacuation_incidents[1].tenant_id);
}

TEST(Supervisor, DeadLinkBacksOffThenQuarantinesAfterMaxAttempts) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  SupervisorPolicy policy;
  policy.epoch_steps = 16;
  policy.checkpoint.fixed_every = 64;
  policy.crash_threshold = 1;
  policy.max_evacuation_attempts = 3;
  policy.backoff_base_epochs = 2;
  policy.backoff_cap_epochs = 8;
  policy.backoff_jitter_pct = 25;
  policy.migration.link.drop = 1.0;  // every leg dies: migration never lands
  policy.migration.max_attempts = 2;
  FleetSupervisor sup(policy, no_chaos());
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));

  for (int i = 0; i < 2; ++i) sup.run_epoch();
  sup.crash_host(0, false);
  sup.recover_host(0);
  EXPECT_EQ(sup.host_state(0), HostState::kEvacuating);

  const FleetReport rep = sup.run_to_completion(10'000);
  EXPECT_TRUE(rep.ledger.balanced());
  EXPECT_EQ(rep.ledger.evacuations_completed, 0u);
  EXPECT_EQ(rep.ledger.hosts_spawned, 0u);
  EXPECT_EQ(rep.ledger.quarantined, 2u);
  EXPECT_EQ(rep.ledger.running, 0u);
  EXPECT_EQ(rep.ledger.finished, 0u);
  EXPECT_EQ(rep.ledger.evacuation_retries, 4u);  // 2 per tenant before parking

  // Per tenant: retry, retry, quarantine — with capped jittered backoff.
  ASSERT_EQ(rep.evacuation_incidents.size(), 6u);
  for (const auto& inc : rep.evacuation_incidents) {
    if (inc.outcome == EvacuationOutcome::kRetryScheduled) {
      EXPECT_EQ(inc.migration, fleet::MigrationOutcome::kAbortedLink);
      EXPECT_GE(inc.backoff_epochs, 2u);
      EXPECT_LE(inc.backoff_epochs, 10u);  // cap 8 + 25% jitter
    } else {
      EXPECT_EQ(inc.outcome, EvacuationOutcome::kQuarantined);
      EXPECT_EQ(inc.attempts, 3u);
    }
  }
  // Quarantined tenants are parked, not lost: the host retires around them.
  EXPECT_EQ(sup.host_state(0), HostState::kRetired);
}

TEST(Supervisor, UncarvableTenantQuarantinesImmediately) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  // Tenant 1 runs DFP above offset 0: extract_resumable refuses the carve.
  std::vector<core::EnclaveApp> apps = {
      {.trace = &a, .scheme = core::Scheme::kBaseline},
      {.trace = &b, .scheme = core::Scheme::kDfpStop},
  };
  SupervisorPolicy policy;
  policy.epoch_steps = 16;
  policy.checkpoint.fixed_every = 64;
  policy.crash_threshold = 1;
  policy.migration.warm_rounds = 1;
  policy.migration.round_steps = 8;
  FleetSupervisor sup(policy, no_chaos());
  sup.add_host(golden::multi_config(), apps);

  for (int i = 0; i < 2; ++i) sup.run_epoch();
  sup.crash_host(0, false);
  sup.recover_host(0);
  const FleetReport rep = sup.run_to_completion(10'000);

  EXPECT_TRUE(rep.ledger.balanced());
  EXPECT_EQ(rep.ledger.quarantined, 1u);   // the DFP tenant parked at once
  EXPECT_EQ(rep.ledger.evacuations_completed, 1u);  // the baseline one moved
  bool saw_uncarvable = false;
  for (const auto& inc : rep.evacuation_incidents) {
    if (inc.outcome == EvacuationOutcome::kUncarvable) {
      saw_uncarvable = true;
      EXPECT_EQ(inc.attempts, 1u);  // no retries burned on a hopeless carve
      EXPECT_FALSE(inc.detail.empty());
    }
  }
  EXPECT_TRUE(saw_uncarvable);
}

// --- chain mirroring and the manifest ---------------------------------------

TEST(Supervisor, ChainDirMirrorsProbeCleanChains) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  const std::string dir = testing::TempDir() + "sgxpl-fleet-chains";
  (void)std::remove((dir + "/host-0.snap").c_str());
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);

  SupervisorPolicy policy;
  policy.epoch_steps = 32;
  policy.checkpoint.fixed_every = 64;
  policy.checkpoint.full_every = 4;
  FleetSupervisor sup(policy, no_chaos());
  sup.set_chain_dir(dir);
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
  for (int i = 0; i < 8; ++i) sup.run_epoch();

  // The mirrored chain restores a bit-identical copy of the host at its
  // last checkpoint.
  core::MultiEnclaveRun probe(golden::multi_config(),
                              golden::multi_apps(a, b));
  const snapshot::ChainSalvageReport rep =
      snapshot::salvage_chain_from_files(probe, dir + "/host-0.snap");
  EXPECT_TRUE(rep.complete()) << rep.describe();
  EXPECT_TRUE(rep.restored_any());
}

TEST(Supervisor, ManifestRoundTripsAndGuardsPolicyIdentity) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  inject::HostCrashPlan chaos;
  chaos.enabled = true;
  chaos.crash_per_epoch = 0.3;
  chaos.seed = 99;
  SupervisorPolicy policy;
  policy.epoch_steps = 32;
  policy.checkpoint.fixed_every = 64;
  policy.crash_threshold = 1000;
  FleetSupervisor sup(policy, chaos);
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
  for (int i = 0; i < 12; ++i) sup.run_epoch();
  const FleetLedger before = sup.ledger();
  const std::vector<std::uint8_t> manifest = sup.save_manifest();

  // Same policy + same hosts: the manifest restores the bookkeeping.
  FleetSupervisor twin(policy, chaos);
  twin.add_host(golden::multi_config(), golden::multi_apps(a, b));
  twin.add_host(golden::multi_config(), golden::multi_apps(a, b));
  twin.load_manifest(manifest);
  EXPECT_EQ(twin.epoch(), sup.epoch());
  const FleetLedger after = twin.ledger();
  EXPECT_EQ(after.tenants_total, before.tenants_total);
  EXPECT_EQ(after.crashes, before.crashes);
  EXPECT_EQ(after.recoveries, before.recoveries);
  EXPECT_EQ(after.checkpoints, before.checkpoints);
  EXPECT_TRUE(after.balanced());

  // A policy change refuses to load (the hardening_spec identity guard).
  SupervisorPolicy other = policy;
  other.crash_threshold = 7;
  FleetSupervisor mismatched(other, chaos);
  mismatched.add_host(golden::multi_config(), golden::multi_apps(a, b));
  mismatched.add_host(golden::multi_config(), golden::multi_apps(a, b));
  try {
    mismatched.load_manifest(manifest);
    FAIL() << "manifest loaded across a policy change";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("policy"), std::string::npos)
        << e.what();
  }

  // Host-count mismatches refuse too.
  FleetSupervisor short_fleet(policy, chaos);
  short_fleet.add_host(golden::multi_config(), golden::multi_apps(a, b));
  EXPECT_THROW(short_fleet.load_manifest(manifest), CheckFailure);

  // Corrupt frames never load half-way.
  std::vector<std::uint8_t> bad = manifest;
  bad[bad.size() / 2] ^= 0x40;
  FleetSupervisor victim(policy, chaos);
  victim.add_host(golden::multi_config(), golden::multi_apps(a, b));
  victim.add_host(golden::multi_config(), golden::multi_apps(a, b));
  EXPECT_THROW(victim.load_manifest(bad), CheckFailure);
}

TEST(Supervisor, ObservabilitySinksSeeFleetActivity) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  inject::HostCrashPlan chaos;
  chaos.enabled = true;
  chaos.crash_per_epoch = 0.3;
  chaos.torn_frac = 0.5;
  chaos.seed = 77;
  SupervisorPolicy policy;
  policy.epoch_steps = 32;
  policy.checkpoint.fixed_every = 64;
  policy.crash_threshold = 1000;
  FleetSupervisor sup(policy, chaos);
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  obs::Profiler profiler;
  profiler.set_enabled(true);
  sup.set_metrics(&metrics);
  sup.set_event_log(&events);
  sup.set_profiler(&profiler);
  sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
  sup.run_to_completion(20'000);

  EXPECT_GT(metrics.counter("fleet.checkpoints").value(), 0u);
  EXPECT_GT(metrics.counter("fleet.crashes").value(), 0u);
  EXPECT_EQ(metrics.counter("fleet.crashes").value(),
            metrics.counter("fleet.recoveries").value());
  bool saw_fleet_event = false;
  events.for_each([&](const obs::Event& e) {
    if (e.type == obs::EventType::kFleet) saw_fleet_event = true;
  });
  EXPECT_TRUE(saw_fleet_event);
  const obs::PhaseProfile prof = profiler.profile();
  const obs::PhaseProfile::Node* rec =
      prof.find({obs::Phase::kFleetRecover});
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->count, 0u);
  EXPECT_GT(rec->sim_cycles, 0u);  // the modeled RTO lands on the span
}

}  // namespace
}  // namespace sgxpl
