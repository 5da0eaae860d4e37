// Live-migration differentials: a tenant migrated at ANY cut point must
// finish on the destination with metrics and final state bit-identical to
// an uninterrupted run (sole-tenant identity carve), and every abort path
// must leave the source resuming exactly where it paused — no lost pages,
// no lost progress. Also covers the lossy-link retry model, the typed
// carve refusals, and the drain's preload shedding.
#include "fleet/migration.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "golden_recipe.h"
#include "snapshot/snapshotter.h"

namespace sgxpl {
namespace {

using fleet::LinkChaos;
using fleet::MigrationController;
using fleet::MigrationOutcome;
using fleet::MigrationPolicy;
using fleet::MigrationReport;

/// A sole-tenant co-run over the golden multi trace: identity geometry
/// (lo == 0, tenant spans the whole combined space), so carves are
/// byte-verbatim and migrated runs must be bit-identical to uninterrupted
/// ones.
struct SoleTenantRig {
  explicit SoleTenantRig(core::Scheme scheme, bool chaos = false)
      : trace(golden::multi_trace(11)), cfg(golden::multi_config()) {
    if (chaos) {
      cfg.chaos = inject::ChaosPlan::all(7);
    }
    apps = {{.trace = &trace, .scheme = scheme}};
    run = std::make_unique<core::MultiEnclaveRun>(cfg, apps);
  }

  void step_to(std::uint64_t cut) {
    while (!run->done() && run->steps() < cut) {
      run->step();
    }
  }

  trace::Trace trace;
  core::SimConfig cfg;
  std::vector<core::EnclaveApp> apps;
  std::unique_ptr<core::MultiEnclaveRun> run;
};

MigrationPolicy clean_policy() {
  MigrationPolicy p;
  p.warm_rounds = 2;
  p.round_steps = 16;
  return p;
}

void expect_identical_to_uninterrupted(const SoleTenantRig& migrated,
                                       core::Scheme scheme, bool chaos,
                                       const std::string& context) {
  SoleTenantRig witness(scheme, chaos);
  witness.step_to(~0ull);  // run to completion
  ASSERT_TRUE(witness.run->done());
  EXPECT_EQ(migrated.run->save_bytes(), witness.run->save_bytes())
      << context << ": migrated final state diverged from uninterrupted";
  // Metrics travel inside save_bytes too, but diff_metrics localizes the
  // field on failure, so compare them explicitly as well.
  const auto d = snapshot::diff_metrics(migrated.run->tenant_metrics(0),
                                        witness.run->tenant_metrics(0));
  EXPECT_TRUE(d.identical) << context << ": " << d.first_divergence;
}

TEST(Migration, IdentityMigrationAtEveryCutMatchesUninterrupted) {
  for (const core::Scheme scheme :
       {core::Scheme::kBaseline, core::Scheme::kDfpStop}) {
    for (const bool chaos : {false, true}) {
      for (const std::uint64_t cut : {0ull, 1ull, 7ull, 64ull, 150ull}) {
        SoleTenantRig src(scheme, chaos);
        src.step_to(cut);
        SoleTenantRig dst(scheme, chaos);

        MigrationController mc(clean_policy());
        const MigrationReport rep = mc.migrate(*src.run, 0, *dst.run);
        const std::string context =
            "scheme " + std::to_string(static_cast<int>(scheme)) +
            (chaos ? " +chaos" : "") + " cut " + std::to_string(cut);
        ASSERT_EQ(rep.outcome, MigrationOutcome::kCompleted)
            << context << ": " << rep.detail;
        EXPECT_TRUE(rep.detail.empty());
        EXPECT_GT(rep.downtime_cycles, 0u) << context;
        EXPECT_GT(rep.bytes_on_wire, 0u) << context;

        // The source retired its only tenant; the destination finishes the
        // trace exactly as an uninterrupted run would.
        EXPECT_TRUE(src.run->done()) << context;
        dst.step_to(~0ull);
        ASSERT_TRUE(dst.run->done()) << context;
        expect_identical_to_uninterrupted(dst, scheme, chaos, context);
      }
    }
  }
}

TEST(Migration, PureStopAndCopyAlsoMatchesUninterrupted) {
  SoleTenantRig src(core::Scheme::kDfpStop);
  src.step_to(100);
  SoleTenantRig dst(core::Scheme::kDfpStop);
  MigrationPolicy p = clean_policy();
  p.warm_rounds = 0;
  const MigrationReport rep =
      MigrationController(p).migrate(*src.run, 0, *dst.run);
  ASSERT_EQ(rep.outcome, MigrationOutcome::kCompleted) << rep.detail;
  EXPECT_EQ(rep.warm_rounds, 0u);
  dst.step_to(~0ull);
  expect_identical_to_uninterrupted(dst, core::Scheme::kDfpStop, false,
                                    "pure stop-and-copy");
}

TEST(Migration, WarmRoundsPayOnlyForChangedSections) {
  SoleTenantRig src(core::Scheme::kDfpStop);
  src.step_to(50);
  SoleTenantRig dst(core::Scheme::kDfpStop);
  MigrationPolicy p = clean_policy();
  p.warm_rounds = 3;
  p.round_steps = 8;
  const MigrationReport rep =
      MigrationController(p).migrate(*src.run, 0, *dst.run);
  ASSERT_EQ(rep.outcome, MigrationOutcome::kCompleted) << rep.detail;
  ASSERT_EQ(rep.leg_stats.size(), 4u);  // 3 warm + 1 final
  // The first leg ships the whole frame; later legs ship wire-deltas
  // against the last delivered copy, which must be strictly cheaper.
  EXPECT_GT(rep.leg_stats[0].bytes_delivered, rep.leg_stats[1].bytes_delivered);
  EXPECT_GT(rep.leg_stats[0].bytes_delivered,
            rep.leg_stats.back().bytes_delivered);
  EXPECT_TRUE(rep.leg_stats.back().final_leg);
  // Downtime is charged only for the final leg.
  EXPECT_EQ(rep.downtime_cycles,
            p.leg_latency + rep.leg_stats.back().bytes_on_wire *
                                p.cycles_per_byte);
}

TEST(Migration, DeadLinkAbortsAndSourceResumesExactly) {
  for (const std::uint64_t warm : {0ull, 2ull}) {
    SoleTenantRig src(core::Scheme::kDfpStop);
    src.step_to(80);
    SoleTenantRig dst(core::Scheme::kDfpStop);
    MigrationPolicy p = clean_policy();
    p.warm_rounds = warm;
    p.link.drop = 1.0;
    const MigrationReport rep =
        MigrationController(p).migrate(*src.run, 0, *dst.run);
    ASSERT_EQ(rep.outcome, MigrationOutcome::kAbortedLink) << rep.detail;
    EXPECT_FALSE(rep.detail.empty());
    // The tenant resumes at the source and finishes as if the migration
    // had never been attempted (warm rounds only advance it normally).
    EXPECT_FALSE(src.run->tenant_paused(0));
    src.step_to(~0ull);
    ASSERT_TRUE(src.run->done());
    expect_identical_to_uninterrupted(src, core::Scheme::kDfpStop, false,
                                      "dead link, warm=" +
                                          std::to_string(warm));
  }
}

TEST(Migration, ExhaustedByteBudgetAbortsTyped) {
  SoleTenantRig src(core::Scheme::kDfpStop);
  src.step_to(80);
  SoleTenantRig dst(core::Scheme::kDfpStop);
  MigrationPolicy p = clean_policy();
  p.byte_budget = 1;  // nothing fits
  const MigrationReport rep =
      MigrationController(p).migrate(*src.run, 0, *dst.run);
  ASSERT_EQ(rep.outcome, MigrationOutcome::kAbortedBudget) << rep.detail;
  EXPECT_FALSE(rep.detail.empty());
  src.step_to(~0ull);
  expect_identical_to_uninterrupted(src, core::Scheme::kDfpStop, false,
                                    "budget abort");
}

TEST(Migration, IncompatibleDestinationRejectsAndSourceResumes) {
  SoleTenantRig src(core::Scheme::kDfpStop);
  src.step_to(80);
  // Wrong scheme on the destination: restore_if_compatible must refuse.
  SoleTenantRig dst(core::Scheme::kBaseline);
  const MigrationReport rep =
      MigrationController(clean_policy()).migrate(*src.run, 0, *dst.run);
  ASSERT_EQ(rep.outcome, MigrationOutcome::kAbortedRejected) << rep.detail;
  EXPECT_FALSE(rep.detail.empty());
  EXPECT_FALSE(src.run->tenant_paused(0));
  src.step_to(~0ull);
  expect_identical_to_uninterrupted(src, core::Scheme::kDfpStop, false,
                                    "rejected destination");
}

TEST(Migration, LossyLinkConvergesWithRetries) {
  SoleTenantRig src(core::Scheme::kDfpStop);
  src.step_to(60);
  SoleTenantRig dst(core::Scheme::kDfpStop);
  MigrationPolicy p = clean_policy();
  p.max_attempts = 64;
  p.link = LinkChaos::parse("drop=0.3,dup=0.3,truncate=0.2,bitflip=0.2,seed=9");
  const MigrationReport rep =
      MigrationController(p).migrate(*src.run, 0, *dst.run);
  ASSERT_EQ(rep.outcome, MigrationOutcome::kCompleted) << rep.detail;
  EXPECT_GE(rep.attempts, rep.legs);
  dst.step_to(~0ull);
  expect_identical_to_uninterrupted(dst, core::Scheme::kDfpStop, false,
                                    "lossy link");
}

TEST(Migration, CoTenantCarveMigratesAndBothSidesFinish) {
  // Two tenants share the EPC; migrate tenant 1 (Baseline, placed at
  // lo > 0 — the general rebasing carve) onto a fresh sole-tenant host.
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun src(golden::multi_config(), golden::multi_apps(a, b));
  while (!src.done() && src.steps() < 200) {
    src.step();
  }

  SoleTenantRig dst(core::Scheme::kBaseline);
  // Destination must run tenant 1's trace, not the rig's default.
  dst.apps = {{.trace = &b, .scheme = core::Scheme::kBaseline}};
  dst.run = std::make_unique<core::MultiEnclaveRun>(dst.cfg, dst.apps);

  const std::uint64_t cursor_at_cut = src.tenant_cursor(1);
  const MigrationReport rep =
      MigrationController(clean_policy()).migrate(src, 1, *dst.run);
  ASSERT_EQ(rep.outcome, MigrationOutcome::kCompleted) << rep.detail;

  // The destination picks up exactly at the carve's cursor (the warm
  // rounds advanced it past the cut) and finishes the trace.
  EXPECT_GE(dst.run->tenant_cursor(0), cursor_at_cut);
  dst.step_to(~0ull);
  ASSERT_TRUE(dst.run->done());
  EXPECT_EQ(dst.run->tenant_cursor(0), b.size());

  // The source co-run keeps going with the remaining tenant and finishes.
  while (!src.done()) {
    src.step();
  }
  const core::MultiEnclaveResult res = src.finish();
  EXPECT_EQ(res.per_enclave.size(), 2u);
  EXPECT_EQ(src.tenant_cursor(0), a.size());
}

TEST(Migration, DfpTenantAboveOffsetZeroRefusesToCarve) {
  // Tenant 1 runs DFP at lo > 0: its engine state is keyed to combined
  // page numbers, so the carve must refuse with a typed error rather than
  // emit silently-wrong state.
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  std::vector<core::EnclaveApp> apps = {
      {.trace = &a, .scheme = core::Scheme::kBaseline},
      {.trace = &b, .scheme = core::Scheme::kDfpStop},
  };
  core::MultiEnclaveRun src(golden::multi_config(), apps);
  while (!src.done() && src.steps() < 100) {
    src.step();
  }
  EXPECT_THROW(snapshot::extract_resumable(src, 1), CheckFailure);
}

TEST(Migration, DrainShedsPreloadsWhileServingDemand) {
  // A draining DfpStop tenant keeps faulting pages in (demand loads) but
  // its preloads are shed at submission; the run still completes.
  SoleTenantRig drained(core::Scheme::kDfpStop);
  drained.step_to(40);
  drained.run->begin_tenant_drain(0);
  drained.step_to(~0ull);
  ASSERT_TRUE(drained.run->done());
  const core::MultiEnclaveResult res = drained.run->finish();
  EXPECT_GT(res.driver.preloads_shed, 0u);

  SoleTenantRig witness(core::Scheme::kDfpStop);
  witness.step_to(~0ull);
  const core::MultiEnclaveResult wres = witness.run->finish();
  // The drain sheds strictly more than whatever backpressure shed anyway,
  // yet every demand fault was still served (the run completed above).
  EXPECT_GT(res.driver.preloads_shed, wres.driver.preloads_shed);
}

TEST(Migration, PauseFreezesATenantsClock) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  core::MultiEnclaveRun run(golden::multi_config(), golden::multi_apps(a, b));
  while (!run.done() && run.steps() < 50) {
    run.step();
  }
  const std::uint64_t frozen = run.tenant_cursor(0);
  run.set_tenant_paused(0, true);
  EXPECT_TRUE(run.tenant_paused(0));
  for (int i = 0; i < 40 && run.steppable(); ++i) {
    run.step();
  }
  EXPECT_EQ(run.tenant_cursor(0), frozen);
  EXPECT_GT(run.tenant_cursor(1), 0u);
  run.set_tenant_paused(0, false);
  while (!run.done()) {
    run.step();
  }
  EXPECT_EQ(run.tenant_cursor(0), a.size());
}

TEST(Migration, RetireRequiresAPausedTenant) {
  SoleTenantRig rig(core::Scheme::kBaseline);
  rig.step_to(10);
  EXPECT_THROW(rig.run->retire_tenant(0), CheckFailure);
  rig.run->set_tenant_paused(0, true);
  rig.run->retire_tenant(0);
  EXPECT_TRUE(rig.run->done());
}

TEST(Migration, LinkChaosSpecRoundTripsAndRejectsGarbage) {
  const LinkChaos c =
      LinkChaos::parse("drop=0.25,dup=0.5,truncate=0.125,bitflip=1,seed=42");
  EXPECT_EQ(c.drop, 0.25);
  EXPECT_EQ(c.dup, 0.5);
  EXPECT_EQ(c.truncate, 0.125);
  EXPECT_EQ(c.bitflip, 1.0);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_TRUE(c.any());
  EXPECT_EQ(LinkChaos::parse(c.spec()).spec(), c.spec());

  EXPECT_FALSE(LinkChaos::parse("").any());
  EXPECT_THROW(LinkChaos::parse("melt=0.5"), CheckFailure);
  EXPECT_THROW(LinkChaos::parse("drop=1.5"), CheckFailure);
  EXPECT_THROW(LinkChaos::parse("drop=banana"), CheckFailure);
  EXPECT_THROW(LinkChaos::parse("seed=banana"), CheckFailure);
}

TEST(Migration, LinkChaosSeedRefusesSignsAndOverflow) {
  // A strtoull parse reads seed=-1 as 2^64-1; the strict parse refuses it.
  for (const char* spec :
       {"seed=-1", "seed= 7", "seed=+7", "seed=18446744073709551616",
        "seed="}) {
    try {
      (void)LinkChaos::parse(spec);
      ADD_FAILURE() << spec << " accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("link chaos: seed '"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(LinkChaos::parse("seed=0x2a").seed, 42u);
  EXPECT_EQ(LinkChaos::parse("seed=18446744073709551615").seed,
            ~std::uint64_t{0});
}

TEST(Migration, OutcomeNamesAreStable) {
  EXPECT_STREQ(to_string(MigrationOutcome::kCompleted), "completed");
  EXPECT_STREQ(to_string(MigrationOutcome::kAbortedLink), "aborted-link");
  EXPECT_STREQ(to_string(MigrationOutcome::kAbortedBudget), "aborted-budget");
  EXPECT_STREQ(to_string(MigrationOutcome::kAbortedRejected),
               "aborted-rejected");
}

}  // namespace
}  // namespace sgxpl
