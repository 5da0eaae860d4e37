// Perf trajectory suite: pinned benchmark cells whose results are
// committed at the repo root as BENCH_<pr>.json, one point per PR, and
// gated by scripts/bench_gate.py in CI.
//
// Every cell reports cycles.* scalars only: simulated-cycle metrics that
// are deterministic (same code + seed = byte-identical values on any
// machine) and form the gated regression surface. Wall-clock throughput
// is measured by perfbench (perfbench/README.md), which repeats passes and
// records CPU time and host facts; this suite does not time anything.
//
// Every cell pins its own scale and seeds, ignoring SGXPL_SCALE, so a
// committed baseline is comparable across environments.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "fleet/supervisor.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "trace/generators.h"
#include "sgxsim/driver.h"
#include "trace/workloads.h"

using namespace sgxpl;

namespace {

/// Cell scale, pinned independently of SGXPL_SCALE: the committed baseline
/// must not depend on the environment the run happened in.
constexpr double kCellScale = 0.05;

/// paper_platform with the EPC scaled to the pinned cell scale (same ratio
/// rule as bench_platform, but immune to SGXPL_SCALE), plus the harness
/// profiler when --profile asked for one.
core::SimConfig cell_platform(core::Scheme scheme) {
  core::SimConfig cfg = core::paper_platform(scheme);
  cfg.enclave.epc_pages = static_cast<PageNum>(
      static_cast<double>(sgxsim::kDefaultEpcPages) * kCellScale);
  if (bench::profiler().enabled()) {
    cfg.profiler = &bench::profiler();
  }
  return cfg;
}

/// Cell A: warm-up of a small enclave that fits the EPC exactly — the
/// fault path with no eviction pressure. Cycle domain: the warm-up's
/// fault/eviction counts.
void cell_warmup(TextTable& tbl) {
  constexpr PageNum kPages = 4096;
  sgxsim::EnclaveConfig ecfg;
  ecfg.elrange_pages = kPages;
  ecfg.epc_pages = kPages;
  const sgxsim::CostModel costs;
  sgxsim::Driver driver(ecfg, costs);
  if (bench::profiler().enabled()) {
    driver.set_profiler(&bench::profiler());
  }
  Cycles now = 0;
  for (PageNum p = 0; p < kPages; ++p) {
    now = driver.access(p, now).completion + 1;
  }
  bench::add_scalar("cycles.micro.warm_faults",
                    static_cast<double>(driver.stats().faults));
  bench::add_scalar("cycles.micro.warm_evictions",
                    static_cast<double>(driver.stats().evictions));
  tbl.add_row({"resident warm-up",
               std::to_string(driver.stats().faults) + " warm faults",
               std::to_string(driver.stats().evictions) + " evictions"});
}

/// Cell B (fig8): baseline vs DFP-stop on one regular (lbm) and one
/// irregular (deepsjeng) workload at pinned scale/seed. Cycle domain:
/// total cycles, faults, preload accounting.
void cell_fig8(TextTable& tbl) {
  for (const char* name : {"lbm", "deepsjeng"}) {
    const auto* w = trace::find_workload(name);
    const auto t = w->make(trace::WorkloadParams{.scale = kCellScale,
                                                 .seed = 42});
    const auto base = core::simulate(t, cell_platform(core::Scheme::kBaseline));
    const auto stop = core::simulate(t, cell_platform(core::Scheme::kDfpStop));
    const std::string p = std::string("cycles.fig8.") + name;
    bench::add_scalar(p + ".baseline_total_cycles",
                      static_cast<double>(base.total_cycles));
    bench::add_scalar(p + ".dfpstop_total_cycles",
                      static_cast<double>(stop.total_cycles));
    bench::add_scalar(p + ".dfpstop_faults",
                      static_cast<double>(stop.driver.faults));
    bench::add_scalar(p + ".dfpstop_preloads_used",
                      static_cast<double>(stop.driver.preloads_used));
    tbl.add_row({std::string("fig8 ") + name,
                 std::to_string(stop.total_cycles) + " cycles (dfp-stop)",
                 std::to_string(base.total_cycles) + " cycles (baseline)"});
  }
}

/// Cell C: the hardened paging path under completion-fault chaos — the
/// retry sweep, duplicate suppression, and admission ladder all active.
/// Entirely cycle-domain (chaos schedules are seeded).
void cell_overload(TextTable& tbl) {
  const auto* w = trace::find_workload("mcf");
  const auto t = w->make(trace::WorkloadParams{.scale = 0.04, .seed = 7});
  core::SimConfig cfg = cell_platform(core::Scheme::kDfp);
  cfg.enclave.channel.max_queued = 64;
  cfg.enclave.channel.preload_high_water = 48;
  cfg.enclave.channel.max_retries = 3;
  cfg.enclave.admission.enabled = true;
  std::string err;
  const auto plan =
      inject::ChaosPlan::parse("drop-completion:0.2,dup-completion:0.1", &err);
  SGXPL_CHECK_MSG(plan.has_value(), "chaos spec: " << err);
  cfg.chaos = *plan;
  cfg.chaos.seed = 0x5eed;
  const auto m = core::simulate(t, cfg);
  bench::add_scalar("cycles.overload.total_cycles",
                    static_cast<double>(m.total_cycles));
  bench::add_scalar("cycles.overload.lost_completions",
                    static_cast<double>(m.driver.lost_completions));
  bench::add_scalar("cycles.overload.retries",
                    static_cast<double>(m.driver.retries));
  bench::add_scalar("cycles.overload.permanent_faults",
                    static_cast<double>(m.driver.permanent_faults));
  bench::add_scalar("cycles.overload.preloads_shed",
                    static_cast<double>(m.driver.preloads_shed));
  tbl.add_row({"overload (mcf, chaos)",
               std::to_string(m.total_cycles) + " cycles",
               std::to_string(m.driver.retries) + " retries, " +
                   std::to_string(m.driver.preloads_shed) + " shed"});
}

/// Cell E: elastic EPC rebalance on a skewed multi-tenant co-run — the
/// quota-aware eviction path plus the AIMD rebalance tick, both on the
/// hot path when elasticity is engaged. Entirely cycle-domain (pinned
/// geometry and seeds).
void cell_elastic(TextTable& tbl) {
  const struct {
    const char* workload;
    double weight;
  } tenants[] = {{"mcf", 1.0}, {"microbenchmark", 0.4},
                 {"microbenchmark", 0.3}};
  std::vector<trace::Trace> traces;
  PageNum total_elrange = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const trace::WorkloadParams p{.scale = kCellScale * tenants[i].weight,
                                  .seed = 42 + i};
    traces.push_back(trace::find_workload(tenants[i].workload)->make(p));
    total_elrange += traces.back().elrange_pages();
  }
  core::SimConfig cfg = cell_platform(core::Scheme::kBaseline);
  cfg.enclave.epc_pages = std::max<PageNum>(total_elrange / 2, 64);
  cfg.enclave.elastic.enabled = true;
  std::vector<core::EnclaveApp> apps;
  apps.reserve(traces.size());
  for (const auto& t : traces) {
    apps.push_back(core::EnclaveApp{&t, core::Scheme::kDfpStop, nullptr});
  }
  core::MultiEnclaveSimulator multi(cfg);
  const auto r = multi.run(apps);
  bench::add_scalar("cycles.elastic.makespan",
                    static_cast<double>(r.makespan));
  bench::add_scalar("cycles.elastic.hot_total_cycles",
                    static_cast<double>(r.per_enclave[0].total_cycles));
  bench::add_scalar("cycles.elastic.rebalance_ticks",
                    static_cast<double>(r.elastic.rebalance_ticks));
  bench::add_scalar("cycles.elastic.grows",
                    static_cast<double>(r.elastic.grows));
  bench::add_scalar("cycles.elastic.shrinks",
                    static_cast<double>(r.elastic.shrinks));
  bench::add_scalar("cycles.elastic.quota_evictions",
                    static_cast<double>(r.elastic.quota_evictions));
  tbl.add_row({"elastic rebalance (3 tenants)",
               std::to_string(r.makespan) + " cycles makespan",
               std::to_string(r.elastic.grows) + " grows, " +
                   std::to_string(r.elastic.shrinks) + " shrinks, " +
                   std::to_string(r.elastic.quota_evictions) +
                   " quota evictions"});
}

/// Cell F: a bounded fleet soak — supervised service mode with host-crash
/// chaos, checkpoint cadence, salvage-recovery, and evacuation all on the
/// measured path. Entirely cycle-domain: the supervisor is simulated time
/// end to end, so the incident history and every RPO/RTO figure is
/// deterministic at pinned seeds.
void cell_soak(TextTable& tbl) {
  constexpr std::size_t kHosts = 2;
  constexpr std::size_t kTenantsPerHost = 2;
  static std::vector<trace::Trace> traces;  // outlives the supervisor
  traces.clear();
  for (std::size_t i = 0; i < kHosts * kTenantsPerHost; ++i) {
    trace::Trace t("soak-cell-" + std::to_string(i), 512);
    Rng rng(300 + i);
    const trace::GapModel gap{.mean = 2'000, .jitter_pct = 0.25};
    trace::seq_scan(t, rng, trace::Region{0, 256}, 1, gap);
    trace::random_access(t, rng, trace::Region{256, 200}, 600, 10, 4, gap);
    traces.push_back(std::move(t));
  }
  core::SimConfig cfg;
  cfg.enclave.epc_pages = 96;
  cfg.validate = true;
  cfg.chaos = inject::ChaosPlan::all(0x5eed);

  fleet::SupervisorPolicy policy;
  policy.epoch_steps = 128;
  policy.checkpoint.fixed_every = 512;
  policy.checkpoint.full_every = 8;
  policy.crash_threshold = 3;
  policy.crash_window_epochs = 16;
  policy.migration.warm_rounds = 2;
  policy.migration.round_steps = 32;
  policy.seed = 0x5eed;
  inject::HostCrashPlan chaos;
  chaos.enabled = true;
  chaos.crash_per_epoch = 0.25;
  chaos.torn_frac = 0.4;
  chaos.seed = 0x5eed;

  fleet::FleetSupervisor sup(policy, chaos);
  if (bench::profiler().enabled()) {
    sup.set_profiler(&bench::profiler());
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    std::vector<core::EnclaveApp> apps;
    for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
      apps.push_back({.trace = &traces[h * kTenantsPerHost + t],
                      .scheme = t == 0 ? core::Scheme::kDfpStop
                                       : core::Scheme::kBaseline});
    }
    sup.add_host(cfg, apps);
  }
  const fleet::FleetReport r = sup.run_to_completion(20'000);
  SGXPL_CHECK_MSG(r.ledger.balanced() && r.ledger.running == 0,
                  "soak cell: fleet did not drain conservatively");
  std::uint64_t rpo_sum = 0, rto_sum = 0;
  for (const fleet::CrashIncident& inc : r.crash_incidents) {
    rpo_sum += inc.rpo_cycles;
    rto_sum += inc.rto_cycles;
  }
  bench::add_scalar("cycles.soak.makespan", static_cast<double>(r.makespan));
  bench::add_scalar("cycles.soak.crashes",
                    static_cast<double>(r.ledger.crashes));
  bench::add_scalar("cycles.soak.checkpoints",
                    static_cast<double>(r.ledger.checkpoints));
  bench::add_scalar("cycles.soak.evacuations",
                    static_cast<double>(r.ledger.evacuations_completed));
  bench::add_scalar("cycles.soak.finished",
                    static_cast<double>(r.ledger.finished));
  bench::add_scalar("cycles.soak.rpo_cycles_total",
                    static_cast<double>(rpo_sum));
  bench::add_scalar("cycles.soak.rto_cycles_total",
                    static_cast<double>(rto_sum));
  tbl.add_row({"fleet soak (2 hosts, chaos)",
               std::to_string(r.makespan) + " cycles makespan",
               std::to_string(r.ledger.crashes) + " crashes, " +
                   std::to_string(r.ledger.evacuations_completed) +
                   " evacuations, " + std::to_string(r.ledger.finished) +
                   "/" + std::to_string(r.ledger.tenants_total) +
                   " finished"});
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "perf_suite",
              "Perf trajectory cells (pinned scale/seed; cycles.* gated by "
              "scripts/bench_gate.py)");
  bench::add_note("perf_schema", "sgxpl-perf-cells/v1");
  bench::add_note("domains",
                  "cycles.* scalars only: deterministic and gated; wall "
                  "time is measured by perfbench");

  TextTable tbl({"cell", "result", "detail"});
  cell_warmup(tbl);
  cell_fig8(tbl);
  cell_overload(tbl);
  cell_elastic(tbl);
  cell_soak(tbl);
  bench::print_table("cells", tbl);

  std::cout << "\nCommit the --json output as BENCH_<pr>.json at the repo "
               "root; scripts/bench_gate.py compares cycles.* against the "
               "last committed baseline.\n";
  return bench::finish();
}
