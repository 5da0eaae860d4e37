// The fleet-chaos workload: fleet::FleetSupervisor fleets of 4 hosts x 3
// paper-mix tenants under the full driver fault plan, a hardened channel
// with admission control, host-crash chaos with torn frames, and a fixed
// checkpoint cadence with delta chains.
#include <cmath>
#include <exception>
#include <memory>
#include <sstream>

#include "bench.h"
#include "common/check.h"
#include "core/multi_enclave.h"
#include "fleet/supervisor.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "trace/workloads.h"

namespace perfbench {
namespace {

using sgxpl::Cycles;
using sgxpl::core::Scheme;

constexpr std::size_t kHosts = 4;
constexpr std::size_t kTenantsPerHost = 3;
/// Input scale of the micro-benchmark tenants; the co-tenants get half.
constexpr double kFleetScale = 0.04;
/// Independent fleets per pass, each with its own derived seeds: the crash
/// schedule decides which hosts are evacuated, and summing over several
/// fleets keeps one seed's schedule from dominating a run.
constexpr std::size_t kFleets = 8;
/// The paper's micro-benchmark DFP gain, held against the micro-benchmark
/// tenants' own gain in their host co-runs.
constexpr double kPaperMicroDfpPct = 18.6;
/// The traced run's snapshot side pass saves every live host at every
/// kProbeEvery-th epoch.
constexpr std::uint64_t kProbeEvery = 8;
constexpr std::uint64_t kMaxEpochs = 100'000;

/// Tenant 0 of every host is the DFP-using micro-benchmark (alternately
/// DFP and DFP-stop); it sits at ELRANGE offset 0, the only place a
/// preloading tenant can be carved out for evacuation. Its two baseline
/// co-tenants pair an irregular and a regular paper benchmark.
const char* const kCoTenants[kHosts][2] = {{"mcf", "wrf"},
                                           {"deepsjeng", "bwaves"},
                                           {"xz", "lbm"},
                                           {"omnetpp", "SIFT"}};

Scheme tenant_scheme(std::size_t host, std::size_t tenant, bool all_baseline) {
  if (all_baseline || tenant != 0) return Scheme::kBaseline;
  return host % 2 == 0 ? Scheme::kDfp : Scheme::kDfpStop;
}

sgxpl::core::SimConfig host_config(std::uint64_t seed) {
  sgxpl::core::SimConfig cfg = sgxpl::core::paper_platform();
  cfg.enclave.epc_pages = static_cast<sgxpl::PageNum>(
      static_cast<double>(sgxpl::sgxsim::kDefaultEpcPages) * kFleetScale);
  cfg.validate = true;  // also turns the online watchdog on under chaos
  cfg.chaos = sgxpl::inject::ChaosPlan::all(derive_seed(seed, 200));
  cfg.enclave.channel.max_queued = 64;
  cfg.enclave.channel.preload_high_water = 48;
  cfg.enclave.channel.max_retries = 3;
  cfg.enclave.admission.enabled = true;
  return cfg;
}

sgxpl::fleet::SupervisorPolicy policy(std::uint64_t seed, std::size_t k) {
  sgxpl::fleet::SupervisorPolicy p;
  p.epoch_steps = 512;
  p.checkpoint.mode = sgxpl::fleet::CheckpointMode::kFixed;
  p.checkpoint.fixed_every = 2048;
  p.checkpoint.full_every = 8;
  p.crash_threshold = 3;
  p.crash_window_epochs = 16;
  p.migration.warm_rounds = 2;
  p.migration.round_steps = 64;
  p.seed = derive_seed(seed, 202);
  p.shard_threads = k;
  return p;
}

sgxpl::inject::HostCrashPlan crash_plan(std::uint64_t seed) {
  sgxpl::inject::HostCrashPlan c;
  c.enabled = true;
  c.crash_per_epoch = 0.05;
  c.torn_frac = 0.33;
  c.seed = derive_seed(seed, 201);
  return c;
}

/// One fleet's inputs; `seed` (derived from --seed) also seeds its chaos.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<sgxpl::trace::Trace> traces;  // host-major, kTenantsPerHost each
  const sgxpl::trace::Trace& at(std::size_t h, std::size_t t) const {
    return traces[h * kTenantsPerHost + t];
  }
};

Inputs make_inputs(std::uint64_t seed, SpanRecorder* rec) {
  Inputs in;
  in.seed = seed;
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
      const char* name = t == 0 ? "microbenchmark" : kCoTenants[h][t - 1];
      const sgxpl::trace::Workload* w = sgxpl::trace::find_workload(name);
      SGXPL_CHECK_MSG(w != nullptr, "unknown workload " << name);
      sgxpl::trace::WorkloadParams p = sgxpl::trace::ref_params(
          t == 0 ? kFleetScale : kFleetScale / 2);
      p.seed = derive_seed(seed, 100 + h * kTenantsPerHost + t);
      ScopedSpan span(rec, "trace.make", h * kTenantsPerHost + t);
      in.traces.push_back(w->make(p));
      SGXPL_CHECK_MSG(!in.traces.back().empty(),
                      name << " has no accesses at scale " << p.scale);
    }
  }
  return in;
}

std::vector<sgxpl::core::EnclaveApp> host_apps(const Inputs& in,
                                               std::size_t h,
                                               bool all_baseline) {
  std::vector<sgxpl::core::EnclaveApp> apps;
  for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
    apps.push_back({&in.at(h, t), tenant_scheme(h, t, all_baseline), nullptr});
  }
  return apps;
}

std::unique_ptr<sgxpl::fleet::FleetSupervisor> build_fleet(
    const Inputs& in, std::size_t k, bool all_baseline, SpanRecorder* rec) {
  ScopedSpan span(rec, "fleet.construct");
  auto sup = std::make_unique<sgxpl::fleet::FleetSupervisor>(
      policy(in.seed, k), crash_plan(in.seed));
  const sgxpl::core::SimConfig cfg = host_config(in.seed);
  for (std::size_t h = 0; h < kHosts; ++h) {
    sup->add_host(cfg, host_apps(in, h, all_baseline));
  }
  return sup;
}

/// Snapshot timing of the traced run: MultiEnclaveRun::save_bytes on a
/// live host, load_bytes into a same-configured replica run.
struct SnapshotProbe {
  std::vector<std::unique_ptr<sgxpl::core::MultiEnclaveRun>> replicas;
  double save_ns = 0.0, load_ns = 0.0, kib = 0.0;
  std::uint64_t frames = 0;
};

struct FleetPass {
  bool ok = false;
  std::string why;
  std::vector<sgxpl::fleet::FleetReport> reports;  // one per fleet
  std::uint64_t digest = kFnvOffset;
  std::vector<std::uint64_t> fleet_digests;  // one per fleet
  PassSample sample;
  std::vector<double> epoch_ms;
};

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Everything the report says, as bytes: two passes agree iff these match.
std::uint64_t report_digest(const sgxpl::fleet::FleetReport& r) {
  std::vector<std::uint8_t> b;
  const sgxpl::fleet::FleetLedger& l = r.ledger;
  for (const std::uint64_t v :
       {l.tenants_total, l.running, l.finished, l.quarantined, l.crashes,
        l.recoveries, l.cold_starts, l.torn_checkpoints, l.checkpoints,
        l.evacuations_completed, l.evacuation_retries, l.hosts_retired,
        l.hosts_spawned, r.epochs, r.makespan}) {
    put_u64(b, v);
  }
  for (const sgxpl::fleet::CrashIncident& c : r.crash_incidents) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(c.host), c.at_epoch, c.steps_at_crash,
          c.steps_at_checkpoint, c.rpo_steps, c.rpo_cycles, c.rto_cycles,
          c.frames_offered, c.frames_salvaged,
          static_cast<std::uint64_t>(c.torn_tail),
          static_cast<std::uint64_t>(c.cold_start)}) {
      put_u64(b, v);
    }
  }
  for (const sgxpl::fleet::EvacuationIncident& e : r.evacuation_incidents) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(e.host), static_cast<std::uint64_t>(e.tenant),
          e.tenant_id, e.at_epoch, e.attempts,
          static_cast<std::uint64_t>(e.outcome),
          static_cast<std::uint64_t>(e.migration), e.backoff_epochs}) {
      put_u64(b, v);
    }
    b.insert(b.end(), e.detail.begin(), e.detail.end());
  }
  return fnv1a(kFnvOffset, b);
}

/// Run one fleet to completion. Simulated accesses completed are every
/// tenant's trace, except that a quarantined tenant only counts the
/// accesses it had consumed at the last epoch boundary it was seen at.
FleetPass run_fleet(const Inputs& in, std::size_t k, bool all_baseline,
                    SpanRecorder* rec, SnapshotProbe* probe) {
  FleetPass p;
  std::uint64_t cursor[kHosts][kTenantsPerHost] = {};
  try {
    auto sup = build_fleet(in, k, all_baseline, nullptr);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    while (!sup->done()) {
      SGXPL_CHECK_MSG(sup->epoch() < kMaxEpochs, "fleet did not drain");
      const Clock::time_point e0 = Clock::now();
      {
        ScopedSpan span(rec, "fleet.run_epoch", sup->epoch());
        sup->run_epoch();
      }
      p.epoch_ms.push_back(seconds_since(e0) * 1e3);
      for (std::size_t h = 0; h < kHosts; ++h) {
        const sgxpl::core::MultiEnclaveRun* run = sup->host_run(h);
        if (run == nullptr) continue;
        for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
          cursor[h][t] = run->tenant_cursor(t);
        }
        if (probe != nullptr && sup->epoch() % kProbeEvery == 0) {
          ScopedSpan span(rec, "bench.snapshot_probe", sup->epoch());
          if (!probe->replicas[h]) {
            probe->replicas[h] = std::make_unique<sgxpl::core::MultiEnclaveRun>(
                host_config(in.seed), host_apps(in, h, all_baseline));
          }
          Clock::time_point s0 = Clock::now();
          std::vector<std::uint8_t> bytes;
          {
            ScopedSpan save(rec, "snapshot.save_bytes", sup->epoch());
            bytes = run->save_bytes();
          }
          probe->save_ns += seconds_since(s0) * 1e9;
          s0 = Clock::now();
          {
            ScopedSpan load(rec, "snapshot.load_bytes", sup->epoch());
            probe->replicas[h]->load_bytes(bytes);
          }
          probe->load_ns += seconds_since(s0) * 1e9;
          probe->kib += static_cast<double>(bytes.size()) / 1024.0;
          ++probe->frames;
        }
      }
    }
    p.reports.push_back(sup->run_to_completion(0));
    p.sample.wall_s = seconds_since(t0);
    p.sample.cpu_s = process_cpu_s() - cpu0;
    const sgxpl::fleet::FleetLedger& l = p.reports.back().ledger;
    SGXPL_CHECK_MSG(l.balanced(), "tenant ledger does not balance");
    SGXPL_CHECK_MSG(l.running == 0, l.running << " tenant(s) still running");
    SGXPL_CHECK_MSG(l.crashes == l.recoveries,
                    l.crashes - l.recoveries << " crash(es) not recovered");
    p.digest = report_digest(p.reports.back());
    p.ok = true;
  } catch (const std::exception& e) {
    p.why = e.what();
  }
  std::vector<bool> quarantined(kHosts * kTenantsPerHost, false);
  for (const sgxpl::fleet::FleetReport& r : p.reports) {
    for (const sgxpl::fleet::EvacuationIncident& e : r.evacuation_incidents) {
      if ((e.outcome == sgxpl::fleet::EvacuationOutcome::kQuarantined ||
           e.outcome == sgxpl::fleet::EvacuationOutcome::kUncarvable) &&
          e.tenant_id < quarantined.size()) {
        quarantined[e.tenant_id] = true;
      }
    }
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
      p.sample.accesses += quarantined[h * kTenantsPerHost + t]
                               ? cursor[h][t]
                               : in.at(h, t).size();
    }
  }
  return p;
}

/// One pass: every fleet of the run, back to back.
FleetPass run_pass(const std::vector<Inputs>& fleets, std::size_t k,
                   bool all_baseline, SpanRecorder* rec) {
  FleetPass agg;
  agg.ok = true;
  for (const Inputs& in : fleets) {
    FleetPass f = run_fleet(in, k, all_baseline, rec, nullptr);
    if (!f.ok && agg.ok) agg.why = f.why;
    agg.ok = agg.ok && f.ok;
    agg.digest = (agg.digest ^ f.digest) * 1099511628211ull;
    agg.fleet_digests.push_back(f.digest);
    agg.sample.add_op(f.sample.wall_s, f.sample.cpu_s, f.sample.accesses);
    agg.epoch_ms.insert(agg.epoch_ms.end(), f.epoch_ms.begin(),
                        f.epoch_ms.end());
    agg.reports.insert(agg.reports.end(), f.reports.begin(), f.reports.end());
  }
  return agg;
}

/// Count `p`, a run of `fleets` fleets, into the ledger: it must have
/// passed run_fleet's checks and, for a repeat, reproduce `ref_digest`.
void check_fleet(FleetPass& p, const std::uint64_t* ref_digest,
                 std::size_t fleets, const std::string& what,
                 const Options& opts, Outcome& outcome) {
  // Every tenant of every fleet in the pass is one operation.
  const std::uint64_t ops = kHosts * kTenantsPerHost * fleets;
  if (opts.inject_mismatch && ref_digest != nullptr) p.digest ^= 1;
  if (!p.ok) {
    outcome.record(ops, false, what + ": " + p.why);
  } else if (ref_digest != nullptr && p.digest != *ref_digest) {
    outcome.record(ops, false, what + ": report differs from its repeat");
  } else {
    outcome.record(ops, true, "");
  }
}

/// One host replayed without host crashes: its three apps co-run as a
/// core::MultiEnclaveRun under the host configuration, so they share its
/// EPC and paging channel as in the fleet. finish() drains the channel and
/// sweeps the driver's invariants: the validate-at-finish the supervised
/// hosts never get, because the supervisor retires a finished host without
/// finishing its run.
sgxpl::core::MultiEnclaveResult co_run(const Inputs& in, std::size_t h,
                                       bool all_baseline, SpanRecorder* rec,
                                       std::uint64_t id) {
  ScopedSpan span(rec, "core.co_run", id);
  sgxpl::core::MultiEnclaveRun run(host_config(in.seed),
                                   host_apps(in, h, all_baseline));
  return run.run_to_end();
}

struct CoRuns {
  RunCounts counts;  // the fleets' own (mixed-scheme) co-runs
  /// Each micro-benchmark tenant's gain over itself in the host's
  /// all-baseline co-run, percent.
  std::vector<double> micro_gain_pct;
  std::vector<std::uint64_t> watchdog_checks =
      std::vector<std::uint64_t>(kHosts, 0);  // fleet 0, per host
  double fleet0_cpu_s = 0.0;  // CPU seconds of fleet 0's mixed co-runs
  std::uint64_t digest = kFnvOffset;
};

/// Co-run every host of every fleet twice: with the fleet's schemes and
/// all-baseline. Every tenant of a co-run is one operation.
CoRuns co_runs(const std::vector<Inputs>& fleets, SpanRecorder* rec,
               Outcome& outcome) {
  CoRuns out;
  for (std::size_t j = 0; j < fleets.size(); ++j) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      const std::uint64_t id = j * kHosts + h;
      try {
        const double cpu0 = process_cpu_s();
        const sgxpl::core::MultiEnclaveResult mix =
            co_run(fleets[j], h, false, rec, id);
        if (j == 0) {
          out.fleet0_cpu_s += process_cpu_s() - cpu0;
          out.watchdog_checks[h] = mix.driver.watchdog_checks;
        }
        const sgxpl::core::MultiEnclaveResult base =
            co_run(fleets[j], h, true, rec, id);
        out.counts.add(mix);
        out.micro_gain_pct.push_back(
            100.0 * mix.per_enclave[0].improvement_over(base.per_enclave[0]));
        for (const sgxpl::core::MultiEnclaveResult* r : {&mix, &base}) {
          for (const sgxpl::core::Metrics& m : r->per_enclave) {
            out.digest = fnv1a(out.digest, metrics_bytes(m));
          }
        }
        outcome.record(2 * kTenantsPerHost, true, "");
      } catch (const std::exception& e) {
        std::ostringstream why;
        why << "co-run of fleet " << j << " host " << h << ": " << e.what();
        outcome.record(2 * kTenantsPerHost, false, why.str());
      }
    }
  }
  return out;
}

/// Traced-run side pass: every tenant of fleet 0 replayed solo as a
/// SimulationRun under its host's configuration, stepped with per-step
/// timing (a MultiEnclaveRun does not expose its driver). Gives
/// core.step_ns.* and the check_invariants time at the tenants' ELRANGE.
/// The watchdog's share estimates each host's shared sweep as the sum of
/// its tenants' solo sweeps, times the host co-run's watchdog checks.
void tenant_layers(const Inputs& in, const CoRuns& co, SpanRecorder& rec,
                   Outcome& outcome, MetricMap& m) {
  StepTimes steps;
  std::vector<double> check_us;
  double watchdog_s = 0.0;
  const sgxpl::core::SimConfig base = host_config(in.seed);
  for (std::size_t h = 0; h < kHosts; ++h) {
    double host_sweep_us = 0.0;
    for (std::size_t t = 0; t < kTenantsPerHost; ++t) {
      const std::size_t id = h * kTenantsPerHost + t;
      try {
        sgxpl::core::SimConfig cfg = base;
        cfg.scheme = tenant_scheme(h, t, false);
        ScopedSpan span(&rec, "core.simulation", id);
        sgxpl::core::SimulationRun run(cfg, in.at(h, t));
        step_to_end(run, &steps);
        {
          ScopedSpan fin(&rec, "core.finish", id);
          run.finish();
        }
        ScopedSpan check(&rec, "sgxsim.check_invariants", id);
        std::vector<double> us;
        for (int r = 0; r < 16; ++r) {
          const Clock::time_point c0 = Clock::now();
          run.driver().check_invariants();
          us.push_back(seconds_since(c0) * 1e6);
        }
        host_sweep_us += median(us);
        check_us.insert(check_us.end(), us.begin(), us.end());
        outcome.record(1, true, "");
      } catch (const std::exception& e) {
        outcome.record(1, false, "solo tenant replay: " + std::string(e.what()));
      }
    }
    watchdog_s +=
        host_sweep_us * 1e-6 * static_cast<double>(co.watchdog_checks[h]);
  }
  fill_step_layers(steps, m);
  m["sgxsim.check_invariants_us"] = {median(check_us), "us"};
  m["sgxsim.watchdog_est_share"] = {
      co.fleet0_cpu_s > 0.0 ? watchdog_s / co.fleet0_cpu_s : 0.0, "ratio"};
}

/// Ledger counters summed over every fleet of a pass.
sgxpl::fleet::FleetLedger total_ledger(const FleetPass& p) {
  sgxpl::fleet::FleetLedger t;
  for (const sgxpl::fleet::FleetReport& r : p.reports) {
    const sgxpl::fleet::FleetLedger& l = r.ledger;
    t.tenants_total += l.tenants_total;
    t.finished += l.finished;
    t.quarantined += l.quarantined;
    t.crashes += l.crashes;
    t.torn_checkpoints += l.torn_checkpoints;
    t.checkpoints += l.checkpoints;
    t.evacuations_completed += l.evacuations_completed;
  }
  return t;
}

Cycles total_makespan(const FleetPass& p) {
  Cycles sum = 0;
  for (const sgxpl::fleet::FleetReport& r : p.reports) sum += r.makespan;
  return sum;
}

}  // namespace

WorkloadReport run_fleet_workload(const Options& opts, SpanRecorder* rec) {
  WorkloadReport rep;

  // Set-up: tenant inputs and the supervisors with their hosts, repeated
  // so the time is a median (the first repetition's calls are the traced
  // run's set-up spans). Every pass builds its own supervisors outside its
  // timed window.
  std::vector<Inputs> fleets;
  std::vector<double> trace_s;
  while (more_setup_reps(rep.setup_samples_s)) {
    fleets.clear();
    SpanRecorder* r_rec = trace_s.empty() ? rec : nullptr;
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t j = 0; j < kFleets; ++j) {
      fleets.push_back(
          make_inputs(derive_seed(opts.seed, 1000 + j), r_rec));
    }
    trace_s.push_back(seconds_since(t0));
    for (const Inputs& in : fleets) build_fleet(in, 1, false, r_rec);
    rep.setup_samples_s.push_back(seconds_since(t0));
    rep.setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }

  const Clock::time_point start = Clock::now();
  FleetPass ref = run_pass(fleets, 1, false, nullptr);
  check_fleet(ref, nullptr, kFleets, "fleet", opts, rep.outcome);
  rep.passes.push_back(ref.sample);
  std::vector<double> traced_wall, epoch_ms;
  std::uint64_t pass_id = 1;
  while (rep.passes.size() < 3 || (rec != nullptr && traced_wall.empty()) ||
         seconds_since(start) + pass_estimate(rep, rec) <= opts.seconds) {
    if (rec != nullptr) {
      ScopedSpan span(rec, "bench.pass", pass_id++);
      FleetPass t = run_pass(fleets, 1, false, rec);
      check_fleet(t, &ref.digest, kFleets, "fleet (traced)", opts,
                  rep.outcome);
      traced_wall.push_back(t.sample.wall_s);
      epoch_ms.insert(epoch_ms.end(), t.epoch_ms.begin(), t.epoch_ms.end());
    }
    FleetPass p = run_pass(fleets, 1, false, nullptr);
    ++pass_id;
    check_fleet(p, &ref.digest, kFleets, "fleet", opts, rep.outcome);
    rep.passes.push_back(p.sample);
  }

  // The same fleets with every tenant on the baseline scheme: the modelled
  // gain is the makespan the preloading tenants save.
  FleetPass base = run_pass(fleets, 1, true, nullptr);
  check_fleet(base, nullptr, kFleets, "all-baseline fleet", opts,
              rep.outcome);
  const double makespan = static_cast<double>(total_makespan(ref));
  const double base_makespan = static_cast<double>(total_makespan(base));
  rep.modelled_makespan_mcycles = makespan / 1e6;
  rep.modelled_gain_pct =
      base_makespan > 0.0 ? 100.0 * (1.0 - makespan / base_makespan) : 0.0;
  // The paper check compares like with like: the micro-benchmark tenants'
  // own DFP gain, from every host co-run against its all-baseline co-run.
  const CoRuns co = co_runs(fleets, rec, rep.outcome);
  double micro_gain = 0.0;
  for (const double g : co.micro_gain_pct) micro_gain += g;
  if (!co.micro_gain_pct.empty()) {
    micro_gain /= static_cast<double>(co.micro_gain_pct.size());
  }
  rep.paper_error_pp = std::fabs(micro_gain - kPaperMicroDfpPct);
  rep.digest = (ref.digest ^ co.digest) * 1099511628211ull;
  const sgxpl::fleet::FleetLedger led = total_ledger(ref);
  std::uint64_t replay = 0, epochs = 0;
  for (const sgxpl::fleet::FleetReport& r : ref.reports) {
    epochs += r.epochs;
    for (const sgxpl::fleet::CrashIncident& c : r.crash_incidents) {
      replay += c.rpo_steps;
    }
  }
  {
    std::ostringstream line;
    line << "fleet: " << ref.reports.size() << " fleets, " << epochs
         << " epochs, " << led.crashes << " crashes (" << led.torn_checkpoints
         << " torn), " << led.checkpoints << " checkpoints, "
         << led.evacuations_completed << " evacuations, " << led.quarantined
         << " quarantined, " << led.finished << "/" << led.tenants_total
         << " finished; makespan " << rep.modelled_makespan_mcycles
         << " Mcycles vs " << base_makespan / 1e6 << " Mcycles all-baseline";
    rep.notes.push_back(line.str());
    std::ostringstream check;
    check.precision(3);
    check << std::fixed << "paper check: micro-benchmark tenants' dfp gain "
          << "in their host co-runs modelled " << micro_gain << "% vs paper "
          << kPaperMicroDfpPct << "%";
    rep.notes.push_back(check.str());
    for (const sgxpl::fleet::FleetReport& r : ref.reports) {
      for (const sgxpl::fleet::EvacuationIncident& e : r.evacuation_incidents) {
        if (e.outcome == sgxpl::fleet::EvacuationOutcome::kUncarvable) {
          rep.notes.push_back("fleet: evacuation refused as uncarvable: " +
                              e.detail);
          break;
        }
      }
      if (rep.notes.size() > 2) break;
    }
  }

  if (rec != nullptr) {
    MetricMap& m = rep.per_layer;
    m["trace.gen_s"] = {median(trace_s), "s"};
    // K=2: the same fleets on two step-phase workers must report exactly
    // what K=1 did.
    FleetPass k2 = run_pass(fleets, 2, false, nullptr);
    check_fleet(k2, &ref.digest, kFleets, "fleet (K=2)", opts, rep.outcome);
    m["core.shard.effective_parallelism"] = {
        k2.sample.wall_s > 0.0 ? k2.sample.cpu_s / k2.sample.wall_s : 0.0,
        "ratio"};
    std::vector<double> walls;
    for (const PassSample& s : rep.passes) walls.push_back(s.wall_s);
    m["obs.trace_overhead_ratio"] = {median(traced_wall) / median(walls),
                                     "ratio"};
    m["fleet.epoch_ms.p50"] = {median(epoch_ms), "ms"};
    m["fleet.epoch_ms.p90"] = {percentile(epoch_ms, 90.0), "ms"};
    const auto count = [](std::uint64_t v) {
      return Value{static_cast<double>(v), "count"};
    };
    m["fleet.checkpoints"] = count(led.checkpoints);
    m["fleet.crashes"] = count(led.crashes);
    m["fleet.evacuations"] = count(led.evacuations_completed);
    m["fleet.quarantined"] = count(led.quarantined);
    m["fleet.replay_steps"] = count(replay);
    m["fleet.wasted_work_ratio"] = {
        static_cast<double>(replay) /
            static_cast<double>(replay + ref.sample.accesses),
        "ratio"};
    // Snapshot timing in a side pass of fleet 0, so that the traced passes'
    // wall time holds only span recording. The pass must still reproduce
    // fleet 0 of the reference pass.
    SnapshotProbe probe;
    probe.replicas.resize(kHosts);
    FleetPass side = run_fleet(fleets[0], 1, false, rec, &probe);
    check_fleet(side, ref.fleet_digests.data(), 1, "fleet 0 (snapshot probe)",
                opts, rep.outcome);
    if (probe.frames > 0) {
      m["snapshot.save_ns_per_kib"] = {probe.save_ns / probe.kib, "ns/KiB"};
      m["snapshot.load_ns_per_kib"] = {probe.load_ns / probe.kib, "ns/KiB"};
      m["snapshot.bytes"] = {probe.kib * 1024.0 /
                                 static_cast<double>(probe.frames),
                             "bytes"};
    }
    co.counts.fill(m);
    tenant_layers(fleets[0], co, *rec, rep.outcome, m);
    std::vector<const sgxpl::trace::Trace*> traces;
    for (const sgxpl::trace::Trace& t : fleets[0].traces) traces.push_back(&t);
    fill_replay_layers(traces, host_config(fleets[0].seed), *rec, m);
  }
  return rep;
}

}  // namespace perfbench
