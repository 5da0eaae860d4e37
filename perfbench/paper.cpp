// The two paper workloads: every (workload, scheme) simulation of the
// large-regular or the irregular set, run back to back on one thread.
#include <cmath>
#include <exception>
#include <sstream>

#include "bench.h"
#include "common/check.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "sip/pipeline.h"
#include "trace/workloads.h"

namespace perfbench {
namespace {

using sgxpl::core::Scheme;

struct SetDef {
  std::vector<std::string> workloads;
  std::vector<Scheme> schemes;  // baseline first: it is every gain's base
  Scheme headline;
};

const SetDef& set_def(const std::string& name) {
  static const SetDef regular{
      {"microbenchmark", "bwaves", "lbm", "wrf", "SIFT"},
      {Scheme::kBaseline, Scheme::kDfp, Scheme::kDfpStop},
      Scheme::kDfpStop};
  static const SetDef irregular{
      {"mcf", "mcf.2006", "deepsjeng", "xz", "omnetpp", "roms", "MSER",
       "mixed-blood"},
      {Scheme::kBaseline, Scheme::kDfp, Scheme::kDfpStop, Scheme::kSip,
       Scheme::kHybrid},
      Scheme::kHybrid};
  return name == "paper-regular" ? regular : irregular;
}

/// The paper platform (96 MiB EPC, paper cycle constants and DFP/SIP
/// parameters) with the end-of-run structural validation on.
sgxpl::core::SimConfig platform(Scheme scheme) {
  sgxpl::core::SimConfig cfg = sgxpl::core::paper_platform(scheme);
  cfg.validate = true;
  return cfg;
}

struct Case {
  const sgxpl::trace::Workload* workload = nullptr;
  sgxpl::trace::Trace ref;
  sgxpl::sip::InstrumentationPlan plan;  // empty when SIP cannot instrument
};

struct Setup {
  std::vector<Case> cases;
  double trace_s = 0.0;
  double sip_s = 0.0;
};

Setup set_up(const SetDef& def, const Options& opts, SpanRecorder* rec) {
  bool needs_sip = false;
  for (const Scheme s : def.schemes) {
    needs_sip = needs_sip || platform(s).uses_sip();
  }
  Setup out;
  for (std::size_t i = 0; i < def.workloads.size(); ++i) {
    Case c;
    c.workload = sgxpl::trace::find_workload(def.workloads[i]);
    SGXPL_CHECK_MSG(c.workload != nullptr, "unknown workload");
    sgxpl::trace::WorkloadParams ref = sgxpl::trace::ref_params();
    ref.seed = derive_seed(opts.seed, 2 * i);
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(rec, "trace.make", i);
      c.ref = c.workload->make(ref);
    }
    out.trace_s += seconds_since(t0);
    if (needs_sip && c.workload->info.sip_supported) {
      sgxpl::trace::WorkloadParams train =
          sgxpl::trace::train_params();
      train.seed = derive_seed(opts.seed, 2 * i + 1);
      t0 = Clock::now();
      {
        ScopedSpan span(rec, "sip.compile_workload", i);
        c.plan = sgxpl::sip::compile_workload(
                     *c.workload, platform(Scheme::kSip).sip,
                     train)
                     .plan;
      }
      out.sip_s += seconds_since(t0);
    }
    out.cases.push_back(std::move(c));
  }
  return out;
}

struct OpResult {
  bool ok = false;
  std::string why;
  sgxpl::core::Metrics metrics;
  std::vector<std::uint8_t> bytes;  // Metrics::save, the repeat's yardstick
};

OpResult run_op(const Case& c, Scheme scheme, std::uint64_t id,
                SpanRecorder* rec, StepTimes* steps) {
  OpResult r;
  try {
    const sgxpl::core::SimConfig cfg = platform(scheme);
    ScopedSpan span(rec, "core.simulation", id);
    sgxpl::core::SimulationRun run(cfg, c.ref,
                                   cfg.uses_sip() ? &c.plan : nullptr);
    step_to_end(run, steps);
    {
      // finish() drains the channel and runs the validate sweep.
      ScopedSpan fin(rec, "core.finish", id);
      r.metrics = run.finish();
    }
    r.bytes = metrics_bytes(r.metrics);
    r.ok = true;
  } catch (const std::exception& e) {
    r.why = e.what();
  }
  return r;
}

struct Pass {
  std::vector<OpResult> ops;
  PassSample sample;
};

Pass run_pass(const SetDef& def, const Setup& setup, std::uint64_t pass_id,
              SpanRecorder* rec, StepTimes* steps) {
  Pass p;
  ScopedSpan span(rec, "bench.pass", pass_id);
  for (std::size_t i = 0; i < setup.cases.size(); ++i) {
    for (std::size_t j = 0; j < def.schemes.size(); ++j) {
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      p.ops.push_back(run_op(setup.cases[i], def.schemes[j],
                             i * def.schemes.size() + j, rec, steps));
      p.sample.add_op(seconds_since(t0), process_cpu_s() - cpu0,
                      p.ops.back().ok ? setup.cases[i].ref.size() : 0);
    }
  }
  return p;
}

std::string op_label(const SetDef& def, std::size_t k) {
  const std::size_t n = def.schemes.size();
  return def.workloads[k / n] + "/" + sgxpl::core::to_string(def.schemes[k % n]);
}

/// Count pass `p` into the ledger: every op must have finished (validate
/// passed) and, for repeats, serialize byte-identically to the same op of
/// the reference pass.
void check_pass(Pass& p, const Pass* ref, const SetDef& def,
                const Options& opts, Outcome& outcome) {
  if (opts.inject_mismatch && ref != nullptr && !p.ops.empty() &&
      !p.ops[0].bytes.empty()) {
    p.ops[0].bytes.back() ^= 0x01;
  }
  for (std::size_t k = 0; k < p.ops.size(); ++k) {
    const OpResult& op = p.ops[k];
    if (!op.ok) {
      outcome.record(1, false, op_label(def, k) + ": " + op.why);
    } else if (ref != nullptr && op.bytes != ref->ops[k].bytes) {
      outcome.record(1, false,
                     op_label(def, k) + ": result differs from its repeat");
    } else {
      outcome.record(1, true, "");
    }
  }
}

/// One modelled number next to the paper's published value.
struct Reference {
  std::string label;
  double modelled_pct = 0.0;
  double paper_pct = 0.0;
};

class Gains {
 public:
  Gains(const SetDef& def, const Pass& p) : def_(def), p_(p) {}
  /// Improvement of `s` over baseline on `workload`, percent.
  double of(const std::string& workload, Scheme s) const {
    const std::size_t n = def_.schemes.size();
    std::size_t i = 0;
    while (def_.workloads[i] != workload) ++i;
    std::size_t j = 0;
    while (def_.schemes[j] != s) ++j;
    return 100.0 * p_.ops[i * n + j].metrics.improvement_over(
                       p_.ops[i * n].metrics);
  }

 private:
  const SetDef& def_;
  const Pass& p_;
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// The paper's published values this set can be held against (the same
/// ones bench/fig8, fig10, fig11 and fig13 print).
std::vector<Reference> references(const std::string& workload,
                                  const Gains& g) {
  std::vector<Reference> out;
  if (workload == "paper-regular") {
    out.push_back({"microbenchmark dfp", g.of("microbenchmark", Scheme::kDfp),
                   18.6});
    out.push_back({"lbm dfp", g.of("lbm", Scheme::kDfp), 13.3});
    std::vector<double> regular;
    for (const char* w : {"microbenchmark", "bwaves", "lbm", "wrf"}) {
      regular.push_back(g.of(w, Scheme::kDfp));
    }
    out.push_back({"regular average dfp", mean(regular), 11.4});
    out.push_back({"SIFT dfp-stop", g.of("SIFT", Scheme::kDfpStop), 9.5});
    return out;
  }
  out.push_back({"deepsjeng sip", g.of("deepsjeng", Scheme::kSip), 9.0});
  out.push_back({"mcf.2006 sip", g.of("mcf.2006", Scheme::kSip), 4.9});
  out.push_back({"mcf sip", g.of("mcf", Scheme::kSip), 0.0});
  out.push_back({"MSER sip", g.of("MSER", Scheme::kSip), 3.0});
  out.push_back({"mixed-blood sip", g.of("mixed-blood", Scheme::kSip), 1.6});
  out.push_back(
      {"mixed-blood dfp-stop", g.of("mixed-blood", Scheme::kDfpStop), 6.0});
  out.push_back(
      {"mixed-blood hybrid", g.of("mixed-blood", Scheme::kHybrid), 7.1});
  // Fig. 8's irregular overhead: averaged over the irregular large-working-
  // set benchmarks DFP slows down.
  std::vector<double> dfp_overhead, stop_overhead;
  for (const char* w :
       {"mcf", "mcf.2006", "deepsjeng", "xz", "omnetpp", "roms"}) {
    const double dfp = g.of(w, Scheme::kDfp);
    if (dfp < 0.0) {
      dfp_overhead.push_back(-dfp);
      stop_overhead.push_back(std::max(0.0, -g.of(w, Scheme::kDfpStop)));
    }
  }
  if (!dfp_overhead.empty()) {
    out.push_back({"irregular overhead dfp", mean(dfp_overhead), 38.52});
    out.push_back({"irregular overhead dfp-stop", mean(stop_overhead), 2.82});
  }
  return out;
}

void fill_fidelity(const SetDef& def, const Pass& p0, const Options& opts,
                   WorkloadReport& rep) {
  const Gains g(def, p0);
  std::vector<double> headline;
  double makespan = 0.0;
  for (const std::string& w : def.workloads) {
    headline.push_back(g.of(w, def.headline));
  }
  const std::size_t n = def.schemes.size();
  std::size_t h = 0;
  while (def.schemes[h] != def.headline) ++h;
  for (std::size_t i = 0; i < def.workloads.size(); ++i) {
    makespan += static_cast<double>(p0.ops[i * n + h].metrics.total_cycles);
  }
  rep.modelled_gain_pct = mean(headline);
  rep.modelled_makespan_mcycles = makespan / 1e6;
  double abs_err = 0.0;
  const std::vector<Reference> refs = references(opts.workload, g);
  for (const Reference& r : refs) {
    abs_err += std::fabs(r.modelled_pct - r.paper_pct);
    std::ostringstream line;
    line.precision(3);
    line << std::fixed << "paper check: " << r.label << " modelled "
         << r.modelled_pct << "% vs paper " << r.paper_pct << "%";
    rep.notes.push_back(line.str());
  }
  rep.paper_error_pp = abs_err / static_cast<double>(refs.size());
  for (const OpResult& op : p0.ops) rep.digest = fnv1a(rep.digest, op.bytes);
}

}  // namespace

WorkloadReport run_paper_workload(const Options& opts, SpanRecorder* rec) {
  const SetDef& def = set_def(opts.workload);
  WorkloadReport rep;

  // Set-up (input generation + SIP plan compilation), repeated so its time
  // is a median; the last repetition's inputs are the ones measured, the
  // first one's calls are the traced run's set-up spans.
  Setup setup;
  std::vector<double> trace_s, sip_s;
  while (more_setup_reps(rep.setup_samples_s)) {
    setup = Setup{};
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    setup = set_up(def, opts, trace_s.empty() ? rec : nullptr);
    rep.setup_samples_s.push_back(seconds_since(t0));
    rep.setup_cpu_s.push_back(process_cpu_s() - cpu0);
    trace_s.push_back(setup.trace_s);
    sip_s.push_back(setup.sip_s);
  }

  // Closed loop. Pass 0 is the reference every later pass must reproduce
  // byte for byte; the traced run interleaves traced passes so the ratio
  // of the two is the tracing overhead.
  const Clock::time_point start = Clock::now();
  Pass ref = run_pass(def, setup, 0, nullptr, nullptr);
  check_pass(ref, nullptr, def, opts, rep.outcome);
  rep.passes.push_back(ref.sample);
  StepTimes steps;
  std::vector<double> traced_wall, traced_cpu;
  std::uint64_t pass_id = 1;
  while (rep.passes.size() < 3 || (rec != nullptr && traced_wall.empty()) ||
         seconds_since(start) + pass_estimate(rep, rec) <= opts.seconds) {
    if (rec != nullptr) {
      Pass t = run_pass(def, setup, pass_id++, rec, &steps);
      check_pass(t, &ref, def, opts, rep.outcome);
      traced_wall.push_back(t.sample.wall_s);
      traced_cpu.push_back(t.sample.cpu_s);
    }
    Pass p = run_pass(def, setup, pass_id++, nullptr, nullptr);
    check_pass(p, &ref, def, opts, rep.outcome);
    rep.passes.push_back(p.sample);
  }

  fill_fidelity(def, ref, opts, rep);
  if (rec != nullptr) {
    MetricMap& m = rep.per_layer;
    m["trace.gen_s"] = {median(trace_s), "s"};
    m["sip.compile_s"] = {median(sip_s), "s"};
    std::vector<double> parallelism;
    for (std::size_t i = 0; i < traced_wall.size(); ++i) {
      parallelism.push_back(traced_cpu[i] / traced_wall[i]);
    }
    m["core.shard.effective_parallelism"] = {median(parallelism), "ratio"};
    std::vector<double> walls;
    for (const PassSample& s : rep.passes) walls.push_back(s.wall_s);
    m["obs.trace_overhead_ratio"] = {median(traced_wall) / median(walls),
                                     "ratio"};
    RunCounts counts;
    for (const OpResult& op : ref.ops) counts.add(op.metrics);
    counts.fill(m);
    fill_step_layers(steps, m);
    std::vector<const sgxpl::trace::Trace*> traces;
    for (const Case& c : setup.cases) traces.push_back(&c.ref);
    fill_replay_layers(traces, platform(Scheme::kDfp), *rec, m);
  }
  return rep;
}

}  // namespace perfbench
