// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload <paper-regular|paper-irregular|fleet-chaos>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--inject-mismatch]
//
// Prints host facts, every metric with its unit, spread and CPU time, the
// modelled results' digest, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 0 when every
// operation passed its checks, 1 when one failed, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

/// In BENCHMARK.json order.
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper-regular",
                                              "paper-irregular", "fleet-chaos"};
  return names;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
/// not exercise reports 0.
const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs{
      {"trace.gen_s", "s"},
      {"sip.compile_s", "s"},
      {"sip.checks", "count"},
      {"sip.loads", "count"},
      {"sip.useful_ratio", "ratio"},
      {"core.step_ns.resident", "ns"},
      {"core.step_ns.fault", "ns"},
      {"core.step_ns.sip_load", "ns"},
      {"core.shard.effective_parallelism", "ratio"},
      {"sgxsim.driver_access_ns", "ns"},
      {"sgxsim.faults", "count"},
      {"sgxsim.evictions", "count"},
      {"sgxsim.demand_loads", "count"},
      {"sgxsim.fault_wait_hits", "count"},
      {"sgxsim.fault_stall_mcycles", "Mcycles"},
      {"sgxsim.channel.ops", "count"},
      {"sgxsim.retries", "count"},
      {"sgxsim.lost_completions", "count"},
      {"sgxsim.permanent_faults", "count"},
      {"sgxsim.preloads_shed", "count"},
      {"sgxsim.check_invariants_us", "us"},
      {"sgxsim.watchdog_checks", "count"},
      {"sgxsim.watchdog_est_share", "ratio"},
      {"dfp.on_fault_ns", "ns"},
      {"dfp.preloads_issued", "count"},
      {"dfp.preloads_used", "count"},
      {"dfp.preload_useful_ratio", "ratio"},
      {"dfp.preloads_evicted_unused", "count"},
      {"dfp.predictor_hit_ratio", "ratio"},
      {"dfp.stopped_runs", "count"},
      {"inject.fired", "count"},
      {"snapshot.save_ns_per_kib", "ns/KiB"},
      {"snapshot.load_ns_per_kib", "ns/KiB"},
      {"snapshot.bytes", "bytes"},
      {"fleet.epoch_ms.p50", "ms"},
      {"fleet.epoch_ms.p90", "ms"},
      {"fleet.checkpoints", "count"},
      {"fleet.crashes", "count"},
      {"fleet.evacuations", "count"},
      {"fleet.quarantined", "count"},
      {"fleet.replay_steps", "count"},
      {"fleet.wasted_work_ratio", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"trace.self_s", "s"},
      {"sip.self_s", "s"},
      {"core.self_s", "s"},
      {"sgxsim.self_s", "s"},
      {"dfp.self_s", "s"},
      {"snapshot.self_s", "s"},
      {"fleet.self_s", "s"},
      {"bench.self_s", "s"},
  };
  return defs;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.substr(0, s.find('\0'));
    const std::size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--inject-mismatch") {
      o.inject_mismatch = true;
      continue;
    }
    if ((v = next()) == nullptr) {
      std::cerr << "perfbench: " << a << " needs a value\n";
      return false;
    }
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") {
        std::cerr << "perfbench: --trace takes 0 or 1\n";
        return false;
      }
      o.trace = t == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      std::cerr << "perfbench: unknown argument " << a << "\n";
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      std::cerr << "perfbench: bad value for " << a << ": " << v << "\n";
      return false;
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == o.workload;
  if (!known) {
    std::cerr << "perfbench: --workload must be one of paper-regular, "
                 "paper-irregular, fleet-chaos\n";
    return false;
  }
  if (!(o.seconds > 0.0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return false;
  }
  return true;
}

std::string num(double v) {
  std::ostringstream s;
  s << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
  return s.str();
}

std::string short_num(double v) {
  std::ostringstream s;
  s << std::setprecision(5) << v;
  return s.str();
}

/// "median (min..max, IQR q1..q3) over n" for a list of samples.
std::string spread(const std::vector<double>& v) {
  if (v.empty()) return "no samples";
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  std::ostringstream out;
  out << short_num(median(s)) << " (min " << short_num(s.front()) << ", max "
      << short_num(s.back()) << ", q1 " << short_num(percentile(s, 25.0))
      << ", q3 " << short_num(percentile(s, 75.0)) << "; n=" << s.size() << ")";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace << "\n";
  std::cout << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\""
            << cpu_model() << "\" compiler=\"" << __VERSION__
            << "\" build_type=" << PERFBENCH_BUILD_TYPE << " flags=\""
            << PERFBENCH_CXX_FLAGS << "\"\n";
#ifndef __OPTIMIZE__
  std::cout << "warning: this build is not optimized; wall numbers are not "
               "comparable\n";
#endif

  SpanRecorder recorder;
  SpanRecorder* rec = opts.trace ? &recorder : nullptr;
  WorkloadReport rep;
  try {
    rep = opts.workload == "fleet-chaos" ? run_fleet_workload(opts, rec)
                                         : run_paper_workload(opts, rec);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  // End-to-end figures. Every pass repeats the same ops, so each op's
  // wall and CPU time is its median over the passes, and a pass's worth of
  // work is the sum of those medians: a host stall that hits one op in one
  // pass does not move the result.
  std::vector<double> rate, cpu_per_m, wall, cpu;
  for (const PassSample& p : rep.passes) {
    rate.push_back(static_cast<double>(p.accesses) / p.wall_s);
    cpu_per_m.push_back(p.cpu_s / (static_cast<double>(p.accesses) / 1e6));
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
  }
  double op_wall = 0.0, op_cpu = 0.0, op_accesses = 0.0;
  for (std::size_t k = 0; k < rep.passes.front().op_wall_s.size(); ++k) {
    std::vector<double> w, c;
    for (const PassSample& p : rep.passes) {
      w.push_back(p.op_wall_s[k]);
      c.push_back(p.op_cpu_s[k]);
    }
    op_wall += median(w);
    op_cpu += median(c);
    op_accesses += static_cast<double>(rep.passes.front().op_accesses[k]);
  }
  MetricMap e2e;
  e2e["sim_accesses_per_s"] = {op_accesses / op_wall, "1/s"};
  e2e["cpu_s_per_maccess"] = {op_cpu / (op_accesses / 1e6), "s"};
  e2e["setup_s"] = {median(rep.setup_samples_s), "s"};
  e2e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  e2e["modelled_gain_pct"] = {rep.modelled_gain_pct, "%"};
  e2e["paper_error_pp"] = {rep.paper_error_pp, "pp"};
  e2e["modelled_makespan_mcycles"] = {rep.modelled_makespan_mcycles,
                                      "Mcycles"};

  std::cout << "closed loop: one thread, " << rep.passes.size()
            << " untraced passes of "
            << rep.passes.front().op_wall_s.size() << " ops each\n"
            << "  pass wall_s  " << spread(wall) << "\n"
            << "  pass cpu_s   " << spread(cpu) << "\n"
            << "  setup wall_s " << spread(rep.setup_samples_s) << "\n"
            << "  setup cpu_s  " << spread(rep.setup_cpu_s) << "\n"
            << "  per-pass sim_accesses_per_s  " << spread(rate) << "\n"
            << "  per-pass cpu_s_per_maccess   " << spread(cpu_per_m) << "\n";
  for (const auto& [name, v] : e2e) {
    std::cout << "metric " << name << " = " << short_num(v.value) << " "
              << v.unit << "\n";
  }
  const double failed_frac =
      rep.outcome.attempted > 0
          ? static_cast<double>(rep.outcome.failed) /
                static_cast<double>(rep.outcome.attempted)
          : 1.0;
  std::cout << "metric failed_frac = " << failed_frac << " ("
            << rep.outcome.failed << " of " << rep.outcome.attempted
            << " operations)\n";
  for (const std::string& f : rep.outcome.failures) {
    std::cout << "FAILED " << f << "\n";
  }
  for (const std::string& n : rep.notes) std::cout << "note: " << n << "\n";
  std::cout << "note: result digest " << std::hex << rep.digest << std::dec
            << " (modelled results; equal across traced and untraced runs)\n";

  const MetricMap* out = &e2e;
  MetricMap layers;
  if (opts.trace) {
    layers = rep.per_layer;
    for (const auto& [layer, s] : recorder.self_seconds()) {
      layers[layer + ".self_s"] = {s, "s"};
    }
    MetricMap ordered;
    for (const MetricDef& d : per_layer_defs()) {
      const auto it = layers.find(d.name);
      ordered[d.name] = {it == layers.end() ? 0.0 : it->second.value, d.unit};
      if (it != layers.end()) layers.erase(it);
      std::cout << "layer " << d.name << " = "
                << short_num(ordered[d.name].value) << " " << d.unit << "\n";
    }
    if (!layers.empty()) {
      std::cerr << "perfbench: undeclared per-layer metric "
                << layers.begin()->first << "\n";
      return 1;
    }
    layers = std::move(ordered);
    out = &layers;
    if (!opts.trace_out.empty()) {
      if (recorder.write_chrome_trace(opts.trace_out)) {
        std::cout << "note: spans written to " << opts.trace_out << " ("
                  << recorder.spans().size() << " spans)\n";
      } else {
        std::cerr << "perfbench: cannot write " << opts.trace_out << "\n";
        return 1;
      }
    }
  }

  const bool correct = rep.outcome.failed == 0 && rep.outcome.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rep.outcome.attempted
            << ", \"failed\": " << rep.outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : *out) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << num(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
