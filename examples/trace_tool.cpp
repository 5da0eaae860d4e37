// Trace tooling: generate, inspect, and replay page-access traces from the
// command line — the glue a user needs to run their own traces through the
// simulator instead of the built-in workload models.
//
//   $ ./trace_tool gen <workload> <out.trace> [scale] [seed]
//   $ ./trace_tool info <file.trace>
//   $ ./trace_tool replay <file.trace> [scheme] [epc_mib]
//   $ ./trace_tool trace <workload> <out.json> [scheme] [scale]
//
// replay schemes: baseline dfp dfp-stop (SIP needs a plan, which is tied
// to the workload registry). `trace` works from the registry, so it also
// accepts sip and hybrid: it compiles the SIP plan on the train input,
// runs the ref input, and writes a Chrome/Perfetto trace of the run —
// open the JSON at https://ui.perfetto.dev. See docs/OBSERVABILITY.md.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/parse.h"
#include "common/table.h"
#include "core/simulator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "obs/trace_export.h"
#include "sip/pipeline.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

using namespace sgxpl;

namespace {

std::optional<core::Scheme> parse_scheme(const std::string& name) {
  if (name == "baseline") return core::Scheme::kBaseline;
  if (name == "dfp") return core::Scheme::kDfp;
  if (name == "dfp-stop") return core::Scheme::kDfpStop;
  if (name == "sip") return core::Scheme::kSip;
  if (name == "hybrid") return core::Scheme::kHybrid;
  return std::nullopt;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: trace_tool gen <workload> <out.trace> [scale] [seed]\n";
    return 1;
  }
  const auto* w = trace::find_workload(argv[2]);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << argv[2] << "'\n";
    return 1;
  }
  trace::WorkloadParams params;
  params.scale = argc > 4 ? std::atof(argv[4]) : 0.5;
  if (argc > 5) {
    const auto seed = parse_unsigned(argv[5]);
    if (!seed.has_value()) {
      std::cerr << "bad seed '" << argv[5] << "' (want an unsigned integer)\n";
      return 1;
    }
    params.seed = *seed;
  }
  const auto t = w->make(params);
  trace::save_trace(argv[3], t);
  std::cout << "wrote " << t.size() << " accesses ("
            << t.elrange_pages() << "-page ELRANGE) to " << argv[3] << '\n';
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: trace_tool info <file.trace>\n";
    return 1;
  }
  const auto t = trace::load_trace(argv[2]);
  const auto s = t.stats();
  TextTable tbl({"property", "value"});
  tbl.add_row({"name", t.name()});
  tbl.add_row({"accesses", std::to_string(s.accesses)});
  tbl.add_row({"ELRANGE (pages)", std::to_string(t.elrange_pages())});
  tbl.add_row({"footprint (pages)", std::to_string(s.footprint_pages)});
  tbl.add_row({"footprint (MiB)",
               TextTable::fmt(static_cast<double>(pages_to_bytes(
                                  s.footprint_pages)) / (1 << 20), 1)});
  tbl.add_row({"distinct sites", std::to_string(s.sites)});
  tbl.add_row({"compute cycles", std::to_string(s.compute_cycles)});
  tbl.add_row({"sequential fraction", TextTable::fmt(s.sequential_fraction, 3)});
  tbl.add_row({"recent-reuse fraction",
               TextTable::fmt(s.recent_reuse_fraction, 3)});
  std::cout << tbl.render();
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: trace_tool replay <file.trace> [scheme] [epc_mib]\n";
    return 1;
  }
  const auto t = trace::load_trace(argv[2]);
  const std::string scheme_name = argc > 3 ? argv[3] : "dfp-stop";
  core::Scheme scheme = core::Scheme::kDfpStop;
  if (scheme_name == "baseline") {
    scheme = core::Scheme::kBaseline;
  } else if (scheme_name == "dfp") {
    scheme = core::Scheme::kDfp;
  } else if (scheme_name == "dfp-stop") {
    scheme = core::Scheme::kDfpStop;
  } else {
    std::cerr << "unknown scheme '" << scheme_name
              << "' (baseline|dfp|dfp-stop)\n";
    return 1;
  }
  auto cfg = core::paper_platform(scheme);
  if (argc > 4) {
    // Bounded so the MiB-to-bytes shift cannot overflow.
    const auto mib = parse_unsigned(argv[4], 1, ~std::uint64_t{0} >> 20);
    if (!mib.has_value()) {
      std::cerr << "bad EPC size '" << argv[4]
                << "' (want a positive MiB count)\n";
      return 1;
    }
    cfg.enclave.epc_pages = bytes_to_pages(*mib << 20);
  }

  auto base_cfg = cfg;
  base_cfg.scheme = core::Scheme::kBaseline;
  const auto base = core::simulate(t, base_cfg);
  const auto run = core::simulate(t, cfg);

  TextTable tbl({"run", "cycles", "faults", "improvement"});
  tbl.add_row({"baseline", std::to_string(base.total_cycles),
               std::to_string(base.enclave_faults), "-"});
  tbl.add_row({core::to_string(scheme), std::to_string(run.total_cycles),
               std::to_string(run.enclave_faults),
               TextTable::pct(run.improvement_over(base))});
  std::cout << tbl.render();
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: trace_tool trace <workload> <out.json> "
                 "[scheme] [scale]\n";
    return 1;
  }
  const auto* w = trace::find_workload(argv[2]);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << argv[2] << "'\n";
    return 1;
  }
  const std::string out_path = argv[3];
  const std::string scheme_name = argc > 4 ? argv[4] : "dfp-stop";
  const auto scheme = parse_scheme(scheme_name);
  if (!scheme) {
    std::cerr << "unknown scheme '" << scheme_name
              << "' (baseline|dfp|dfp-stop|sip|hybrid)\n";
    return 1;
  }
  const double scale = argc > 5 ? std::atof(argv[5]) : 0.25;

  auto cfg = core::paper_platform(*scheme);
  obs::MetricsRegistry registry;
  obs::TimeSeriesSet series;
  obs::EventLog log(1u << 16);
  cfg.registry = &registry;
  cfg.timeseries = &series;
  cfg.event_log = &log;

  sip::InstrumentationPlan plan;
  if (cfg.uses_sip()) {
    auto pipeline = sip::compile_workload(*w, cfg.sip,
                                          trace::train_params(), &registry);
    plan = std::move(pipeline.plan);
    std::cout << "compiled SIP plan: " << plan.points()
              << " instrumentation points\n";
  }

  const auto t = w->make(trace::ref_params(scale));
  const auto m = core::simulate(t, cfg, cfg.uses_sip() ? &plan : nullptr);

  obs::TraceExporter exporter;
  exporter.add_events(log, /*pid=*/0, w->info.name);
  exporter.add_time_series(series);
  std::string err;
  if (!exporter.write(out_path, &err)) {
    std::cerr << "failed to write " << out_path << ": " << err << '\n';
    return 1;
  }
  std::cout << core::to_string(*scheme) << " on " << w->info.name
            << " (scale " << scale << "): " << m.total_cycles << " cycles, "
            << m.enclave_faults << " faults\n"
            << "wrote " << exporter.size() << " trace events to " << out_path
            << (log.dropped() > 0
                    ? "\n(ring buffer dropped " +
                          std::to_string(log.dropped()) +
                          " oldest events; only the tail is in the trace)"
                    : "")
            << "\nopen it at https://ui.perfetto.dev or chrome://tracing\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") {
    return cmd_gen(argc, argv);
  }
  if (cmd == "info") {
    return cmd_info(argc, argv);
  }
  if (cmd == "replay") {
    return cmd_replay(argc, argv);
  }
  if (cmd == "trace") {
    return cmd_trace(argc, argv);
  }
  std::cerr << "usage: trace_tool <gen|info|replay|trace> ...\n";
  return 1;
}
