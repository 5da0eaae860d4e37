#include "bench_common.h"

#include <charconv>
#include <cstdlib>
#include <iostream>

#include "core/sharding.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/time_series.h"
#include "obs/trace_export.h"
#include "sgxsim/epc.h"
#include "snapshot/codec.h"

namespace sgxpl::bench {

namespace {

struct RecordedTable {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

struct HarnessState {
  std::string bench;
  std::string reproduces;
  std::string json_path;
  std::string trace_path;
  std::string profile_path;
  std::vector<RecordedTable> tables;
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::pair<std::string, std::string>> notes;
  obs::MetricsRegistry registry;
  obs::TimeSeriesSet series;
  obs::EventLog event_log{1 << 16};
  obs::Profiler profiler;  // disabled unless --profile was given
  inject::ChaosPlan chaos;  // nothing enabled unless --chaos was given
  core::CheckpointOptions checkpoint;  // off unless --checkpoint/--resume
  std::string fail_dir;                // empty unless --fail-dir
  std::uint64_t shards = 1;            // --shards: step-phase worker threads
};

HarnessState& state() {
  static HarnessState s;
  return s;
}

}  // namespace

std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                            std::uint64_t lo,
                                            std::uint64_t hi) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v, base);
  if (ec != std::errc{} || ptr != last || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

double bench_scale() {
  if (const char* env = std::getenv("SGXPL_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) {
      return s;
    }
  }
  return 1.0;
}

core::SimConfig bench_platform(core::Scheme scheme) {
  core::SimConfig cfg = core::paper_platform(scheme);
  const double s = bench_scale();
  if (s != 1.0) {
    cfg.enclave.epc_pages = static_cast<PageNum>(
        static_cast<double>(sgxsim::kDefaultEpcPages) * s);
  }
  auto& st = state();
  if (!st.json_path.empty()) {
    cfg.registry = &st.registry;
  }
  if (!st.trace_path.empty()) {
    cfg.event_log = &st.event_log;
    cfg.timeseries = &st.series;
  }
  if (!st.profile_path.empty()) {
    cfg.profiler = &st.profiler;
  }
  cfg.chaos = st.chaos;
  cfg.checkpoint = st.checkpoint;
  return cfg;
}

core::ExperimentOptions bench_options() {
  const double s = bench_scale();
  return core::ExperimentOptions{.scale = s, .train_scale = 0.35 * s};
}

void init(int argc, char** argv, const std::string& bench,
          const std::string& reproduces) {
  auto& st = state();
  st.bench = bench;
  st.reproduces = reproduces;
  std::string chaos_spec;
  std::uint64_t chaos_seed = st.chaos.seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--trace" || arg == "--profile" ||
        arg == "--chaos" || arg == "--seed" || arg == "--checkpoint" ||
        arg == "--checkpoint-every" || arg == "--full-every" ||
        arg == "--resume" || arg == "--fail-dir" || arg == "--shards") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " requires a value\n";
        std::exit(2);
      }
      const std::string value = argv[++i];
      // Every numeric flag goes through one strict parse: a sign, a stray
      // suffix or an out-of-range count is an error, never a wrapped value.
      const auto unsigned_value = [&](const char* what, std::uint64_t lo,
                                      std::uint64_t hi) {
        const auto v = parse_unsigned(value, lo, hi);
        if (!v.has_value()) {
          std::cerr << "error: " << arg << " wants " << what << " in [" << lo
                    << ", " << hi << "], got '" << value << "'\n";
          std::exit(2);
        }
        return *v;
      };
      constexpr std::uint64_t kAny = ~std::uint64_t{0};
      if (arg == "--json") {
        st.json_path = value;
      } else if (arg == "--trace") {
        st.trace_path = value;
      } else if (arg == "--profile") {
        st.profile_path = value;
        st.profiler.set_enabled(true);
      } else if (arg == "--chaos") {
        chaos_spec = value;
      } else if (arg == "--checkpoint") {
        st.checkpoint.path = value;
        if (st.checkpoint.every_accesses == 0) {
          st.checkpoint.every_accesses = 65536;
        }
      } else if (arg == "--checkpoint-every") {
        st.checkpoint.every_accesses =
            unsigned_value("an access count", 1, kAny);
      } else if (arg == "--full-every") {
        st.checkpoint.full_every = unsigned_value("a checkpoint count", 1, kAny);
      } else if (arg == "--resume") {
        st.checkpoint.resume_path = value;
      } else if (arg == "--fail-dir") {
        st.fail_dir = value;
      } else if (arg == "--shards") {
        st.shards = unsigned_value("a worker count", 1, core::kMaxShardThreads);
      } else {
        chaos_seed = unsigned_value("a seed", 0, kAny);
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << bench
                << " [--json <out.json>] [--trace <out-trace.json>]\n"
                   "       [--profile <out-profile.json>]\n"
                   "       [--chaos <spec>] [--seed <n>]\n"
                   "       [--checkpoint <snap>] [--checkpoint-every <n>]\n"
                   "       [--full-every <n>] [--resume <snap>]\n"
                   "       [--fail-dir <dir>] [--shards <k>]\n"
                   "--shards runs fleet phases and independent cells on k\n"
                   "  worker threads, 1..256 (results are bit-identical for\n"
                   "  every k; default 1). Numbers are decimal or 0x-hex.\n"
                   "--profile writes the merged phase-profile JSON (also\n"
                   "  embedded in --json under \"profile\" and as a flame\n"
                   "  track in --trace output; see docs/OBSERVABILITY.md).\n"
                   "--chaos spec: \"all\", \"none\", or comma-separated\n"
                   "  name[:probability[:magnitude]] entries (see\n"
                   "  docs/ROBUSTNESS.md); --seed replays a schedule.\n"
                   "--checkpoint writes a crash-consistent snapshot every\n"
                   "  65536 accesses (tune with --checkpoint-every);\n"
                   "  --full-every n emits a full base every n checkpoints\n"
                   "  and delta frames in between; --resume restores a\n"
                   "  base (+ deltas) before running.\n"
                   "SGXPL_SCALE=<s> scales workloads (default 1.0).\n";
      std::exit(0);
    } else {
      std::cerr << "warning: unknown argument '" << arg << "' (ignored)\n";
    }
  }
  if (!chaos_spec.empty()) {
    std::string err;
    const auto plan = inject::ChaosPlan::parse(chaos_spec, &err);
    if (!plan.has_value()) {
      std::cerr << "error: --chaos '" << chaos_spec << "': " << err << '\n';
      std::exit(2);
    }
    st.chaos = *plan;
  }
  st.chaos.seed = chaos_seed;
  if (!st.checkpoint.resume_path.empty() &&
      snapshot::file_readable(st.checkpoint.resume_path)) {
    // Fail fast with a clean exit on an unusable snapshot instead of
    // aborting mid-bench: walk the whole frame (magic, version, every
    // section CRC, every field) without applying anything.
    try {
      const auto bytes = snapshot::read_file(st.checkpoint.resume_path);
      snapshot::Reader r(bytes);
      while (r.sections_entered() < r.section_count()) {
        r.enter_any_section();
        while (r.more_fields()) {
          r.next_field();
        }
        r.leave_section();
      }
    } catch (const CheckFailure& e) {
      std::cerr << "error: --resume " << st.checkpoint.resume_path << ": "
                << e.what() << '\n';
      std::exit(2);
    }
  }
  std::cout << "=== " << bench << " ===\n"
            << "Reproduces: " << reproduces << "\n"
            << "Scale: " << bench_scale()
            << " (EPC " << bench_platform().enclave.epc_pages << " pages; "
            << "set SGXPL_SCALE to change)\n";
  if (st.chaos.any_enabled()) {
    std::cout << "Chaos: " << st.chaos.describe() << "\n";
  }
  std::cout << "\n";
}

void print_table(const std::string& name, const TextTable& tbl) {
  std::cout << tbl.render();
  auto& st = state();
  std::string unique = name;
  int n = 1;
  for (const auto& t : st.tables) {
    if (t.name == name) {
      unique = name + "." + std::to_string(++n);
    }
  }
  st.tables.push_back(RecordedTable{unique, tbl.header(), tbl.row_data()});
}

void add_scalar(const std::string& name, double value) {
  state().scalars.emplace_back(name, value);
}

void add_note(const std::string& name, const std::string& text) {
  state().notes.emplace_back(name, text);
}

obs::MetricsRegistry& registry() { return state().registry; }

obs::Profiler& profiler() { return state().profiler; }

const inject::ChaosPlan& chaos_plan() { return state().chaos; }

const core::CheckpointOptions& checkpoint_options() {
  return state().checkpoint;
}

const std::string& fail_dir() { return state().fail_dir; }

std::uint64_t shards() { return state().shards; }

namespace {

std::string result_document() {
  auto& st = state();
  // Ring-buffer overflow is otherwise invisible: surface it as a counter
  // so a truncated --trace event stream can be detected from the JSON.
  // Always written (0 without --trace) so the key is predictable.
  st.registry.counter("obs.events_dropped").add(st.event_log.dropped());
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "sgxpl-bench-result/v1")
      .kv("bench", st.bench)
      .kv("reproduces", st.reproduces)
      .kv("scale", bench_scale())
      .kv("epc_pages",
          static_cast<std::uint64_t>(bench_platform().enclave.epc_pages));
  if (st.chaos.any_enabled()) {
    w.kv("chaos", st.chaos.spec()).kv("chaos_seed", st.chaos.seed);
  }
  w.key("tables").begin_array();
  for (const auto& t : st.tables) {
    w.begin_object();
    w.kv("name", t.name);
    w.key("columns").begin_array();
    for (const auto& c : t.columns) {
      w.value(c);
    }
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_array();
      for (const auto& cell : row) {
        w.value(cell);
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("scalars").begin_object();
  for (const auto& [name, v] : st.scalars) {
    w.kv(name, v);
  }
  w.end_object();
  w.key("notes").begin_object();
  for (const auto& [name, text] : st.notes) {
    w.kv(name, text);
  }
  w.end_object();
  w.key("metrics");
  st.registry.write_json(w);
  if (st.profiler.enabled()) {
    w.key("profile");
    st.profiler.profile().write_json(w);
  }
  w.end_object();
  return w.take();
}

}  // namespace

int finish() {
  auto& st = state();
  int rc = 0;
  std::string err;
  if (!st.json_path.empty()) {
    if (obs::write_file(st.json_path, result_document(), &err)) {
      std::cout << "\n[wrote JSON results to " << st.json_path << "]\n";
    } else {
      std::cerr << "error: " << err << '\n';
      rc = 1;
    }
  }
  if (!st.profile_path.empty()) {
    obs::JsonWriter w;
    st.profiler.profile().write_json(w);
    if (obs::write_file(st.profile_path, w.take(), &err)) {
      std::cout << "[wrote phase profile to " << st.profile_path << "]\n";
    } else {
      std::cerr << "error: " << err << '\n';
      rc = 1;
    }
  }
  if (!st.trace_path.empty()) {
    obs::TraceExporter exp;
    exp.add_events(st.event_log, /*pid=*/0, st.bench);
    exp.add_time_series(st.series);
    if (st.profiler.enabled()) {
      exp.add_profile(st.profiler.profile());
    }
    if (exp.write(st.trace_path, &err)) {
      std::cout << "[wrote Perfetto trace (" << exp.size() << " events) to "
                << st.trace_path << "]\n";
    } else {
      std::cerr << "error: " << err << '\n';
      rc = 1;
    }
  }
  return rc;
}

std::string fmt_improvement(std::optional<double> v) {
  return v.has_value() ? TextTable::pct(*v) : std::string("-");
}

std::string fmt_normalized(double v) { return TextTable::fmt(v, 3); }

}  // namespace sgxpl::bench
