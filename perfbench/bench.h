// Shared pieces of the repository benchmark (see README.md): options, the
// measured-pass bookkeeping, the in-memory span recorder of the traced run,
// and the per-workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/multi_enclave.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "trace/access.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: corrupt the serialized result of one repeated operation so
  /// the same-seed check must count it as failed.
  bool inject_mismatch = false;
  /// Where the traced run writes its Chrome-trace JSON.
  std::string trace_out;
};

double seconds_since(Clock::time_point t0);
/// Process CPU seconds (user + system, all threads) from getrusage.
double process_cpu_s();
/// Peak resident set of the process, MiB.
double peak_rss_mib();

/// A deterministic 64-bit mix (splitmix64) for deriving input seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a over bytes, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes);
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// One timed pass of a workload's closed loop, op by op (an op is one
/// simulation run, or one fleet run to completion).
struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t accesses = 0;  // simulated accesses completed (no replay)
  std::vector<double> op_wall_s, op_cpu_s;
  std::vector<std::uint64_t> op_accesses;

  void add_op(double wall, double cpu, std::uint64_t acc);
};

/// Correctness ledger: an operation is one simulation run or one fleet
/// tenant.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the log

  void record(std::uint64_t ops, bool ok, const std::string& why);
};

/// A metric value with its unit.
struct Value {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Value>;

/// What one workload run produced.
struct WorkloadReport {
  std::vector<PassSample> passes;        // untraced, measured
  std::vector<double> setup_samples_s;   // repeated set-up timings, wall
  std::vector<double> setup_cpu_s;       // ... and their CPU seconds
  Outcome outcome;
  /// Modelled (deterministic per seed) end-to-end numbers.
  double modelled_gain_pct = 0.0;
  double paper_error_pp = 0.0;
  double modelled_makespan_mcycles = 0.0;
  std::uint64_t digest = kFnvOffset;     // over every simulated result
  std::vector<std::string> notes;        // printed before the JSON line
  MetricMap per_layer;                   // filled by traced runs only
};

// ---------------------------------------------------------------------------
// Spans (traced run only): recorded around calls into each layer's public
// functions, kept in memory, written as Chrome-trace JSON at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;       // "<layer>.<call>"
  double start_us = 0.0;  // since the recorder's origin
  double end_us = 0.0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at the root
  std::uint64_t id = 0;      // simulation / epoch / pass identifier
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  /// Open a span nested in the innermost open one; returns its index.
  std::size_t open(std::string name, std::uint64_t id);
  void close(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Layer ("trace", "core", ...) -> total self seconds: each span's
  /// duration minus the part its direct children cover.
  std::map<std::string, double> self_seconds() const;
  /// Write {"traceEvents": [...]} to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span over a nullable recorder (null = untraced, costs one test).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t id = 0)
      : rec_(rec), index_(rec ? rec->open(name, id) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t index_;
};

// ---------------------------------------------------------------------------
// Per-layer measurement shared by the workloads (layers.cpp)
// ---------------------------------------------------------------------------

/// Per-step timing of the traced run, classified by the change in
/// DriverStats around each SimulationRun::step().
struct StepTimes {
  enum Kind { kResident, kFault, kSipLoad, kKinds };
  double ns[kKinds] = {};
  std::uint64_t n[kKinds] = {};
};

/// step() `run` until done; with `steps` non-null, time and classify every
/// step (the traced run).
void step_to_end(sgxpl::core::SimulationRun& run, StepTimes* steps);

/// Serialize `m` with Metrics::save: the bytes a same-seed repeat must
/// reproduce.
std::vector<std::uint8_t> metrics_bytes(const sgxpl::core::Metrics& m);

/// Work counts summed over finished simulation runs and co-runs.
class RunCounts {
 public:
  void add(const sgxpl::core::Metrics& m);
  /// A co-run: the shared driver's counts and each tenant's own.
  void add(const sgxpl::core::MultiEnclaveResult& r);
  /// Fill the sip.*, sgxsim.* counts, dfp.* and inject.* metrics.
  void fill(MetricMap& out) const;

 private:
  void add_tenant(const sgxpl::core::Metrics& m);
  void add_driver(const sgxpl::sgxsim::DriverStats& s, std::uint64_t fired);

  sgxpl::sgxsim::DriverStats d_;
  std::uint64_t sip_checks_ = 0, predictor_hits_ = 0, predictor_lookups_ = 0,
                stopped_ = 0, fired_ = 0, channel_ops_ = 0;
};

void fill_step_layers(const StepTimes& steps, MetricMap& out);

/// Replay each trace's page stream straight into a fresh sgxsim::Driver
/// (no preloading) and the faults it takes into a dfp::StreamPredictor;
/// fills sgxsim.driver_access_ns and dfp.on_fault_ns.
void fill_replay_layers(const std::vector<const sgxpl::trace::Trace*>& traces,
                        const sgxpl::core::SimConfig& cfg, SpanRecorder& rec,
                        MetricMap& out);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Whether set-up should be repeated once more: at least 5 times, and up
/// to 50 times while the repetitions so far took under a second, so a
/// cheap set-up still gets a steady median.
bool more_setup_reps(const std::vector<double>& samples);

/// Expected wall seconds of the closed loop's next pass (or, traced, of
/// the next traced + untraced pair).
double pass_estimate(const WorkloadReport& rep, const SpanRecorder* rec);

/// Run the named workload for opts.seconds. `rec` is non-null in the traced
/// run, which also fills WorkloadReport::per_layer.
WorkloadReport run_paper_workload(const Options& opts, SpanRecorder* rec);
WorkloadReport run_fleet_workload(const Options& opts, SpanRecorder* rec);

}  // namespace perfbench
