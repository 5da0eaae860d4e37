// Shared harness for the paper-reproduction benchmark binaries.
//
// Every bench regenerates one table or figure of the paper and prints the
// same rows/series the paper reports, next to the paper's published value
// where one exists. Absolute numbers come from the simulator (virtual
// cycles), so the *shape* — who wins, by roughly what factor, where the
// crossovers fall — is the comparison target, not wall-clock equality.
//
// Harness flags (every bench main forwards argc/argv to bench::init):
//   --json <path>   on finish(), write a machine-readable result document:
//                   every printed table, recorded scalar, note, and the
//                   metrics-registry dump (schema: sgxpl-bench-result/v1,
//                   see docs/OBSERVABILITY.md)
//   --trace <path>  attach an event log + time-series sampler to the runs
//                   and write a Chrome/Perfetto trace of the *last*
//                   simulation on finish()
//   --profile <path> attach the cycle-attribution profiler to the runs and
//                   write the merged phase-profile JSON to <path> on
//                   finish(); the same profile also lands in the --json
//                   document (under "profile") and as a flame track in the
//                   --trace output when those flags are given too
//   --chaos <spec>  run every simulation under the given fault-injection
//                   plan ("all", "none", or "name[:prob[:mag]],..." — see
//                   inject/chaos_plan.h and docs/ROBUSTNESS.md)
//   --seed <n>      seed for the chaos plan (default 0x5eed); the same
//                   spec + seed replays the identical fault schedule
//   --checkpoint <path>       write a crash-consistent snapshot of the
//                   running simulation to <path> periodically (every 65536
//                   accesses unless --checkpoint-every overrides)
//   --checkpoint-every <n>    checkpoint period in completed accesses
//   --full-every <n>          emit a full base snapshot every n checkpoints
//                   and incremental delta frames in between (default 1 =
//                   every checkpoint is full; snapshot format v2 chains)
//   --resume <path> restore the simulation from <path> before running; the
//                   snapshot must match the run's configuration (delta
//                   frames beside the base are replayed automatically)
//   --fail-dir <dir>          drop reproduction artifacts (e.g. diverging
//                   delta chains) into <dir> on failure, for CI upload
//   --shards <k>    run fleet step phases and independent cells on k
//                   worker threads, 1..256 (bit-identical results for
//                   every k; default 1)
//
// Numeric values are strict: decimal or 0x-hex, no sign, no suffix; a
// malformed or out-of-range value exits 2 with a message naming the flag.
//
// Environment:
//   SGXPL_SCALE  scale factor for workload footprints/lengths (default 1.0,
//                the paper-sized runs; use e.g. 0.2 for a quick pass).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "core/scheme.h"
#include "obs/metrics.h"

namespace sgxpl::bench {

/// Scale from SGXPL_SCALE (default 1.0).
double bench_scale();

/// paper_platform() with the EPC scaled alongside the workload footprints,
/// so footprint:EPC ratios match the paper at any scale — and with the
/// harness's observability sinks attached when --json/--trace asked for
/// them (null otherwise: performance runs pay nothing).
core::SimConfig bench_platform(core::Scheme scheme = core::Scheme::kBaseline);

/// Experiment options matching bench_scale().
core::ExperimentOptions bench_options();

/// Parse harness flags, remember the bench identity, and print the
/// standard header. Call first in main, forwarding argc/argv.
void init(int argc, char** argv, const std::string& bench,
          const std::string& reproduces);

/// Print `tbl` to stdout and record it (under `name`, made unique if
/// reused) in the --json result document.
void print_table(const std::string& name, const TextTable& tbl);

/// Record a headline scalar in the --json result document (e.g. the
/// bench's average-improvement number). Does not print.
void add_scalar(const std::string& name, double value);

/// Record a free-form note (e.g. a rendered timeline) in the result doc.
void add_note(const std::string& name, const std::string& text);

/// The harness metrics registry (always usable; only exported with --json).
obs::MetricsRegistry& registry();

/// The harness profiler (enabled only when --profile was given; attached to
/// every bench_platform() config when enabled, null-detached otherwise).
obs::Profiler& profiler();

/// The --chaos plan (nothing enabled unless the flag was given). Already
/// applied to every bench_platform() config; exposed for benches that build
/// configs some other way.
const inject::ChaosPlan& chaos_plan();

/// The --checkpoint/--checkpoint-every/--full-every/--resume settings
/// (disabled unless the flags were given). Already applied to every
/// bench_platform() config.
const core::CheckpointOptions& checkpoint_options();

/// The --fail-dir directory (empty = flag absent): where a failing suite
/// drops reproduction artifacts — e.g. recovery_suite writes the frames of
/// any delta chain whose restore diverged, so CI can upload them.
const std::string& fail_dir();

/// The --shards worker count (default 1 = sequential, at most
/// core::kMaxShardThreads). Fleet supervisors run their epoch step phase
/// on this many OS threads, and some benches fan independent cells out
/// across them; results are bit-identical for every value (the
/// supervisor's shard-count invariance, docs/ROBUSTNESS.md).
std::uint64_t shards();

/// Flush --json/--trace outputs. Benches end with `return bench::finish();`.
int finish();

/// Formats "+11.4%" or "-" for a missing value.
std::string fmt_improvement(std::optional<double> v);

/// Formats a normalized-time value like the paper's figures (1.00 = baseline).
std::string fmt_normalized(double v);

}  // namespace sgxpl::bench
