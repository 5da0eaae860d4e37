// Graceful-degradation health monitor for the DFP engine.
//
// The paper's DFP-stop valve (§4.2) is one-way: once the used fraction of
// preloads drops below the threshold, preloading is off for the rest of the
// run. That is the right call for a persistently hostile workload, but a
// *transient* disturbance — a chaos-injected predictor wipe, an EPC
// squeeze, a phase change — also trips it, and the run then pays baseline
// fault costs forever. The monitor generalizes the valve into a hysteresis
// state machine:
//
//   kPreloading --(windowed stop rule / abort-rate trigger)--> kStopped
//   kStopped    --(recovery window, exponential backoff)-----> kProbation
//   kProbation  --(window healthy)--> kPreloading   (backoff resets)
//               --(window unhealthy)--> kStopped    (backoff doubles)
//
// The stop rule is the paper's formula applied to the counter window since
// the current state was entered (snapshots at entry start at zero, so until
// the first stop it is exactly the paper's lifetime rule). The abort-rate
// trigger additionally stops streams that keep getting flushed by demand
// faults before they commit — preloads that never land cannot be judged by
// the used fraction alone.
//
// The driver-side degradation ladder (sgxsim/admission.h) generalizes this
// two-state machine to a per-tenant four-level ladder driven by channel
// admission/retry evidence instead of preload usefulness; the two compose —
// this monitor judges *prediction quality*, the ladder judges *channel
// health*.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "snapshot/fwd.h"

namespace sgxpl::obs {
class MetricsRegistry;
class TimeSeriesSet;
}  // namespace sgxpl::obs

namespace sgxpl::dfp {

struct HealthParams {
  /// Off by default: the engine then runs the paper's plain one-way valve.
  bool enabled = false;

  /// Windowed form of the paper's stop rule: stop when, over the window,
  /// used + stop_slack < loaded * stop_used_fraction.
  std::uint64_t stop_slack = 256;
  double stop_used_fraction = 0.5;

  /// Abort-rate trigger: stop when aborted / (loaded + aborted) over the
  /// window exceeds this fraction.
  double max_abort_fraction = 0.75;

  /// Evidence floor: a window is only judged once it has seen this many
  /// preload outcomes (loaded + aborted).
  std::uint64_t min_window_preloads = 32;

  /// Scans to stay stopped before probing again; doubles with each
  /// consecutive stop, capped at recovery_scans << max_backoff_exponent.
  std::uint64_t recovery_scans = 32;
  std::uint64_t max_backoff_exponent = 6;

  /// Probation length in scans. The probation window is judged by the same
  /// stop rule but with this (much smaller) slack — the lifetime stop_slack
  /// would swamp a 16-scan window and let a still-sick stream pass. A
  /// window that is unhealthy fails immediately; a window that is
  /// affirmatively healthy resumes and resets the backoff; an inconclusive
  /// window (too few outcomes to judge) resumes but keeps the backoff, so a
  /// repeat offender still waits exponentially longer each round.
  std::uint64_t probation_scans = 16;
  std::uint64_t probation_slack = 16;
};

enum class HealthState : std::uint8_t {
  kPreloading,  // preloads on, window watched
  kStopped,     // preloads off, waiting out the recovery window
  kProbation,   // preloads on trial
};

const char* to_string(HealthState s) noexcept;

/// The monitor's plain state fields, one row each: X(name, registry counter
/// or nullptr). This list declares the member `<name>_` and drives reset(),
/// save(), load() (label "health.<name>") and publish() for the rows with a
/// counter. The entry_* rows are the cumulative counters snapshotted when
/// the current state was entered. `state_` is written first and is
/// hand-written: load() range-checks it.
#define SGXPL_HEALTH_FIELDS(X)         \
  X(scans_in_state, nullptr)           \
  X(entry_preloads, nullptr)           \
  X(entry_acc, nullptr)                \
  X(entry_aborted, nullptr)            \
  X(stops, "dfp.health.stops")         \
  X(resumes, "dfp.health.resumes")     \
  X(consecutive_stops, nullptr)        \
  X(last_stop_at, nullptr)

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthParams& params);

  HealthState state() const noexcept { return state_; }
  bool preloads_allowed() const noexcept {
    return state_ != HealthState::kStopped;
  }

  std::uint64_t stops() const noexcept { return stops_; }
  std::uint64_t resumes() const noexcept { return resumes_; }
  std::uint64_t consecutive_stops() const noexcept {
    return consecutive_stops_;
  }
  Cycles last_stop_at() const noexcept { return last_stop_at_; }

  /// Feed one service-thread scan: the engine's *cumulative* counters
  /// (preloads landed, preloads observed used, preloads aborted) at `now`.
  /// Drives all state transitions.
  void on_scan(std::uint64_t preload_counter, std::uint64_t acc_counter,
               std::uint64_t aborted, Cycles now);

  /// Optional time-series sink: per-scan "dfp.health.state" curve
  /// (0 = preloading, 1 = stopped, 2 = probation).
  void set_observability(obs::TimeSeriesSet* ts) noexcept { series_ = ts; }

  /// Flush end-of-run counters under "dfp.health.".
  void publish(obs::MetricsRegistry& reg) const;

  std::string describe() const;

  void reset();

  /// Checkpoint/restore of the full state machine, including the backoff
  /// counters and the counter snapshots taken at state entry.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  enum class Verdict : std::uint8_t { kHealthy, kInconclusive, kUnhealthy };

  void enter(HealthState next, std::uint64_t preload_counter,
             std::uint64_t acc_counter, std::uint64_t aborted, Cycles now);
  /// Current backoff in scans: recovery_scans * 2^min(stops-1, cap).
  std::uint64_t backoff_scans() const noexcept;
  /// Apply the stop rule + abort trigger to the window since state entry.
  Verdict judge_window(std::uint64_t preload_counter,
                       std::uint64_t acc_counter, std::uint64_t aborted,
                       std::uint64_t slack) const noexcept;

  HealthParams params_;
  HealthState state_ = HealthState::kPreloading;
#define SGXPL_DECLARE_FIELD(name, metric) std::uint64_t name##_ = 0;
  SGXPL_HEALTH_FIELDS(SGXPL_DECLARE_FIELD)
#undef SGXPL_DECLARE_FIELD

  obs::TimeSeriesSet* series_ = nullptr;  // not owned; may be null
};

}  // namespace sgxpl::dfp
