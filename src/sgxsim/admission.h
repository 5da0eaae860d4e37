// Per-enclave admission control: the overload-survival ladder.
//
// dfp::HealthMonitor asks "are this tenant's *predictions* any good?"; the
// AdmissionController generalizes the same windowed-verdict + hysteresis
// idiom to "is this tenant overloading the shared paging channel?". Each
// tenant (ProcessId) gets one controller; the driver feeds it admission
// outcomes (admitted / rejected-for-capacity), retry re-issues and
// permanent faults, and judges a window on every scan tick. Sustained bad
// windows walk the tenant down the ladder
//
//   kFullPreload -> kDfpOnly -> kDemandOnly -> kQuarantined
//
// and sustained calm walks it back up one level at a time (with a longer
// streak required to leave quarantine). Rejections caused by the tenant's
// *own* degraded level are deliberately not evidence — otherwise a demoted
// tenant could never look healthy again.
//
// Default-disabled: AdmissionParams::enabled = false leaves every tenant
// pinned at kFullPreload and the driver skips this layer entirely, which
// preserves the seed behavior bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/types.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

/// The degradation ladder, best to worst. Each level keeps strictly fewer
/// privileges than the one above it. kDraining sits outside the ladder
/// arithmetic: it is the transient migration state (begin_drain /
/// end_drain), never reached or left by on_window().
enum class DegradeLevel : std::uint8_t {
  kFullPreload,  // DFP preloads and SIP prefetches admitted
  kDfpOnly,      // DFP preloads admitted (halved quota); SIP prefetches shed
  kDemandOnly,   // no speculative work admitted at all
  kQuarantined,  // demand loads lose channel priority too (FIFO behind all)
  kDraining,     // tenant under migration: demand served, preloads shed
};

const char* to_string(DegradeLevel level) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<DegradeLevel> parse_degrade_level(std::string_view name) noexcept;

struct AdmissionParams {
  /// Master switch; false (default) disables the ladder and quotas.
  bool enabled = false;
  /// A window is unhealthy when bad events (capacity rejections + retries +
  /// permanent faults) exceed this fraction of the tenant's total events.
  double degrade_threshold = 0.5;
  /// Evidence floor: windows with fewer total events than this can never
  /// demote (a single unlucky rejection is not overload). Permanent faults
  /// bypass the floor — losing a page after max_retries is always serious.
  std::uint64_t min_window_events = 16;
  /// Consecutive healthy windows required to climb one level back up
  /// (doubled when leaving kQuarantined).
  std::uint32_t recover_windows = 4;
  /// A window with events is healthy-for-recovery only when its bad-event
  /// fraction is at or below this (quiet windows always count as healthy).
  double recover_threshold = 0.125;
  /// Fraction of the channel's max_queued each tenant may occupy with
  /// queued preloads (halved at kDfpOnly); <= 0 disables the quota. Only
  /// meaningful when the channel is bounded.
  double preload_quota_fraction = 0.5;
  /// Load-adaptive evidence windows: when > 0, a window holding fewer than
  /// this many total events is *deferred* — folded into the next scan tick's
  /// window instead of being judged on thin evidence — so quiet tenants
  /// produce verdicts at the cadence their load supports rather than the
  /// wall-clock scan rate. 0 (default) keeps the fixed per-scan windows.
  std::uint64_t target_window_events = 0;
  /// Upper bound on how many scan ticks one adaptive window may span before
  /// it is judged regardless of volume (keeps verdict latency bounded for
  /// near-idle tenants). Only meaningful with target_window_events > 0.
  std::uint32_t max_window_span = 8;
};

/// The controller's plain counters, one row each: X(type, name). This list
/// declares the member `<name>_` and drives save()/load() (label
/// "admit.<name>"). The window_* rows are the evidence of the current
/// window; window_span counts the scan ticks an adaptive window has spanned
/// so far (always 0 with fixed windows); windows, demotions and promotions
/// are lifetime counters that survive window resets. `level_` is written
/// first and is hand-written: save() maps kDraining to the resume level
/// and load() range-checks the ladder.
#define SGXPL_ADMISSION_FIELDS(X)          \
  X(std::uint32_t, healthy_streak)         \
  X(std::uint32_t, window_span)            \
  X(std::uint64_t, window_admitted)        \
  X(std::uint64_t, window_rejected)        \
  X(std::uint64_t, window_retries)         \
  X(std::uint64_t, window_permanent)       \
  X(std::uint64_t, windows)                \
  X(std::uint64_t, demotions)              \
  X(std::uint64_t, promotions)

class AdmissionController {
 public:
  AdmissionController() = default;
  explicit AdmissionController(const AdmissionParams& params)
      : params_(params) {}

  DegradeLevel level() const noexcept { return level_; }
  bool preloads_allowed() const noexcept {
    return level_ <= DegradeLevel::kDfpOnly;
  }
  bool prefetches_allowed() const noexcept {
    return level_ == DegradeLevel::kFullPreload;
  }
  /// Quarantined tenants' demand loads queue FIFO instead of jumping ahead.
  /// A draining tenant keeps demand priority — migration must not slow the
  /// tenant's own forward progress, only shed its speculative work.
  bool demand_priority() const noexcept {
    return level_ != DegradeLevel::kQuarantined;
  }

  // --- migration drain (transient; not serialized as a level) ---
  /// Enter kDraining, remembering the ladder level to resume at. The ladder
  /// is frozen while draining: on_window() judges nothing and the level
  /// cannot move. Idempotent.
  void begin_drain() noexcept {
    if (level_ != DegradeLevel::kDraining) {
      resume_level_ = level_;
      level_ = DegradeLevel::kDraining;
    }
  }
  /// Leave kDraining, restoring the remembered ladder level. Idempotent.
  void end_drain() noexcept {
    if (level_ == DegradeLevel::kDraining) {
      level_ = resume_level_;
    }
  }
  bool draining() const noexcept { return level_ == DegradeLevel::kDraining; }
  /// This tenant's queued-preload quota against a channel bounded at
  /// `max_queued`; 0 = no quota.
  std::size_t preload_quota(std::size_t max_queued) const noexcept;

  // --- evidence, fed by the driver between windows ---
  void note_admitted() noexcept { ++window_admitted_; }
  /// A capacity/quota rejection (NOT a rejection caused by this tenant's
  /// own degraded level — those are self-inflicted and carry no signal).
  void note_rejected() noexcept { ++window_rejected_; }
  void note_retry() noexcept { ++window_retries_; }
  void note_permanent() noexcept { ++window_permanent_; }

  /// Judge the window accumulated since the previous call and reset it.
  /// Returns +1 on promotion, -1 on demotion, 0 otherwise.
  int on_window() noexcept;

  // --- lifetime counters (survive window resets; serialized) ---
  std::uint64_t windows() const noexcept { return windows_; }
  std::uint64_t demotions() const noexcept { return demotions_; }
  std::uint64_t promotions() const noexcept { return promotions_; }

  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  AdmissionParams params_;
  DegradeLevel level_ = DegradeLevel::kFullPreload;
  /// Ladder level to restore on end_drain(). Meaningful only while
  /// level_ == kDraining; the drain is transient operational state, so
  /// save() writes this (the effective ladder position) instead of
  /// kDraining — snapshots never restore into a half-finished migration.
  DegradeLevel resume_level_ = DegradeLevel::kFullPreload;
#define SGXPL_DECLARE_FIELD(type, name) type name##_ = 0;
  SGXPL_ADMISSION_FIELDS(SGXPL_DECLARE_FIELD)
#undef SGXPL_DECLARE_FIELD
};

}  // namespace sgxpl::sgxsim
