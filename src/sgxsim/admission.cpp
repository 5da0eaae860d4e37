#include "sgxsim/admission.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

const char* to_string(DegradeLevel level) noexcept {
  switch (level) {
    case DegradeLevel::kFullPreload:
      return "full-preload";
    case DegradeLevel::kDfpOnly:
      return "dfp-only";
    case DegradeLevel::kDemandOnly:
      return "demand-only";
    case DegradeLevel::kQuarantined:
      return "quarantined";
    case DegradeLevel::kDraining:
      return "draining";
  }
  return "?";
}

std::optional<DegradeLevel> parse_degrade_level(
    std::string_view name) noexcept {
  for (const DegradeLevel l :
       {DegradeLevel::kFullPreload, DegradeLevel::kDfpOnly,
        DegradeLevel::kDemandOnly, DegradeLevel::kQuarantined,
        DegradeLevel::kDraining}) {
    if (name == to_string(l)) {
      return l;
    }
  }
  return std::nullopt;
}

std::size_t AdmissionController::preload_quota(
    std::size_t max_queued) const noexcept {
  if (max_queued == 0 || params_.preload_quota_fraction <= 0.0) {
    return 0;
  }
  double frac = params_.preload_quota_fraction;
  if (level_ == DegradeLevel::kDfpOnly) {
    frac *= 0.5;
  }
  const auto quota = static_cast<std::size_t>(
      static_cast<double>(max_queued) * std::min(frac, 1.0));
  return std::max<std::size_t>(quota, 1);
}

int AdmissionController::on_window() noexcept {
  if (level_ == DegradeLevel::kDraining) {
    // Ladder frozen during a migration drain: the window is neither judged
    // nor reset — evidence accumulated before and during the drain is held
    // for the first window after end_drain(). A draining tenant must not
    // demote (its shed preloads are self-inflicted) and must not promote
    // (kDraining is not a ladder rung).
    return 0;
  }
  const std::uint64_t bad =
      window_rejected_ + window_retries_ + window_permanent_;
  const std::uint64_t total = window_admitted_ + bad;
  if (params_.target_window_events > 0 && window_permanent_ == 0 &&
      total < params_.target_window_events &&
      window_span_ + 1 < params_.max_window_span) {
    // Load-adaptive window: not enough evidence to judge yet — hold it open
    // and fold in the next tick. A permanent fault always forces judgment
    // (losing a page after max_retries must never be deferred), and
    // max_window_span bounds how long a near-idle tenant can stay unjudged.
    ++window_span_;
    return 0;
  }
  window_span_ = 0;
  const bool unhealthy =
      window_permanent_ > 0 ||
      (total >= params_.min_window_events &&
       static_cast<double>(bad) >
           params_.degrade_threshold * static_cast<double>(total));
  const bool healthy =
      !unhealthy &&
      (total == 0 || static_cast<double>(bad) <=
                         params_.recover_threshold * static_cast<double>(total));
  window_admitted_ = window_rejected_ = window_retries_ = window_permanent_ = 0;
  ++windows_;
  int delta = 0;
  if (unhealthy) {
    healthy_streak_ = 0;
    if (level_ < DegradeLevel::kQuarantined) {
      level_ = static_cast<DegradeLevel>(static_cast<std::uint8_t>(level_) + 1);
      ++demotions_;
      delta = -1;
    }
  } else if (healthy) {
    const std::uint32_t need =
        params_.recover_windows *
        (level_ == DegradeLevel::kQuarantined ? 2u : 1u);
    if (++healthy_streak_ >= need && level_ > DegradeLevel::kFullPreload) {
      level_ = static_cast<DegradeLevel>(static_cast<std::uint8_t>(level_) - 1);
      ++promotions_;
      healthy_streak_ = 0;
      delta = +1;
    }
  } else {
    healthy_streak_ = 0;  // murky window: neither demote nor count as calm
  }
  return delta;
}

void AdmissionController::save(snapshot::Writer& w) const {
  // A drain is transient operational state, not ladder position: snapshots
  // record the level the tenant will resume at, so a restored run never
  // wakes up inside a half-finished migration (and the serialized bytes of
  // a non-draining controller are unchanged from the pre-drain format).
  const DegradeLevel effective =
      level_ == DegradeLevel::kDraining ? resume_level_ : level_;
  w.u64("admit.level", static_cast<std::uint64_t>(effective));
#define SGXPL_SAVE(type, name) w.u64("admit." #name, name##_);
  SGXPL_ADMISSION_FIELDS(SGXPL_SAVE)
#undef SGXPL_SAVE
}

void AdmissionController::load(snapshot::Reader& r) {
  const std::uint64_t level = r.u64("admit.level");
  SGXPL_CHECK_MSG(
      level <= static_cast<std::uint64_t>(DegradeLevel::kQuarantined),
      "snapshot admission level " << level << " is not on the ladder");
  level_ = static_cast<DegradeLevel>(level);
  resume_level_ = level_;
#define SGXPL_LOAD(type, name) \
  snapshot::load_field(r, "admit." #name, name##_);
  SGXPL_ADMISSION_FIELDS(SGXPL_LOAD)
#undef SGXPL_LOAD
}

}  // namespace sgxpl::sgxsim
