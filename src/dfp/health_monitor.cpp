#include "dfp/health_monitor.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {

const char* to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kPreloading:
      return "preloading";
    case HealthState::kStopped:
      return "stopped";
    case HealthState::kProbation:
      return "probation";
  }
  return "?";
}

HealthMonitor::HealthMonitor(const HealthParams& params) : params_(params) {
  SGXPL_CHECK(params_.recovery_scans > 0);
  SGXPL_CHECK(params_.probation_scans > 0);
  SGXPL_CHECK(params_.stop_used_fraction > 0.0 &&
              params_.stop_used_fraction <= 1.0);
  SGXPL_CHECK(params_.max_abort_fraction > 0.0 &&
              params_.max_abort_fraction <= 1.0);
}

std::uint64_t HealthMonitor::backoff_scans() const noexcept {
  const std::uint64_t shift =
      std::min(consecutive_stops_ > 0 ? consecutive_stops_ - 1 : 0,
               params_.max_backoff_exponent);
  return params_.recovery_scans << shift;
}

HealthMonitor::Verdict HealthMonitor::judge_window(
    std::uint64_t preload_counter, std::uint64_t acc_counter,
    std::uint64_t aborted, std::uint64_t slack) const noexcept {
  const std::uint64_t loaded = preload_counter - entry_preloads_;
  const std::uint64_t used = acc_counter - entry_acc_;
  const std::uint64_t flushed = aborted - entry_aborted_;
  if (loaded + flushed < params_.min_window_preloads) {
    return Verdict::kInconclusive;  // not enough outcomes to judge
  }
  // The paper's rule over the window: too many landed preloads never used.
  if (static_cast<double>(used) + static_cast<double>(slack) <
      static_cast<double>(loaded) * params_.stop_used_fraction) {
    return Verdict::kUnhealthy;
  }
  // Abort trigger: streams that keep getting flushed before committing.
  if (static_cast<double>(flushed) >
      static_cast<double>(loaded + flushed) * params_.max_abort_fraction) {
    return Verdict::kUnhealthy;
  }
  return Verdict::kHealthy;
}

void HealthMonitor::enter(HealthState next, std::uint64_t preload_counter,
                          std::uint64_t acc_counter, std::uint64_t aborted,
                          Cycles now) {
  state_ = next;
  scans_in_state_ = 0;
  entry_preloads_ = preload_counter;
  entry_acc_ = acc_counter;
  entry_aborted_ = aborted;
  if (next == HealthState::kStopped) {
    ++stops_;
    ++consecutive_stops_;
    last_stop_at_ = now;
  } else if (next == HealthState::kPreloading) {
    ++resumes_;
  }
}

void HealthMonitor::on_scan(std::uint64_t preload_counter,
                            std::uint64_t acc_counter, std::uint64_t aborted,
                            Cycles now) {
  ++scans_in_state_;
  switch (state_) {
    case HealthState::kPreloading:
      if (judge_window(preload_counter, acc_counter, aborted,
                       params_.stop_slack) == Verdict::kUnhealthy) {
        enter(HealthState::kStopped, preload_counter, acc_counter, aborted,
              now);
      }
      break;
    case HealthState::kStopped:
      if (scans_in_state_ >= backoff_scans()) {
        enter(HealthState::kProbation, preload_counter, acc_counter, aborted,
              now);
      }
      break;
    case HealthState::kProbation: {
      const Verdict v = judge_window(preload_counter, acc_counter, aborted,
                                     params_.probation_slack);
      if (v == Verdict::kUnhealthy) {
        // Fail fast: no need to sit out the rest of the probation window.
        enter(HealthState::kStopped, preload_counter, acc_counter, aborted,
              now);
      } else if (scans_in_state_ >= params_.probation_scans) {
        enter(HealthState::kPreloading, preload_counter, acc_counter, aborted,
              now);
        if (v == Verdict::kHealthy) {
          consecutive_stops_ = 0;  // affirmatively clean: backoff resets
        }
      }
      break;
    }
  }
  if (series_ != nullptr) {
    series_->series("dfp.health.state")
        .add(now, static_cast<double>(state_));
  }
}

namespace {

void publish_counter(obs::MetricsRegistry& reg, const char* metric,
                     std::uint64_t value) {
  if (metric != nullptr) {
    reg.counter(metric).add(value);
  }
}

}  // namespace

void HealthMonitor::publish(obs::MetricsRegistry& reg) const {
#define SGXPL_PUBLISH(name, metric) publish_counter(reg, metric, name##_);
  SGXPL_HEALTH_FIELDS(SGXPL_PUBLISH)
#undef SGXPL_PUBLISH
  reg.gauge("dfp.health.state").set(static_cast<double>(state_));
}

std::string HealthMonitor::describe() const {
  std::ostringstream oss;
  oss << "HealthMonitor{state=" << to_string(state_) << ", stops=" << stops_
      << ", resumes=" << resumes_
      << ", consecutive_stops=" << consecutive_stops_
      << ", backoff_scans=" << backoff_scans() << "}";
  return oss.str();
}

void HealthMonitor::reset() {
  state_ = HealthState::kPreloading;
#define SGXPL_RESET(name, metric) name##_ = 0;
  SGXPL_HEALTH_FIELDS(SGXPL_RESET)
#undef SGXPL_RESET
}

void HealthMonitor::save(snapshot::Writer& w) const {
  w.u64("health.state", static_cast<std::uint64_t>(state_));
#define SGXPL_SAVE(name, metric) w.u64("health." #name, name##_);
  SGXPL_HEALTH_FIELDS(SGXPL_SAVE)
#undef SGXPL_SAVE
}

void HealthMonitor::load(snapshot::Reader& r) {
  const std::uint64_t state = r.u64("health.state");
  SGXPL_CHECK_MSG(
      state <= static_cast<std::uint64_t>(HealthState::kProbation),
      "snapshot health monitor holds invalid state " << state);
  state_ = static_cast<HealthState>(state);
#define SGXPL_LOAD(name, metric) name##_ = r.u64("health." #name);
  SGXPL_HEALTH_FIELDS(SGXPL_LOAD)
#undef SGXPL_LOAD
}

}  // namespace sgxpl::dfp
