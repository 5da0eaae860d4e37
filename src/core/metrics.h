// Run metrics reported by the enclave simulator.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"
#include "snapshot/fwd.h"

namespace sgxpl::core {

/// The scalar run metrics, one row each: X(type, member). This list is the
/// only place they are named: it declares the member (zero-initialized)
/// and drives save()/load() (snapshot label "metrics.<member>"; a bool row
/// is a boolean field, every other row u64). The dfp_* rows stay zero/false
/// when no DFP engine ran.
#define SGXPL_METRICS_FIELDS(X)                                             \
  X(Cycles, total_cycles) /* virtual time the app finished the trace */     \
  X(Cycles, compute_cycles) /* trace gaps after contention inflation */     \
  X(Cycles, contention_cycles) /* extra compute from channel contention */  \
  X(std::uint64_t, accesses)                                                \
  X(std::uint64_t, enclave_faults)                                          \
  X(std::uint64_t, sip_checks) /* SIP runtime bitmap checks */              \
  X(std::uint64_t, sip_requests) /* notifications (bitmap said absent) */   \
  X(Cycles, sip_check_cycles)                                               \
  X(Cycles, sip_notification_cycles)                                        \
  X(bool, dfp_stopped)                                                      \
  X(Cycles, dfp_stopped_at)                                                 \
  X(std::uint64_t, dfp_preload_counter)                                     \
  X(std::uint64_t, dfp_acc_preload_counter)                                 \
  X(std::uint64_t, dfp_predictor_hits)                                      \
  X(std::uint64_t, dfp_predictor_misses)

struct Metrics {
#define SGXPL_DECLARE_FIELD(type, member) type member{};
  SGXPL_METRICS_FIELDS(SGXPL_DECLARE_FIELD)
#undef SGXPL_DECLARE_FIELD

  /// Final driver-side statistics (faults, loads, preload accounting, ...).
  sgxsim::DriverStats driver;

  /// Fault-injection activity (all zero when no chaos plan was active).
  inject::InjectStats inject;

  /// Fractional improvement of this run over `baseline`
  /// (positive = faster), the paper's headline metric.
  double improvement_over(const Metrics& baseline) const noexcept;

  /// Execution time normalized to `baseline` (the paper's figures).
  double normalized_to(const Metrics& baseline) const noexcept;

  std::string describe() const;

  /// Checkpoint/restore of every field, including the nested driver and
  /// injection statistics. Also the substrate of snapshot-based metric
  /// diffing: two runs whose Metrics serialize identically finished in
  /// bit-identical states.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);
};

}  // namespace sgxpl::core
