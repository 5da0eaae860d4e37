#include "core/metrics.h"

#include <sstream>

#include "snapshot/codec.h"

namespace sgxpl::core {

double Metrics::improvement_over(const Metrics& baseline) const noexcept {
  if (baseline.total_cycles == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(total_cycles) /
                   static_cast<double>(baseline.total_cycles);
}

double Metrics::normalized_to(const Metrics& baseline) const noexcept {
  if (baseline.total_cycles == 0) {
    // A zero-cycle baseline (empty/degenerate trace) normalizes to parity
    // rather than dividing by zero; improvement_over likewise reports 0.
    return 1.0;
  }
  return static_cast<double>(total_cycles) /
         static_cast<double>(baseline.total_cycles);
}

std::string Metrics::describe() const {
  std::ostringstream oss;
  oss << "Metrics{total=" << total_cycles << ", compute=" << compute_cycles
      << ", contention=" << contention_cycles << ", accesses=" << accesses
      << ", faults=" << enclave_faults << ", sip_checks=" << sip_checks
      << ", sip_requests=" << sip_requests
      << ", dfp{preloaded=" << dfp_preload_counter
      << ", used=" << dfp_acc_preload_counter
      << ", stopped=" << (dfp_stopped ? "yes" : "no") << "}";
  if (inject.total_opportunities() > 0) {
    oss << ", " << inject.describe();
  }
  oss << "}";
  return oss.str();
}

void Metrics::save(snapshot::Writer& w) const {
#define SGXPL_SAVE(type, member) \
  snapshot::save_field(w, "metrics." #member, member);
  SGXPL_METRICS_FIELDS(SGXPL_SAVE)
#undef SGXPL_SAVE
  driver.save(w);
  inject.save(w);
}

void Metrics::load(snapshot::Reader& r) {
#define SGXPL_LOAD(type, member) \
  snapshot::load_field(r, "metrics." #member, member);
  SGXPL_METRICS_FIELDS(SGXPL_LOAD)
#undef SGXPL_LOAD
  driver.load(r);
  inject.load(r);
}

}  // namespace sgxpl::core
