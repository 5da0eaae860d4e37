// Per-layer measurement shared by the workloads: timed stepping, work
// counts from finished runs, and the driver / predictor micro-replays.
#include "bench.h"
#include "dfp/stream_predictor.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace perfbench {
namespace {

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

Value count(std::uint64_t v) { return {static_cast<double>(v), "count"}; }

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

}  // namespace

void step_to_end(sgxpl::core::SimulationRun& run, StepTimes* steps) {
  if (steps == nullptr) {
    while (!run.done()) run.step();
    return;
  }
  const sgxpl::sgxsim::DriverStats& ds = run.driver().stats();
  while (!run.done()) {
    const std::uint64_t faults = ds.faults;
    const std::uint64_t sip_loads = ds.sip_loads;
    const Clock::time_point t0 = Clock::now();
    run.step();
    const double ns = ns_since(t0);
    const int k = ds.faults != faults         ? StepTimes::kFault
                  : ds.sip_loads != sip_loads ? StepTimes::kSipLoad
                                              : StepTimes::kResident;
    steps->ns[k] += ns;
    ++steps->n[k];
  }
}

std::vector<std::uint8_t> metrics_bytes(const sgxpl::core::Metrics& m) {
  sgxpl::snapshot::Writer w;
  w.begin_section("METR");
  m.save(w);
  w.end_section();
  return w.finish();
}

void RunCounts::add(const sgxpl::core::Metrics& m) {
  add_tenant(m);
  add_driver(m.driver, m.inject.total_fired());
}

void RunCounts::add(const sgxpl::core::MultiEnclaveResult& r) {
  for (const sgxpl::core::Metrics& m : r.per_enclave) add_tenant(m);
  add_driver(r.driver, r.inject.total_fired());
}

void RunCounts::add_tenant(const sgxpl::core::Metrics& m) {
  sip_checks_ += m.sip_checks;
  predictor_hits_ += m.dfp_predictor_hits;
  predictor_lookups_ += m.dfp_predictor_hits + m.dfp_predictor_misses;
  stopped_ += m.dfp_stopped ? 1 : 0;
}

void RunCounts::add_driver(const sgxpl::sgxsim::DriverStats& s,
                           std::uint64_t fired) {
  fired_ += fired;
  // Every op the driver puts on the paging channel is exactly one of these.
  channel_ops_ += s.demand_loads + s.preloads_issued + s.sip_loads +
                  s.sip_prefetches + s.retries;
  d_.faults += s.faults;
  d_.evictions += s.evictions;
  d_.demand_loads += s.demand_loads;
  d_.fault_wait_hits += s.fault_wait_hits;
  d_.fault_stall_cycles += s.fault_stall_cycles;
  d_.retries += s.retries;
  d_.lost_completions += s.lost_completions;
  d_.permanent_faults += s.permanent_faults;
  d_.preloads_shed += s.preloads_shed;
  d_.watchdog_checks += s.watchdog_checks;
  d_.sip_loads += s.sip_loads;
  // The driver maps SIP-loaded pages as preloaded too, so only runs that
  // made no SIP load keep the DFP preload counters DFP's own.
  if (s.sip_loads == 0 && s.sip_prefetches == 0) {
    d_.preloads_issued += s.preloads_issued;
    d_.preloads_used += s.preloads_used;
    d_.preloads_evicted_unused += s.preloads_evicted_unused;
  }
}

void RunCounts::fill(MetricMap& out) const {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  out["sip.checks"] = count(sip_checks_);
  out["sip.loads"] = count(d_.sip_loads);
  out["sip.useful_ratio"] = {ratio(f(d_.sip_loads), f(sip_checks_)), "ratio"};
  out["sgxsim.faults"] = count(d_.faults);
  out["sgxsim.evictions"] = count(d_.evictions);
  out["sgxsim.demand_loads"] = count(d_.demand_loads);
  out["sgxsim.fault_wait_hits"] = count(d_.fault_wait_hits);
  out["sgxsim.fault_stall_mcycles"] = {f(d_.fault_stall_cycles) / 1e6,
                                       "Mcycles"};
  out["sgxsim.channel.ops"] = count(channel_ops_);
  out["sgxsim.retries"] = count(d_.retries);
  out["sgxsim.lost_completions"] = count(d_.lost_completions);
  out["sgxsim.permanent_faults"] = count(d_.permanent_faults);
  out["sgxsim.preloads_shed"] = count(d_.preloads_shed);
  out["sgxsim.watchdog_checks"] = count(d_.watchdog_checks);
  out["dfp.preloads_issued"] = count(d_.preloads_issued);
  out["dfp.preloads_used"] = count(d_.preloads_used);
  out["dfp.preload_useful_ratio"] = {
      ratio(f(d_.preloads_used), f(d_.preloads_issued)), "ratio"};
  out["dfp.preloads_evicted_unused"] = count(d_.preloads_evicted_unused);
  out["dfp.predictor_hit_ratio"] = {
      ratio(f(predictor_hits_), f(predictor_lookups_)), "ratio"};
  out["dfp.stopped_runs"] = count(stopped_);
  out["inject.fired"] = count(fired_);
}

void fill_step_layers(const StepTimes& steps, MetricMap& out) {
  const char* names[StepTimes::kKinds] = {
      "core.step_ns.resident", "core.step_ns.fault", "core.step_ns.sip_load"};
  for (int k = 0; k < StepTimes::kKinds; ++k) {
    out[names[k]] = {ratio(steps.ns[k], static_cast<double>(steps.n[k])),
                     "ns"};
  }
}

void fill_replay_layers(const std::vector<const sgxpl::trace::Trace*>& traces,
                        const sgxpl::core::SimConfig& cfg, SpanRecorder& rec,
                        MetricMap& out) {
  double access_ns = 0.0, fault_ns = 0.0;
  std::uint64_t accesses = 0, faults = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const sgxpl::trace::Trace& t = *traces[i];
    std::vector<sgxpl::PageNum> fault_pages;
    {
      ScopedSpan span(&rec, "sgxsim.access_replay", i);
      sgxpl::sgxsim::EnclaveConfig ec;
      ec.elrange_pages = t.elrange_pages();
      ec.epc_pages = cfg.enclave.epc_pages;
      sgxpl::sgxsim::Driver driver(ec, cfg.costs);
      sgxpl::Cycles now = 0;
      const Clock::time_point t0 = Clock::now();
      for (const sgxpl::trace::Access& a : t.accesses()) {
        now += a.gap;
        const sgxpl::sgxsim::AccessOutcome o = driver.access(a.page, now);
        now = o.completion;
        if (o.faulted) fault_pages.push_back(a.page);
      }
      access_ns += ns_since(t0);
      accesses += t.size();
    }
    {
      ScopedSpan span(&rec, "dfp.on_fault_replay", i);
      sgxpl::dfp::StreamPredictor predictor(cfg.dfp.predictor);
      const Clock::time_point t0 = Clock::now();
      for (const sgxpl::PageNum page : fault_pages) {
        predictor.on_fault(0, page);
      }
      fault_ns += ns_since(t0);
      faults += fault_pages.size();
    }
  }
  out["sgxsim.driver_access_ns"] = {
      ratio(access_ns, static_cast<double>(accesses)), "ns"};
  out["dfp.on_fault_ns"] = {ratio(fault_ns, static_cast<double>(faults)),
                            "ns"};
}

}  // namespace perfbench
