#include "core/simulator.h"

#include <unordered_set>

#include "common/check.h"
#include "dfp/dfp_engine.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

SimulationRun::SimulationRun(const SimConfig& config, const trace::Trace& t,
                             const sip::InstrumentationPlan* plan)
    : cfg_(config) {
  SGXPL_CHECK_MSG(!t.empty(), "empty trace");
  SGXPL_CHECK_MSG(cfg_.scheme != Scheme::kNative,
                  "the native scheme has no paging state to step; use "
                  "EnclaveSimulator::run");
  SGXPL_CHECK_MSG(!cfg_.uses_sip() || plan != nullptr,
                  "SIP scheme needs an instrumentation plan");

  if (cfg_.enclave.elrange_pages == 0) {
    cfg_.enclave.elrange_pages = t.elrange_pages();
  }
  SGXPL_CHECK_MSG(cfg_.enclave.elrange_pages > 0,
                  "trace declares no ELRANGE size");

  engine_ = make_dfp_engine(cfg_.scheme, cfg_.dfp);
  build_driver(cfg_, cfg_.enclave, engine_.get());
  attach_sinks(cfg_);
  if (engine_ != nullptr) {
    if (cfg_.registry != nullptr || cfg_.timeseries != nullptr) {
      engine_->set_observability(cfg_.registry, cfg_.timeseries);
    }
    if (cfg_.profiler != nullptr) {
      engine_->set_profiler(cfg_.profiler);
    }
  }

  tenant_.trace = &t;
  if (cfg_.uses_sip() && !plan->empty()) {
    tenant_.plan = plan;
  }
}

SimulationRun::~SimulationRun() = default;

bool SimulationRun::done() const noexcept {
  return tenant_.cursor >= tenant_.trace->size();
}

void SimulationRun::step() {
  SGXPL_CHECK_MSG(!done(), "stepping past the end of the trace");
  step_tenant(tenant_, cfg_);
}

Metrics SimulationRun::finish() {
  SGXPL_CHECK_MSG(done(), "finishing an unfinished run");
  SGXPL_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;

  Metrics& m = tenant_.metrics;
  m.total_cycles = tenant_.now;
  if (cfg_.validate) {
    driver_->drain();
    driver_->check_invariants();
  }
  m.driver = driver_->stats();
  if (injector_ != nullptr) {
    m.inject = injector_->stats();
  }
  if (engine_ != nullptr) {
    fill_dfp_counters(m, *engine_);
  }
  if (cfg_.registry != nullptr) {
    auto& reg = *cfg_.registry;
    m.driver.publish(reg);
    if (engine_ != nullptr) {
      engine_->publish(reg);
    }
    if (injector_ != nullptr) {
      m.inject.publish(reg);
    }
    reg.counter("sim.runs").add();
    reg.counter("sim.total_cycles").add(m.total_cycles);
    reg.counter("sim.compute_cycles").add(m.compute_cycles);
    reg.counter("sim.contention_cycles").add(m.contention_cycles);
    if (tenant_.plan != nullptr) {
      reg.counter("sip.checks").add(m.sip_checks);
      reg.counter("sip.requests").add(m.sip_requests);
      reg.counter("sip.check_cycles").add(m.sip_check_cycles);
      reg.counter("sip.notification_cycles").add(m.sip_notification_cycles);
    }
  }
  return m;
}

Metrics SimulationRun::run_to_end() {
  while (!done()) {
    step();
  }
  return finish();
}

snapshot::RunMeta SimulationRun::meta() const {
  snapshot::RunMeta meta;
  meta.kind = "enclave-sim";
  meta.scheme = to_string(cfg_.scheme);
  meta.trace_name = tenant_.trace->name();
  meta.trace_accesses = tenant_.trace->size();
  meta.elrange_pages = cfg_.enclave.elrange_pages;
  meta.epc_pages = cfg_.enclave.epc_pages;
  meta.chaos_spec = cfg_.chaos.any_enabled() ? cfg_.chaos.spec() : "";
  meta.chaos_seed = cfg_.chaos.seed;
  meta.hardening_spec = sgxsim::overload_spec(cfg_.enclave);
  meta.cursor = tenant_.cursor;
  return meta;
}

void SimulationRun::save_head(snapshot::Writer& w) const {
  w.begin_section("RUNS");
  w.boolean("run.started", tenant_.cursor > 0);
  w.u64("run.cursor", tenant_.cursor);
  w.u64("run.now", tenant_.now);
  tenant_.metrics.save(w);
  w.end_section();
}

void SimulationRun::load_head(snapshot::Reader& r) {
  r.enter_section("RUNS");
  const bool started = r.boolean("run.started");
  const std::uint64_t cursor = r.u64("run.cursor");
  SGXPL_CHECK_MSG(cursor <= tenant_.trace->size(),
                  "snapshot cursor " << cursor << " exceeds the trace's "
                                     << tenant_.trace->size() << " accesses");
  SGXPL_CHECK_MSG(started == (cursor > 0),
                  "snapshot says the run " << (started ? "has" : "has not")
                                           << " started but its cursor is "
                                           << cursor);
  tenant_.cursor = cursor;
  tenant_.now = r.u64("run.now");
  tenant_.metrics.load(r);
  r.leave_section();
}

void SimulationRun::save_tail(snapshot::Writer& w) const {
  if (engine_ != nullptr) {
    w.begin_section("DFPE");
    engine_->save(w);
    w.end_section();
  }
}

void SimulationRun::load_tail(snapshot::Reader& r) {
  if (engine_ != nullptr) {
    r.enter_section("DFPE");
    engine_->load(r, cfg_.enclave.elrange_pages);
    r.leave_section();
  }
}

EnclaveSimulator::EnclaveSimulator(const SimConfig& config)
    : config_(config) {}

Metrics EnclaveSimulator::run(const trace::Trace& t,
                              const sip::InstrumentationPlan* plan) {
  SGXPL_CHECK_MSG(!t.empty(), "empty trace");
  if (config_.scheme == Scheme::kNative) {
    return run_native(t);
  }
  SimulationRun run(config_, t, plan);
  return run_with_checkpoints(run, config_);
}

Metrics EnclaveSimulator::run_native(const trace::Trace& t) const {
  // Outside an enclave the 32 GiB host holds the whole footprint: only the
  // first touch of each page faults, at the native fault cost.
  Metrics m;
  std::unordered_set<PageNum> touched;
  touched.reserve(t.size() / 4);
  Cycles now = 0;
  for (const auto& a : t.accesses()) {
    ++m.accesses;
    now += a.gap;
    m.compute_cycles += a.gap;
    if (touched.insert(a.page).second) {
      now += config_.costs.native_fault;
      ++m.enclave_faults;  // reported as plain page faults here
    }
  }
  m.total_cycles = now;
  return m;
}

Metrics simulate(const trace::Trace& t, const SimConfig& config,
                 const sip::InstrumentationPlan* plan) {
  EnclaveSimulator sim(config);
  return sim.run(t, plan);
}

}  // namespace sgxpl::core
