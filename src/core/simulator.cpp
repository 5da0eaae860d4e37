#include "core/simulator.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "dfp/dfp_engine.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

SimulationRun::SimulationRun(const SimConfig& config, const trace::Trace& t,
                             const sip::InstrumentationPlan* plan)
    : cfg_(config), trace_(&t), plan_(plan) {
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

  sip_on_ = cfg_.uses_sip() && plan_ != nullptr && !plan_->empty();
}

SimulationRun::~SimulationRun() = default;

bool SimulationRun::done() const noexcept {
  return cursor_ >= trace_->size();
}

void SimulationRun::hoist(std::size_t idx) {
  // Hoisted mode: the check+notify for each instrumented access runs
  // `sip_lookahead` accesses early.
  const auto& target = trace_->accesses()[idx];
  if (!plan_->instrumented(target.site)) {
    return;
  }
  obs::ScopedSpan span(cfg_.profiler, obs::Phase::kSipCheck);
  const Cycles before = now_;
  now_ += cfg_.costs.bitmap_check;
  m_.sip_check_cycles += cfg_.costs.bitmap_check;
  ++m_.sip_checks;
  if (!driver_->sip_bitmap_check(target.page, now_)) {
    now_ += cfg_.costs.sip_notification;
    m_.sip_notification_cycles += cfg_.costs.sip_notification;
    ++m_.sip_requests;
    driver_->sip_prefetch(target.page, now_);
  }
  span.add_cycles(now_ - before);
}

void SimulationRun::ensure_started() {
  if (started_) {
    return;
  }
  started_ = true;
  // Issue the first lookahead window up front (the compiler hoists these
  // checks to the enclave's entry).
  if (sip_on_ && cfg_.sip_lookahead > 0) {
    const auto prefix = std::min<std::size_t>(cfg_.sip_lookahead,
                                              trace_->size());
    for (std::size_t j = 0; j < prefix; ++j) {
      hoist(j);
    }
  }
}

void SimulationRun::step() {
  SGXPL_CHECK_MSG(!done(), "stepping past the end of the trace");
  ensure_started();

  obs::ScopedSpan step_span(cfg_.profiler, obs::Phase::kStep);
  const Cycles step_start = now_;
  const auto& accesses = trace_->accesses();
  const std::size_t i = cursor_;
  const auto& a = accesses[i];
  ++m_.accesses;

  Cycles gap = a.gap;
  if (cfg_.channel_contention > 0.0 && gap > 0) {
    // Enclave compute overlapping page copies runs slower: inflate the
    // gap by the contention share of the overlapped busy time. One
    // fixpoint step is enough at realistic factors.
    const Cycles busy = driver_->channel().busy_overlap(now_, now_ + gap);
    if (busy > 0) {
      const auto extra = static_cast<Cycles>(static_cast<double>(busy) *
                                             cfg_.channel_contention);
      gap += extra;
      m_.contention_cycles += extra;
    }
  }
  now_ += gap;
  m_.compute_cycles += gap;

  if (sip_on_) {
    const std::uint32_t lookahead = cfg_.sip_lookahead;
    if (lookahead == 0) {
      if (plan_->instrumented(a.site)) {
        // Conservative mode: BIT_MAP_CHECK right before the access, then
        // a blocking page_loadin_function on a miss.
        obs::ScopedSpan sip_span(cfg_.profiler, obs::Phase::kSipCheck);
        const Cycles before = now_;
        now_ += cfg_.costs.bitmap_check;
        m_.sip_check_cycles += cfg_.costs.bitmap_check;
        ++m_.sip_checks;
        if (!driver_->sip_bitmap_check(a.page, now_)) {
          const Cycles loaded = driver_->sip_load(a.page, now_);
          now_ = loaded + cfg_.costs.sip_notification;
          m_.sip_notification_cycles += cfg_.costs.sip_notification;
          ++m_.sip_requests;
        }
        sip_span.add_cycles(now_ - before);
      }
    } else if (i + lookahead < accesses.size()) {
      hoist(i + lookahead);
    }
  }

  const auto outcome = driver_->access(a.page, now_);
  now_ = outcome.completion;
  if (outcome.faulted) {
    ++m_.enclave_faults;
  }
  step_span.add_cycles(now_ - step_start);
  ++cursor_;
}

Metrics SimulationRun::finish() {
  SGXPL_CHECK_MSG(done(), "finishing an unfinished run");
  SGXPL_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;
  ensure_started();  // a zero-step finish still runs the hoisted prefix

  m_.total_cycles = now_;
  if (cfg_.validate) {
    driver_->drain();
    driver_->check_invariants();
  }
  m_.driver = driver_->stats();
  if (injector_ != nullptr) {
    m_.inject = injector_->stats();
  }
  if (engine_ != nullptr) {
    fill_dfp_counters(m_, *engine_);
  }
  if (cfg_.registry != nullptr) {
    auto& reg = *cfg_.registry;
    m_.driver.publish(reg);
    if (engine_ != nullptr) {
      engine_->publish(reg);
    }
    if (injector_ != nullptr) {
      m_.inject.publish(reg);
    }
    reg.counter("sim.runs").add();
    reg.counter("sim.total_cycles").add(m_.total_cycles);
    reg.counter("sim.compute_cycles").add(m_.compute_cycles);
    reg.counter("sim.contention_cycles").add(m_.contention_cycles);
    if (sip_on_) {
      reg.counter("sip.checks").add(m_.sip_checks);
      reg.counter("sip.requests").add(m_.sip_requests);
      reg.counter("sip.check_cycles").add(m_.sip_check_cycles);
      reg.counter("sip.notification_cycles").add(m_.sip_notification_cycles);
    }
  }
  return m_;
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
  meta.trace_name = trace_->name();
  meta.trace_accesses = trace_->size();
  meta.elrange_pages = cfg_.enclave.elrange_pages;
  meta.epc_pages = cfg_.enclave.epc_pages;
  meta.chaos_spec = cfg_.chaos.any_enabled() ? cfg_.chaos.spec() : "";
  meta.chaos_seed = cfg_.chaos.seed;
  meta.hardening_spec = sgxsim::overload_spec(cfg_.enclave);
  meta.cursor = cursor_;
  return meta;
}

void SimulationRun::save_head(snapshot::Writer& w) const {
  w.begin_section("RUNS");
  w.boolean("run.started", started_);
  w.u64("run.cursor", cursor_);
  w.u64("run.now", now_);
  m_.save(w);
  w.end_section();
}

void SimulationRun::load_head(snapshot::Reader& r) {
  r.enter_section("RUNS");
  started_ = r.boolean("run.started");
  cursor_ = r.u64("run.cursor");
  SGXPL_CHECK_MSG(cursor_ <= trace_->size(),
                  "snapshot cursor " << cursor_ << " exceeds the trace's "
                                     << trace_->size() << " accesses");
  now_ = r.u64("run.now");
  m_.load(r);
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
