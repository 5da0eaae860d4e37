#include "core/multi_enclave.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/per_enclave_policy.h"
#include "dfp/dfp_engine.h"
#include "inject/fault_injector.h"
#include "obs/metrics.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

struct MultiEnclaveRun::Impl {
  Impl(const SimConfig& config, const std::vector<EnclaveApp>& the_apps)
      : cfg(config), apps(the_apps) {
    SGXPL_CHECK_MSG(!apps.empty(), "no enclaves to run");

    // Lay the enclaves out at disjoint offsets in the combined space, each
    // with its own scheme state.
    std::vector<PerEnclavePolicy::Slot> slots;
    slots.reserve(apps.size());
    tenants.resize(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const EnclaveApp& app = apps[i];
      SGXPL_CHECK(app.trace != nullptr && !app.trace->empty());
      if (uses_sip(app.scheme)) {
        SGXPL_CHECK_MSG(app.plan != nullptr,
                        "SIP scheme needs a plan (enclave " << i << ")");
        if (!app.plan->empty()) {
          tenants[i].plan = app.plan;
        }
      }
      tenants[i].trace = app.trace;
      tenants[i].offset = combined_pages;
      tenants[i].pid = static_cast<ProcessId>(i);
      combined_pages += app.trace->elrange_pages();
      PerEnclavePolicy::Slot slot;
      slot.lo = tenants[i].offset;
      slot.hi = combined_pages;
      slot.engine = make_dfp_engine(app.scheme, cfg.dfp);
      slots.push_back(std::move(slot));
    }
    policy = std::make_unique<PerEnclavePolicy>(std::move(slots));
  }

  const Tenant& at(std::size_t enclave) const {
    SGXPL_CHECK_MSG(enclave < tenants.size(),
                    "no enclave " << enclave << " in this co-run");
    return tenants[enclave];
  }
  Tenant& at(std::size_t enclave) {
    return const_cast<Tenant&>(std::as_const(*this).at(enclave));
  }

  std::uint64_t steps() const noexcept {
    std::uint64_t sum = 0;
    for (const Tenant& t : tenants) {
      sum += t.cursor;
    }
    return sum;
  }

  /// Per-tenant snapshot groups: ENCM identity, APPS clock/metrics, DFPE
  /// engine when the tenant's scheme runs one. Written identically by full
  /// and delta frames (tenant state is small and moves every step).
  void save_tenants(snapshot::Writer& w) const {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const bool has_dfp = policy->engine(i) != nullptr;
      w.begin_section("ENCM");
      w.u64("enc.index", i);
      w.str("enc.scheme", to_string(apps[i].scheme));
      w.str("enc.trace", apps[i].trace->name());
      w.boolean("enc.has_dfp", has_dfp);
      w.end_section();
      const Tenant& st = tenants[i];
      w.begin_section("APPS");
      w.u64("app.cursor", st.cursor);
      w.u64("app.now", st.now);
      w.boolean("app.done", st.done);
      st.metrics.save(w);
      w.end_section();
      if (has_dfp) {
        w.begin_section("DFPE");
        policy->engine(i)->save(w);
        w.end_section();
      }
    }
  }

  void load_tenants(snapshot::Reader& r) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      r.enter_section("ENCM");
      const std::uint64_t index = r.u64("enc.index");
      SGXPL_CHECK_MSG(index == i, "snapshot tenant group " << index
                                      << " arrived at position " << i);
      const std::string scheme = r.str("enc.scheme");
      SGXPL_CHECK_MSG(scheme == to_string(apps[i].scheme),
                      "snapshot enclave " << i << " ran scheme '" << scheme
                                          << "' but this run expects '"
                                          << to_string(apps[i].scheme) << "'");
      const std::string trace_name = r.str("enc.trace");
      SGXPL_CHECK_MSG(trace_name == apps[i].trace->name(),
                      "snapshot enclave " << i << " ran trace '" << trace_name
                                          << "' but this run expects '"
                                          << apps[i].trace->name() << "'");
      const bool has_dfp = r.boolean("enc.has_dfp");
      SGXPL_CHECK_MSG(has_dfp == (policy->engine(i) != nullptr),
                      "snapshot enclave "
                          << i << (has_dfp ? " carries" : " lacks")
                          << " a DFP engine but this run "
                          << (has_dfp ? "lacks" : "carries") << " one");
      r.leave_section();
      Tenant& st = tenants[i];
      r.enter_section("APPS");
      st.cursor = r.u64("app.cursor");
      SGXPL_CHECK_MSG(st.cursor <= apps[i].trace->size(),
                      "snapshot cursor " << st.cursor << " exceeds enclave "
                                         << i << "'s trace of "
                                         << apps[i].trace->size()
                                         << " accesses");
      st.now = r.u64("app.now");
      st.done = r.boolean("app.done");
      SGXPL_CHECK_MSG(st.done || st.cursor < apps[i].trace->size(),
                      "snapshot enclave " << i << " consumed its trace but "
                                             "is not marked done");
      st.metrics.load(r);
      r.leave_section();
      if (has_dfp) {
        r.enter_section("DFPE");
        policy->mutable_engine(i)->load(
            r, st.offset + apps[i].trace->elrange_pages());
        r.leave_section();
      }
    }
  }

  SimConfig cfg;
  std::vector<EnclaveApp> apps;
  PageNum combined_pages = 0;
  std::unique_ptr<PerEnclavePolicy> policy;
  std::vector<Tenant> tenants;
};

MultiEnclaveRun::MultiEnclaveRun(const SimConfig& config,
                                 const std::vector<EnclaveApp>& apps)
    : impl_(std::make_unique<Impl>(config, apps)) {
  const Impl& im = *impl_;
  sgxsim::EnclaveConfig ecfg = im.cfg.enclave;
  ecfg.elrange_pages = im.combined_pages;
  build_driver(im.cfg, ecfg, im.policy.get());
  // Elastic EPC engages only here: the controller needs the tenant layout,
  // which single-enclave runs do not have. Engagement is deterministic
  // from config + apps, so both sides of a save/load agree on whether the
  // DRVR section carries elastic fields.
  if (im.cfg.enclave.elastic.enabled) {
    std::vector<std::pair<PageNum, PageNum>> geometry;
    geometry.reserve(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      geometry.emplace_back(im.tenants[i].offset,
                            apps[i].trace->elrange_pages());
    }
    driver_->set_elastic_geometry(geometry);
  }
  // Only the shared driver gets live sinks: the per-enclave DFP engines
  // would all write the same "dfp.depth" gauge, so their counters are
  // published (additively) at finish() instead.
  attach_sinks(im.cfg);
  if (im.cfg.profiler != nullptr) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (auto* eng = im.policy->mutable_engine(i)) {
        eng->set_profiler(im.cfg.profiler);
      }
    }
  }
}

MultiEnclaveRun::~MultiEnclaveRun() = default;

bool MultiEnclaveRun::done() const noexcept {
  for (const Tenant& t : impl_->tenants) {
    if (!t.done) {
      return false;
    }
  }
  return true;
}

std::uint64_t MultiEnclaveRun::steps() const noexcept {
  return impl_->steps();
}

void MultiEnclaveRun::step() {
  Impl& im = *impl_;
  // Co-simulation: each enclave has its own clock and cursor; always step
  // the one furthest behind.
  Tenant* next = nullptr;
  for (Tenant& t : im.tenants) {
    if (!t.done && !t.paused && (next == nullptr || t.now < next->now)) {
      next = &t;
    }
  }
  SGXPL_CHECK_MSG(next != nullptr,
                  "stepping a finished (or fully paused) multi-enclave run");
  step_tenant(*next, im.cfg);
  if (next->cursor >= next->trace->size()) {
    next->done = true;
    next->metrics.total_cycles = next->now;
  }
}

MultiEnclaveResult MultiEnclaveRun::finish() {
  Impl& im = *impl_;
  SGXPL_CHECK_MSG(done(), "finishing an unfinished multi-enclave run");
  SGXPL_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;

  // Settle the channel and sweep the invariants as a solo run does under
  // `validate`; a hardened run always settles, since it may still hold lost
  // ops awaiting their retry deadlines (shed/retry/permanent counters must
  // be final).
  if (im.cfg.validate || im.cfg.enclave.channel.max_retries > 0) {
    driver_->drain();
    driver_->check_invariants();
  }

  MultiEnclaveResult result;
  result.per_enclave.reserve(im.apps.size());
  result.degrade_levels.reserve(im.apps.size());
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    Metrics m = im.tenants[i].metrics;
    if (const auto* engine = im.policy->engine(i)) {
      fill_dfp_counters(m, *engine);
    }
    result.makespan = std::max(result.makespan, m.total_cycles);
    result.per_enclave.push_back(std::move(m));
    result.degrade_levels.push_back(
        driver_->degrade_level(ProcessId{static_cast<std::uint32_t>(i)}));
  }
  result.driver = driver_->stats();
  if (injector_ != nullptr) {
    result.inject = injector_->stats();
  }
  if (driver_->elastic_engaged()) {
    const auto& el = driver_->elastic();
    result.elastic = el.stats();
    result.elastic_quotas.reserve(el.tenant_count());
    for (std::size_t t = 0; t < el.tenant_count(); ++t) {
      result.elastic_quotas.push_back(el.quota(t));
    }
  }
  if (im.cfg.registry != nullptr) {
    auto& reg = *im.cfg.registry;
    result.driver.publish(reg);
    if (driver_->elastic_engaged()) {
      driver_->elastic().publish(reg);
    }
    for (std::size_t i = 0; i < im.apps.size(); ++i) {
      if (const auto* engine = im.policy->engine(i)) {
        engine->publish(reg);  // counters add across enclaves
      }
    }
    if (injector_ != nullptr) {
      result.inject.publish(reg);
    }
  }
  return result;
}

MultiEnclaveResult MultiEnclaveRun::run_to_end() {
  while (!done()) {
    step();
  }
  return finish();
}

snapshot::RunMeta MultiEnclaveRun::meta() const {
  const Impl& im = *impl_;
  snapshot::RunMeta meta;
  meta.kind = "multi-enclave";
  std::uint64_t total_accesses = 0;
  for (std::size_t i = 0; i < im.apps.size(); ++i) {
    if (i > 0) {
      meta.scheme += ",";
      meta.trace_name += ",";
    }
    meta.scheme += to_string(im.apps[i].scheme);
    meta.trace_name += im.apps[i].trace->name();
    total_accesses += im.apps[i].trace->size();
  }
  meta.trace_accesses = total_accesses;
  meta.elrange_pages = im.combined_pages;
  meta.epc_pages = im.cfg.enclave.epc_pages;
  meta.chaos_spec = im.cfg.chaos.any_enabled() ? im.cfg.chaos.spec() : "";
  meta.chaos_seed = im.cfg.chaos.seed;
  meta.hardening_spec = sgxsim::overload_spec(im.cfg.enclave);
  meta.cursor = im.steps();
  return meta;
}

void MultiEnclaveRun::save_head(snapshot::Writer& w) const {
  impl_->save_tenants(w);
}

void MultiEnclaveRun::load_head(snapshot::Reader& r) {
  impl_->load_tenants(r);
}

std::size_t MultiEnclaveRun::enclave_count() const noexcept {
  return impl_->apps.size();
}

Metrics MultiEnclaveRun::tenant_metrics(std::size_t enclave) const {
  return impl_->at(enclave).metrics;
}

std::uint64_t MultiEnclaveRun::tenant_cursor(std::size_t enclave) const {
  return impl_->at(enclave).cursor;
}

Cycles MultiEnclaveRun::tenant_clock(std::size_t enclave) const {
  return impl_->at(enclave).now;
}

snapshot::TenantGeometry MultiEnclaveRun::tenant_geometry(
    std::size_t enclave) const {
  const Tenant& t = impl_->at(enclave);
  return snapshot::TenantGeometry{.lo = t.offset,
                                  .pages = t.trace->elrange_pages(),
                                  .trace_accesses = t.trace->size()};
}

void MultiEnclaveRun::set_tenant_paused(std::size_t enclave, bool paused) {
  impl_->at(enclave).paused = paused;
}

bool MultiEnclaveRun::tenant_paused(std::size_t enclave) const {
  return impl_->at(enclave).paused;
}

bool MultiEnclaveRun::steppable() const noexcept {
  for (const Tenant& t : impl_->tenants) {
    if (!t.done && !t.paused) {
      return true;
    }
  }
  return false;
}

void MultiEnclaveRun::begin_tenant_drain(std::size_t enclave) {
  driver_->begin_drain(impl_->at(enclave).pid);
}

void MultiEnclaveRun::end_tenant_drain(std::size_t enclave) {
  driver_->end_drain(impl_->at(enclave).pid);
}

void MultiEnclaveRun::retire_tenant(std::size_t enclave) {
  Tenant& t = impl_->at(enclave);
  SGXPL_CHECK_MSG(t.paused,
                  "retire_tenant() requires the tenant to be paused (the "
                  "stop-and-copy must have frozen its clock)");
  if (!t.done) {
    t.done = true;
    t.metrics.total_cycles = t.now;
  }
}

MultiEnclaveSimulator::MultiEnclaveSimulator(const SimConfig& config)
    : config_(config) {}

MultiEnclaveResult MultiEnclaveSimulator::run(
    const std::vector<EnclaveApp>& apps) {
  MultiEnclaveRun run(config_, apps);
  return run_with_checkpoints(run, config_);
}

}  // namespace sgxpl::core
