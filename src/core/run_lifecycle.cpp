#include "core/run_lifecycle.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "core/multi_enclave.h"
#include "core/simulator.h"
#include "sgxsim/driver.h"
#include "snapshot/chain.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

RunLifecycle::~RunLifecycle() = default;

void RunLifecycle::build_driver(const SimConfig& cfg,
                                sgxsim::EnclaveConfig& ecfg,
                                sgxsim::PreloadPolicy* policy) {
  if (cfg.chaos.any_enabled()) {
    injector_ = std::make_unique<inject::FaultInjector>(cfg.chaos);
    if (ecfg.watchdog_scan_interval == 0) {
      ecfg.watchdog_scan_interval = 64;
    }
  }
  driver_ = std::make_unique<sgxsim::Driver>(ecfg, cfg.costs, policy);
  if (injector_ != nullptr) {
    driver_->set_chaos(injector_.get());
  }
}

void RunLifecycle::attach_sinks(const SimConfig& cfg) {
  if (cfg.event_log != nullptr) {
    cfg.event_log->clear();
    driver_->set_event_log(cfg.event_log);
    if (injector_ != nullptr) {
      injector_->set_event_log(cfg.event_log);
    }
  }
  if (cfg.registry != nullptr) {
    driver_->set_metrics(cfg.registry);
  }
  if (cfg.timeseries != nullptr) {
    cfg.timeseries->clear();
    driver_->set_time_series(cfg.timeseries);
  }
  if (cfg.profiler != nullptr) {
    driver_->set_profiler(cfg.profiler);
  }
}

void RunLifecycle::save_tail(snapshot::Writer&) const {}

void RunLifecycle::load_tail(snapshot::Reader&) {}

void RunLifecycle::write_frame(snapshot::Writer& w,
                               const snapshot::ChainHeader& chain,
                               const snapshot::SectionGens* last) const {
  snapshot::write_chain_header(w, chain);
  snapshot::write_meta(w, meta());
  save_head(w);
  if (last == nullptr) {
    driver_->save_sections(w);
  } else {
    driver_->save_delta_sections(w, *last);
  }
  save_tail(w);
  if (injector_ != nullptr) {
    w.begin_section("INJC");
    injector_->save(w);
    w.end_section();
  }
}

void RunLifecycle::read_frame(snapshot::Reader& r, bool full) {
  const snapshot::ChainHeader chain = snapshot::read_chain_header(r);
  if (full) {
    SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kFull,
                    "this frame is delta "
                        << chain.seq
                        << " of a checkpoint chain and cannot be restored on "
                           "its own; restore the chain from its base frame");
  } else {
    SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kDelta,
                    "apply_delta_bytes() on a full frame; restore it with "
                    "load_bytes()");
  }
  const char* what = full ? "snapshot" : "delta frame";
  const std::string mismatch =
      snapshot::read_meta(r).incompatibility(meta());
  SGXPL_CHECK_MSG(mismatch.empty(),
                  what << " does not match this run: " << mismatch);
  load_head(r);
  if (full) {
    driver_->load_sections(r);
  } else {
    driver_->apply_delta_sections(r);
  }
  load_tail(r);
  if (injector_ != nullptr) {
    r.enter_section("INJC");
    injector_->load(r);
    r.leave_section();
  }
  SGXPL_CHECK_MSG(r.sections_entered() == r.section_count(),
                  what << " holds " << r.section_count()
                       << " sections but this run consumes "
                       << r.sections_entered());
  finished_ = false;
}

void RunLifecycle::save(snapshot::Writer& w) const {
  save(w, snapshot::ChainHeader{});
}

void RunLifecycle::save(snapshot::Writer& w,
                        const snapshot::ChainHeader& chain) const {
  SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kFull,
                  "save() writes full frames; deltas go through save_delta()");
  write_frame(w, chain, nullptr);
}

std::vector<std::uint8_t> RunLifecycle::save_bytes() const {
  snapshot::Writer w;
  save(w);
  return w.finish();
}

void RunLifecycle::load_bytes(const std::vector<std::uint8_t>& bytes) {
  snapshot::validate_frame(bytes);
  snapshot::Reader r(bytes);
  read_frame(r, true);
}

bool RunLifecycle::restore_if_compatible(
    const std::vector<std::uint8_t>& bytes) {
  snapshot::validate_frame(bytes);
  if (!snapshot::belongs_to(*this, bytes)) {
    return false;
  }
  load_bytes(bytes);
  return true;
}

void RunLifecycle::save_delta(snapshot::Writer& w,
                              const snapshot::ChainHeader& chain,
                              const snapshot::SectionGens& last) const {
  SGXPL_CHECK_MSG(chain.kind == snapshot::FrameKind::kDelta,
                  "save_delta() writes delta frames; full frames go through "
                  "save()");
  write_frame(w, chain, &last);
}

void RunLifecycle::apply_delta_bytes(const std::vector<std::uint8_t>& bytes) {
  snapshot::validate_frame(bytes);
  snapshot::Reader r(bytes);
  read_frame(r, false);
}

snapshot::SectionGens RunLifecycle::section_gens() const {
  return driver_->section_gens();
}

void RunLifecycle::clear_dirty() { driver_->clear_dirty(); }

std::unique_ptr<dfp::DfpEngine> RunLifecycle::make_dfp_engine(
    Scheme scheme, dfp::DfpParams params) {
  if (!uses_dfp(scheme)) {
    return nullptr;
  }
  if (dfp_stop_forced(scheme)) {
    params.stop_enabled = true;
  }
  return std::make_unique<dfp::DfpEngine>(params);
}

void RunLifecycle::fill_dfp_counters(Metrics& m,
                                     const dfp::DfpEngine& engine) {
  m.dfp_stopped = engine.stopped();
  m.dfp_stopped_at = engine.stopped_at();
  m.dfp_preload_counter = engine.preloaded_pages().preload_counter();
  m.dfp_acc_preload_counter = engine.preloaded_pages().acc_preload_counter();
  m.dfp_predictor_hits = engine.predictor().hits();
  m.dfp_predictor_misses = engine.predictor().misses();
}

void RunLifecycle::step_tenant(Tenant& t, const SimConfig& cfg) {
  const auto& accesses = t.trace->accesses();
  const std::uint32_t lookahead = cfg.sip_lookahead;
  // Hoisted mode: the check+notify for an instrumented access runs
  // `lookahead` accesses early and only posts the load.
  const auto hoist = [&](const trace::Access& target) {
    if (!t.plan->instrumented(target.site)) {
      return;
    }
    obs::ScopedSpan span(cfg.profiler, obs::Phase::kSipCheck);
    const Cycles before = t.now;
    t.now += cfg.costs.bitmap_check;
    t.metrics.sip_check_cycles += cfg.costs.bitmap_check;
    ++t.metrics.sip_checks;
    const PageNum page = t.offset + target.page;
    if (!driver_->sip_bitmap_check(page, t.now)) {
      t.now += cfg.costs.sip_notification;
      t.metrics.sip_notification_cycles += cfg.costs.sip_notification;
      ++t.metrics.sip_requests;
      driver_->sip_prefetch(page, t.now, t.pid);
    }
    span.add_cycles(t.now - before);
  };
  if (t.cursor == 0 && t.plan != nullptr && lookahead > 0) {
    // Issue the first lookahead window up front (the compiler hoists these
    // checks to the enclave's entry).
    const auto prefix = std::min<std::size_t>(lookahead, accesses.size());
    for (std::size_t j = 0; j < prefix; ++j) {
      hoist(accesses[j]);
    }
  }

  obs::ScopedSpan step_span(cfg.profiler, obs::Phase::kStep);
  const Cycles step_start = t.now;
  const auto& a = accesses[t.cursor];
  const PageNum page = t.offset + a.page;
  ++t.metrics.accesses;

  Cycles gap = a.gap;
  if (cfg.channel_contention > 0.0 && gap > 0) {
    // Enclave compute overlapping page copies runs slower: inflate the
    // gap by the contention share of the overlapped busy time. One
    // fixpoint step is enough at realistic factors.
    const Cycles busy = driver_->channel().busy_overlap(t.now, t.now + gap);
    if (busy > 0) {
      const auto extra = static_cast<Cycles>(static_cast<double>(busy) *
                                             cfg.channel_contention);
      gap += extra;
      t.metrics.contention_cycles += extra;
    }
  }
  t.now += gap;
  t.metrics.compute_cycles += gap;

  if (t.plan != nullptr) {
    if (lookahead == 0) {
      if (t.plan->instrumented(a.site)) {
        // Conservative mode: BIT_MAP_CHECK right before the access, then
        // a blocking page_loadin_function on a miss.
        obs::ScopedSpan sip_span(cfg.profiler, obs::Phase::kSipCheck);
        const Cycles before = t.now;
        t.now += cfg.costs.bitmap_check;
        t.metrics.sip_check_cycles += cfg.costs.bitmap_check;
        ++t.metrics.sip_checks;
        if (!driver_->sip_bitmap_check(page, t.now)) {
          t.now = driver_->sip_load(page, t.now) + cfg.costs.sip_notification;
          t.metrics.sip_notification_cycles += cfg.costs.sip_notification;
          ++t.metrics.sip_requests;
        }
        sip_span.add_cycles(t.now - before);
      }
    } else if (t.cursor + lookahead < accesses.size()) {
      hoist(accesses[t.cursor + lookahead]);
    }
  }

  const auto outcome = driver_->access(page, t.now, t.pid);
  t.now = outcome.completion;
  if (outcome.faulted) {
    ++t.metrics.enclave_faults;
  }
  step_span.add_cycles(t.now - step_start);
  ++t.cursor;
}

namespace {

/// The one resume-then-checkpoint loop; `progress` reads the accesses the
/// run has completed (the unit of the checkpoint cadence).
template <class Run, class Progress>
auto drive(Run& run, const SimConfig& cfg, Progress progress) {
  const CheckpointOptions& ck = cfg.checkpoint;
  // Checkpoint latency lands in the registry as steady-clock nanoseconds
  // (~cycles at 1 GHz) — real I/O time, not virtual time.
  const auto ns_since = [](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  if (!ck.resume_path.empty()) {
    // Meta-gated: a snapshot belonging to a different configuration (benches
    // that simulate several schemes overwrite one file per run) is skipped
    // and this run starts fresh. Corrupt snapshots or broken chains still
    // throw. Any `.delta-N` files beside the base are replayed on top.
    obs::ScopedSpan span(cfg.profiler, obs::Phase::kSnapshotLoad);
    const auto t0 = std::chrono::steady_clock::now();
    if (snapshot::restore_chain_from_files(run, ck.resume_path) &&
        cfg.registry != nullptr) {
      cfg.registry->histogram("snapshot.load_cycles").record(ns_since(t0));
    }
  }
  const bool checkpointing = ck.every_accesses > 0 && !ck.path.empty();
  snapshot::Snapshotter<Run> snap(ck.full_every);
  while (!run.done()) {
    run.step();
    if (checkpointing && progress(run) % ck.every_accesses == 0) {
      obs::ScopedSpan span(cfg.profiler, obs::Phase::kSnapshotSave);
      const auto t0 = std::chrono::steady_clock::now();
      const snapshot::ChainFrame frame = snap.checkpoint(run);
      const bool full = frame.header.kind == snapshot::FrameKind::kFull;
      snapshot::write_file_atomic(
          full ? ck.path : snapshot::delta_path(ck.path, frame.header.seq),
          frame.bytes);
      if (full) snapshot::remove_stale_deltas(ck.path);
      if (cfg.registry != nullptr) {
        cfg.registry->histogram("snapshot.save_cycles").record(ns_since(t0));
        cfg.registry->histogram("snapshot.bytes_written")
            .record(frame.bytes.size());
      }
    }
  }
  return run.finish();
}

}  // namespace

Metrics run_with_checkpoints(SimulationRun& run, const SimConfig& cfg) {
  return drive(run, cfg, [](const SimulationRun& r) { return r.cursor(); });
}

MultiEnclaveResult run_with_checkpoints(MultiEnclaveRun& run,
                                        const SimConfig& cfg) {
  return drive(run, cfg, [](const MultiEnclaveRun& r) { return r.steps(); });
}

}  // namespace sgxpl::core
