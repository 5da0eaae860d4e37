#include "sgxsim/driver.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

using obs::EventType;

const char* to_string(DemandPolicy p) noexcept {
  switch (p) {
    case DemandPolicy::kPreempt:
      return "preempt";
    case DemandPolicy::kPreemptAndFlush:
      return "preempt+flush";
    case DemandPolicy::kFifo:
      return "fifo";
  }
  return "?";
}

std::optional<DemandPolicy> parse_demand_policy(
    std::string_view name) noexcept {
  for (const DemandPolicy p :
       {DemandPolicy::kPreempt, DemandPolicy::kPreemptAndFlush,
        DemandPolicy::kFifo}) {
    if (name == to_string(p)) {
      return p;
    }
  }
  return std::nullopt;
}

std::string overload_spec(const EnclaveConfig& cfg) {
  const ChannelConfig def;
  const ChannelConfig& ch = cfg.channel;
  const bool channel_default =
      ch.max_queued == def.max_queued &&
      ch.preload_high_water == def.preload_high_water &&
      ch.max_retries == def.max_retries &&
      ch.retry_backoff == def.retry_backoff &&
      ch.deadline_slack == def.deadline_slack &&
      ch.retry_seed == def.retry_seed;
  if (channel_default && !cfg.admission.enabled && !cfg.elastic.enabled) {
    return {};
  }
  std::ostringstream oss;
  oss << "queue=" << ch.max_queued << ",hw=" << ch.preload_high_water
      << ",retries=" << ch.max_retries << ",backoff=" << ch.retry_backoff
      << ",slack=" << ch.deadline_slack << ",rseed=" << ch.retry_seed;
  if (cfg.admission.enabled) {
    const AdmissionParams& a = cfg.admission;
    oss << ";admission=1,thr=" << a.degrade_threshold
        << ",minw=" << a.min_window_events << ",recw=" << a.recover_windows
        << ",recthr=" << a.recover_threshold
        << ",quota=" << a.preload_quota_fraction;
    if (a.target_window_events > 0) {
      // Load-adaptive windows change the ladder's verdict cadence, so they
      // are identity too; appended only when engaged to keep every existing
      // admission spec (and snapshot) byte-identical.
      oss << ",target=" << a.target_window_events
          << ",maxspan=" << a.max_window_span;
    }
  }
  if (cfg.elastic.enabled) {
    oss << ";elastic=1," << elastic_spec(cfg.elastic);
  }
  return oss.str();
}

void DriverStats::publish(obs::MetricsRegistry& reg) const {
#define SGXPL_PUBLISH(member, metric) reg.counter(metric).add(member);
  SGXPL_DRIVER_STATS_FIELDS(SGXPL_PUBLISH)
#undef SGXPL_PUBLISH
}

std::string DriverStats::describe() const {
  std::ostringstream oss;
  const char* sep = "";
#define SGXPL_DESCRIBE(member, metric) \
  oss << std::exchange(sep, " ") << #member "=" << member;
  SGXPL_DRIVER_STATS_FIELDS(SGXPL_DESCRIBE)
#undef SGXPL_DESCRIBE
  return oss.str();
}

Driver::Driver(const EnclaveConfig& config, const CostModel& costs,
               PreloadPolicy* policy)
    : config_(config),
      costs_(costs),
      policy_(policy),
      page_table_(config.elrange_pages),
      epc_(config.epc_pages),
      backing_(config.elrange_pages),
      channel_(config.serial_channel, config.channel),
      bitmap_(config.elrange_pages),
      eviction_(make_eviction_policy(config.eviction, epc_)),
      next_scan_(costs.scan_period),
      retry_rng_(config.channel.retry_seed),
      // UINT64_MAX never collides with an op id (ids count up from 0).
      completed_ring_(64, UINT64_MAX),
      changed_(config.elrange_pages) {
  SGXPL_CHECK_MSG(config.elrange_pages > 0, "empty ELRANGE");
  SGXPL_CHECK_MSG(config.epc_pages > 0, "empty EPC");
  if (config.watchdog_scan_interval > 0) {
    page_table_.watch(&changed_);
    epc_.watch(&changed_);
    bitmap_.watch(&changed_);
  }
}

void Driver::set_metrics(obs::MetricsRegistry* reg) noexcept {
  metrics_ = reg;
  if (reg != nullptr) {
    fault_stall_hist_ = &reg->histogram("driver.fault.stall_cycles");
    sip_stall_hist_ = &reg->histogram("driver.sip.stall_cycles");
    dfp_batch_hist_ = &reg->histogram("driver.dfp.batch_pages");
    degrade_gauge_ = &reg->gauge("degrade.level");
  } else {
    fault_stall_hist_ = nullptr;
    sip_stall_hist_ = nullptr;
    dfp_batch_hist_ = nullptr;
    degrade_gauge_ = nullptr;
  }
}

void Driver::set_time_series(obs::TimeSeriesSet* ts) noexcept {
  series_ = ts;
  ts_last_at_ = bookkept_until_;
  ts_last_busy_ = channel_busy_total_;
  ts_last_faults_ = stats_.faults;
  ts_last_preloads_used_ = stats_.preloads_used;
  ts_last_preloads_completed_ = stats_.preloads_completed;
}

AccessOutcome Driver::access(PageNum page, Cycles now, ProcessId pid) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "access outside ELRANGE: page " << page);
  advance_to(now);
  ++stats_.accesses;

  {
    obs::ScopedSpan lookup(prof_, obs::Phase::kPageTableLookup);
    if (page_table_.present(page)) {
      if (page_table_.touch(page)) {
        note_preload_used(page);
      }
      eviction_->on_access(page);
      if (elastic_engaged_) {
        // Liveness evidence (EDMM accessed-bit sampling): a fully-resident
        // tenant never faults or maps, and without this the idle shrink
        // would mistake it for a dead one and evict its working set.
        elastic_.note_access(elastic_.owner(page));
      }
      return AccessOutcome{.completion = now, .faulted = false,
                           .hit_inflight = false};
    }
  }

  // --- Enclave page fault: AEX out of the enclave. ---
  ++stats_.faults;
  if (elastic_engaged_) {
    // Pressure evidence for the AIMD grow; only the primary fault counts
    // (re-fault retries below are the channel's problem, not demand).
    elastic_.note_fault(elastic_.owner(page));
  }
  obs::ScopedSpan fault_span(prof_, obs::Phase::kFault);
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kFault, .page = page});
  }
  const Cycles after_aex = now + costs_.aex;
  advance_to(after_aex);

  // A preload may have landed during the AEX window.
  if (page_table_.present(page)) {
    ++stats_.fault_wait_hits;
    if (page_table_.touch(page)) {
      note_preload_used(page);
    }
    eviction_->on_access(page);
    const Cycles done = after_aex + costs_.eresume;
    advance_to(done);
    if (log_ != nullptr) {
      log_->record({.at = done, .type = EventType::kResume, .page = page});
    }
    stats_.fault_stall_cycles += done - now;
    if (fault_stall_hist_ != nullptr) {
      fault_stall_hist_->record(done - now);
    }
    fault_span.add_cycles(done - now);
    return AccessOutcome{.completion = done, .faulted = true,
                         .hit_inflight = true};
  }

  Cycles load_end = 0;
  bool hit_inflight = false;
  const auto pending = channel_.find(page);
  const DemandPolicy dp = config_.demand_policy;
  // Quarantined tenants lose demand priority too: their loads queue FIFO
  // behind everyone else's work (the bottom of the degradation ladder).
  const bool demand_fifo =
      dp == DemandPolicy::kFifo ||
      (admission_active() && !tenant(pid).demand_priority());
  if (pending.has_value() &&
      (pending->start <= after_aex || demand_fifo)) {
    // The page is already being loaded (or is queued and FIFO mode keeps
    // queues intact): a load in progress cannot be preempted, so the
    // handler simply waits for it.
    load_end = pending->end;
    hit_inflight = true;
    ++stats_.fault_wait_hits;
  } else {
    // The §4.1 in-stream abort: if the faulted page was queued for DFP
    // preloading (the app outran the preloader within a stream), the whole
    // queued batch is flushed and the page is demand-loaded instead.
    // Under kPreemptAndFlush every demand fault flushes the queue. A
    // queued SIP prefetch for the page is simply promoted (cancelled and
    // re-issued as the demand load).
    const bool flush =
        (pending.has_value() && pending->kind == OpKind::kDfpPreload) ||
        dp == DemandPolicy::kPreemptAndFlush;
    if (flush) {
      flush_queued_preloads(after_aex);
    }
    if (pending.has_value() && pending->kind == OpKind::kSipLoad) {
      const bool cancelled = channel_.cancel_not_started(page, after_aex);
      SGXPL_CHECK_MSG(cancelled, "queued SIP op for page " << page
                                     << " could not be promoted");
    }
    if (demand_fifo) {
      load_end =
          schedule_load(page, after_aex, OpKind::kDemandLoad, pid).end;
    } else {
      load_end =
          schedule_load_priority(page, after_aex, OpKind::kDemandLoad, pid)
              .end;
    }
    ++stats_.demand_loads;
  }

  // Consult the preload policy while the fault is being serviced; its
  // predictions queue up behind the demand load (through the admission
  // layer when a queue bound or the degradation ladder is configured).
  if (policy_ != nullptr) {
    const auto predicted = policy_->on_fault(pid, page, after_aex);
    obs::ScopedSpan issue_span(predicted.empty() ? nullptr : prof_,
                               obs::Phase::kPreloadIssue);
    std::uint64_t scheduled = 0;
    std::vector<PageNum> shed;
    for (const PageNum p : predicted) {
      if (p >= config_.elrange_pages || page_table_.present(p) ||
          channel_.find(p).has_value()) {
        continue;
      }
      if (submit_preload(pid, p, after_aex) == AdmissionResult::kAdmitted) {
        ++stats_.preloads_issued;
        ++scheduled;
      } else {
        shed.push_back(p);
      }
    }
    if (!shed.empty()) {
      policy_->on_preloads_shed(shed, after_aex);
    }
    if (dfp_batch_hist_ != nullptr && !predicted.empty()) {
      dfp_batch_hist_->record(scheduled);
    }
  }

  Cycles done = 0;
  int attempts = 0;
  for (;;) {
    done = load_end + costs_.eresume;
    advance_to(done);
    if (page_table_.present(page)) {
      break;
    }
    // Pathological: other loads committing in the same window evicted the
    // page before the enclave re-entered (possible under heavy preload
    // pressure, and routinely under the idealized parallel-channel
    // ablation). The access simply faults again.
    SGXPL_CHECK_MSG(++attempts <= 8,
                    "page " << page << " evicted "
                            << attempts << " times before first use");
    ++stats_.faults;
    const Cycles retry_at = done + costs_.aex;
    advance_to(retry_at);
    if (const auto op = channel_.find(page)) {
      load_end = op->end;
      ++stats_.fault_wait_hits;
    } else if (demand_fifo) {
      load_end = schedule_load(page, retry_at, OpKind::kDemandLoad, pid).end;
      ++stats_.demand_loads;
    } else {
      load_end =
          schedule_load_priority(page, retry_at, OpKind::kDemandLoad, pid)
              .end;
      ++stats_.demand_loads;
    }
  }
  if (page_table_.touch(page)) {
    note_preload_used(page);
  }
  eviction_->on_access(page);
  if (log_ != nullptr) {
    log_->record({.at = done, .type = EventType::kResume, .page = page});
  }
  stats_.fault_stall_cycles += done - now;
  if (fault_stall_hist_ != nullptr) {
    fault_stall_hist_->record(done - now);
  }
  fault_span.add_cycles(done - now);
  return AccessOutcome{.completion = done, .faulted = true,
                       .hit_inflight = hit_inflight};
}

Cycles Driver::sip_load(PageNum page, Cycles now) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "sip_load outside ELRANGE: page " << page);
  obs::ScopedSpan span(prof_, obs::Phase::kSipLoad);
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kSipRequest, .page = page});
  }
  advance_to(now);
  if (page_table_.present(page)) {
    // The shared bitmap was stale (page arrived between check and request).
    return now;
  }
  Cycles end = 0;
  if (const auto pending = channel_.find(page)) {
    end = pending->end;
    ++stats_.sip_inflight_waits;
  } else if (config_.demand_policy == DemandPolicy::kFifo) {
    end = schedule_load(page, now, OpKind::kSipLoad).end;
    ++stats_.sip_loads;
  } else {
    // The blocking notification overtakes queued asynchronous preloads.
    end = schedule_load_priority(page, now, OpKind::kSipLoad).end;
    ++stats_.sip_loads;
  }
  int attempts = 0;
  for (;;) {
    advance_to(end);
    if (page_table_.present(page)) {
      break;
    }
    // Evicted by a racing commit before the requester could use it; the
    // kernel worker retries the load.
    SGXPL_CHECK_MSG(++attempts <= 8,
                    "sip page " << page << " evicted " << attempts
                                << " times before first use");
    if (const auto op = channel_.find(page)) {
      end = op->end;
    } else {
      end = schedule_load(page, end, OpKind::kSipLoad).end;
      ++stats_.sip_loads;
    }
  }
  stats_.sip_stall_cycles += end - now;
  if (sip_stall_hist_ != nullptr) {
    sip_stall_hist_->record(end - now);
  }
  span.add_cycles(end - now);
  return end;
}

bool Driver::sip_bitmap_check(PageNum page, Cycles now) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "bitmap check outside ELRANGE: page " << page);
  obs::ScopedSpan span(prof_, obs::Phase::kBitmapCheck);
  const bool actual = bitmap_.test(page);
  if (chaos_ == nullptr) {
    return actual;
  }
  const bool seen = chaos_->corrupt_bitmap_read(page, actual, now);
  if (seen != actual) {
    ++stats_.bitmap_lies;
    chaos_dirty_ = true;
  }
  return seen;
}

void Driver::sip_prefetch(PageNum page, Cycles now, ProcessId pid) {
  SGXPL_CHECK_MSG(page < config_.elrange_pages,
                  "sip_prefetch outside ELRANGE: page " << page);
  obs::ScopedSpan span(prof_, obs::Phase::kSipPrefetch);
  advance_to(now);
  if (page_table_.present(page) || channel_.find(page).has_value()) {
    return;
  }
  if (draining(pid)) {
    // Prefetches are speculative; a draining tenant sheds them like any
    // other preload-class submission (see submit_preload).
    ++stats_.preloads_shed;
    if (log_ != nullptr) {
      log_->record({.at = now, .type = EventType::kAdmission, .page = page,
                    .detail = to_string(AdmissionResult::kRejectedDegraded)});
    }
    return;
  }
  // Prefetches are speculative, so the admission layer may shed them: a
  // degraded tenant loses prefetch privileges first, and a full bounded
  // queue rejects them like any other preload-class submission.
  if (channel_.bounded() || admission_active()) {
    AdmissionResult r = AdmissionResult::kAdmitted;
    if (admission_active() && !tenant(pid).prefetches_allowed()) {
      r = AdmissionResult::kRejectedDegraded;
    } else if (channel_.full()) {
      r = AdmissionResult::kRejectedFull;
      if (admission_active()) {
        tenant(pid).note_rejected();
      }
    }
    if (r != AdmissionResult::kAdmitted) {
      ++stats_.preloads_shed;
      if (log_ != nullptr) {
        log_->record({.at = now, .type = EventType::kAdmission, .page = page,
                      .detail = to_string(r)});
      }
      return;
    }
  }
  // Prefetches queue like preloads (no demand priority); demand faults
  // never flush them — the app explicitly asked for the page.
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kSipPrefetch, .page = page});
  }
  schedule_load(page, now, OpKind::kSipLoad);
  ++stats_.sip_prefetches;
}

void Driver::advance_to(Cycles now) {
  if (now < bookkept_until_) {
    now = bookkept_until_;
  }
  // Hoisted out of the loop: in the default (non-hardened) config every
  // completion commits directly, with no retry bookkeeping to consult.
  const bool hard = hardened();
  while (next_scan_ <= now) {
    if (chaos_ != nullptr) {
      // The injector may stall the service thread: the scan slips, so
      // commits and DFP counter updates arrive late. The stall is strictly
      // positive, so the loop always makes progress.
      const Cycles stall = chaos_->stall_scan(next_scan_, costs_.scan_period);
      if (stall > 0) {
        ++stats_.scan_stalls;
        chaos_dirty_ = true;
        next_scan_ += stall;
        continue;
      }
    }
    obs::ScopedSpan scan_span(prof_, obs::Phase::kScan);
    for (const auto& op : channel_.collect_completed(next_scan_)) {
      if (!hard || op.kind != OpKind::kDfpPreload) {
        commit_load(op);
      } else {
        deliver_completion(op);
      }
    }
    if (hard) {
      sweep_lost_ops(next_scan_);
    }
    ++stats_.scans;
    if (log_ != nullptr) {
      log_->record({.at = next_scan_, .type = EventType::kScan});
    }
    if (policy_ != nullptr) {
      if (chaos_ != nullptr && chaos_->lose_predictor_state(next_scan_)) {
        chaos_dirty_ = true;
        policy_->on_state_lost(next_scan_);
      }
      policy_->on_scan(page_table_, next_scan_);
    }
    if (series_ != nullptr) {
      sample_time_series(next_scan_);
    }
    watchdog_tick(next_scan_);
    if (admission_active()) {
      admission_windows(next_scan_);
    }
    if (elastic_engaged_) {
      elastic_rebalance(next_scan_);
    }
    next_scan_ += costs_.scan_period;
  }
  for (const auto& op : channel_.collect_completed(now)) {
    if (!hard || op.kind != OpKind::kDfpPreload) {
      commit_load(op);
    } else {
      deliver_completion(op);
    }
  }
  if (hard) {
    sweep_lost_ops(now);
  }
  bookkept_until_ = now;
}

void Driver::watchdog_tick(Cycles now) {
  if (config_.watchdog_scan_interval == 0) {
    return;
  }
  ++scans_since_watchdog_;
  if (!chaos_dirty_ &&
      scans_since_watchdog_ < config_.watchdog_scan_interval) {
    return;
  }
  {
    obs::ScopedSpan span(prof_, obs::Phase::kWatchdog);
    if (stats_.watchdog_checks % kFullSweepEvery == 0) {
      check_invariants();
    } else {
      check_changed();
    }
    changed_.clear();
  }
  ++stats_.watchdog_checks;
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kWatchdog,
                  .aux = stats_.scans});
  }
  scans_since_watchdog_ = 0;
  chaos_dirty_ = false;
}

Cycles Driver::drain() {
  Cycles end = std::max(bookkept_until_, channel_.completion_time());
  advance_to(end);
  // Hardened mode: lost ops may still be waiting on their deadlines, and
  // re-issues put fresh work on the channel. Keep advancing past the
  // furthest deadline/completion until both settle — every lost op exits
  // within max_retries attempts, so this terminates.
  while (!lost_ops_.empty() || !channel_.idle(bookkept_until_)) {
    Cycles next = std::max(bookkept_until_, channel_.completion_time());
    for (const auto& lo : lost_ops_) {
      next = std::max(next, lo.deadline);
    }
    advance_to(next);
    end = std::max(end, bookkept_until_);
  }
  return end;
}

PageNum Driver::effective_capacity(Cycles now) const {
  const PageNum real = epc_.capacity();
  if (chaos_ == nullptr) {
    return std::max<PageNum>(real, 1);
  }
  const PageNum cap = chaos_->effective_epc_capacity(real, now);
  return std::clamp<PageNum>(cap, 1, real);
}

Cycles Driver::load_duration(OpKind kind, Cycles at) {
  // Whether this load will need to evict first: every queued op is itself a
  // load that will consume a slot before this one runs.
  const bool needs_evict = page_table_.resident_count() + channel_.queued() >=
                           effective_capacity(at);
  const Cycles base =
      costs_.epc_load + (needs_evict ? costs_.epc_evict : 0) +
      (kind == OpKind::kDfpPreload ? costs_.preload_dispatch : 0);
  if (chaos_ == nullptr) {
    return base;
  }
  const Cycles perturbed = chaos_->perturb_load_duration(kind, base, at);
  SGXPL_CHECK_MSG(perturbed > 0, "chaos produced a zero-length load");
  if (perturbed != base) {
    chaos_dirty_ = true;
  }
  return perturbed;
}

const ChannelOp& Driver::schedule_load(PageNum page, Cycles earliest,
                                       OpKind kind, ProcessId pid,
                                       std::uint32_t attempt) {
  // Never schedule into the already-bookkept past (callers may legally
  // pass clocks that lag the driver's horizon, e.g. multi-enclave apps).
  earliest = std::max(earliest, bookkept_until_);
  const auto& op =
      channel_.schedule(earliest, load_duration(kind, earliest), page, kind,
                        pid, attempt, hardened() ? deadline_slack() : 0);
  if (log_ != nullptr) {
    log_->record({.at = op.start, .type = EventType::kLoadScheduled,
                  .page = page, .aux = op.end, .detail = to_string(kind)});
  }
  return op;
}

const ChannelOp& Driver::schedule_load_priority(PageNum page, Cycles earliest,
                                                OpKind kind, ProcessId pid) {
  earliest = std::max(earliest, bookkept_until_);
  // Backpressure: a demand-class load arriving past the high-water mark
  // evicts the newest queued preloads — demand is never rejected, preloads
  // are shed first.
  if (channel_.bounded() && channel_.queued() >= channel_.high_water()) {
    std::vector<PageNum> shed;
    while (channel_.queued() >= channel_.high_water()) {
      const auto victim = channel_.shed_newest_preload(earliest);
      if (!victim.has_value()) {
        break;
      }
      shed.push_back(victim->page);
      ++stats_.queued_preload_evictions;
      if (log_ != nullptr) {
        log_->record({.at = earliest, .type = EventType::kAdmission,
                      .page = victim->page, .detail = "queue-evict"});
      }
    }
    if (!shed.empty() && policy_ != nullptr) {
      policy_->on_preloads_shed(shed, earliest);
    }
  }
  const auto& op = channel_.schedule_priority(
      earliest, load_duration(kind, earliest), page, kind, pid, 0,
      hardened() ? deadline_slack() : 0);
  if (log_ != nullptr) {
    log_->record({.at = op.start, .type = EventType::kLoadScheduled,
                  .page = page, .aux = op.end, .detail = to_string(kind)});
  }
  return op;
}

AdmissionResult Driver::submit_preload(ProcessId pid, PageNum page,
                                       Cycles earliest) {
  if (draining(pid)) {
    // Stop-and-copy window: the tenant's speculative work is shed so the
    // final migration delta stops growing. Self-inflicted, so no window
    // evidence — exactly like a degraded-level rejection.
    ++stats_.preloads_shed;
    if (log_ != nullptr) {
      log_->record({.at = std::max(earliest, bookkept_until_),
                    .type = EventType::kAdmission, .page = page,
                    .detail = to_string(AdmissionResult::kRejectedDegraded)});
    }
    return AdmissionResult::kRejectedDegraded;
  }
  if (!admission_active() && !channel_.bounded()) {
    // Seed fast path: no admission layer configured at all.
    schedule_load(page, earliest, OpKind::kDfpPreload, pid);
    return AdmissionResult::kAdmitted;
  }
  AdmissionResult r = AdmissionResult::kAdmitted;
  if (admission_active()) {
    AdmissionController& t = tenant(pid);
    if (!t.preloads_allowed()) {
      // Self-inflicted rejection: deliberately NOT window evidence, or a
      // demoted tenant could never look healthy again.
      r = AdmissionResult::kRejectedDegraded;
    } else {
      const std::size_t quota = t.preload_quota(channel_.config().max_queued);
      if (quota > 0 && channel_.queued_preloads_for(pid) >= quota) {
        r = AdmissionResult::kRejectedQuota;
        t.note_rejected();
      }
    }
  }
  if (r == AdmissionResult::kAdmitted) {
    const Cycles at = std::max(earliest, bookkept_until_);
    const ChannelOp* op = nullptr;
    r = channel_.try_schedule(at, load_duration(OpKind::kDfpPreload, at), page,
                              OpKind::kDfpPreload, pid, 0,
                              hardened() ? deadline_slack() : 0, &op);
    if (r == AdmissionResult::kAdmitted) {
      if (admission_active()) {
        tenant(pid).note_admitted();
      }
      if (log_ != nullptr) {
        log_->record({.at = op->start, .type = EventType::kLoadScheduled,
                      .page = page, .aux = op->end,
                      .detail = to_string(OpKind::kDfpPreload)});
      }
      return r;
    }
    if (admission_active()) {
      tenant(pid).note_rejected();
    }
  }
  ++stats_.preloads_shed;
  if (log_ != nullptr) {
    log_->record({.at = std::max(earliest, bookkept_until_),
                  .type = EventType::kAdmission, .page = page,
                  .detail = to_string(r)});
  }
  return r;
}

void Driver::deliver_completion(const ChannelOp& op) {
  if (!hardened() || op.kind != OpKind::kDfpPreload) {
    commit_load(op);
    return;
  }
  if (already_completed(op.id)) {
    // Idempotent suppression of a duplicated completion: the op already
    // committed, so this delivery must change neither residency nor stats.
    ++stats_.duplicate_completions;
    if (log_ != nullptr) {
      log_->record({.at = op.end, .type = EventType::kRetry, .page = op.page,
                    .detail = "duplicate"});
    }
    return;
  }
  if (chaos_ != nullptr && chaos_->drop_preload_completion(op.page, op.end)) {
    // Hardened reinterpretation of the drop class: the worker crashed
    // between the ELDU and publishing the mapping, so the load's effects
    // are lost entirely (channel time was still spent). The retry sweep
    // owns the op from here — nothing is lost silently.
    chaos_dirty_ = true;
    channel_busy_total_ += op.end - op.start;
    ++stats_.lost_completions;
    lost_ops_.push_back(LostOp{.id = op.id, .page = op.page, .pid = op.pid,
                               .attempt = op.attempt,
                               .deadline = op.deadline});
    if (log_ != nullptr) {
      log_->record({.at = op.end, .type = EventType::kRetry, .page = op.page,
                    .detail = "lost"});
    }
    return;
  }
  commit_load(op);
  note_completed(op.id);
  if (chaos_ != nullptr &&
      chaos_->duplicate_preload_completion(op.page, op.end)) {
    chaos_dirty_ = true;
    deliver_completion(op);  // second delivery; the id ring suppresses it
  }
}

void Driver::sweep_lost_ops(Cycles now) {
  if (lost_ops_.empty()) {
    return;
  }
  obs::ScopedSpan span(prof_, obs::Phase::kRetrySweep);
  std::vector<LostOp> keep;
  keep.reserve(lost_ops_.size());
  for (const LostOp& lo : lost_ops_) {
    if (lo.deadline > now) {
      keep.push_back(lo);
      continue;
    }
    if (page_table_.present(lo.page) || channel_.find(lo.page).has_value()) {
      // Another load (demand fault, fresh prediction) made the retry moot.
      ++stats_.retries_resolved;
      continue;
    }
    if (lo.attempt >= config_.channel.max_retries) {
      ++stats_.permanent_faults;
      if (admission_active()) {
        tenant(lo.pid).note_permanent();
      }
      if (log_ != nullptr) {
        log_->record({.at = now, .type = EventType::kRetry, .page = lo.page,
                      .detail = "permanent"});
      }
      if (policy_ != nullptr) {
        policy_->on_preloads_aborted({lo.page}, now);
      }
      continue;
    }
    // Capped exponential backoff, jittered from the dedicated retry stream.
    const Cycles base = retry_backoff_base();
    const Cycles backoff = base << std::min<std::uint32_t>(lo.attempt, 6);
    const Cycles jitter = retry_rng_.bounded(base / 2 + 1);
    const Cycles at = now + backoff + jitter;
    if (channel_.full()) {
      // No slot: the attempt is consumed and the op waits out the backoff.
      LostOp deferred = lo;
      deferred.attempt += 1;
      deferred.deadline = at;
      keep.push_back(deferred);
      continue;
    }
    schedule_load(lo.page, at, OpKind::kDfpPreload, lo.pid, lo.attempt + 1);
    ++stats_.retries;
    if (admission_active()) {
      tenant(lo.pid).note_retry();
    }
    if (log_ != nullptr) {
      log_->record({.at = now, .type = EventType::kRetry, .page = lo.page,
                    .detail = "reissue"});
    }
  }
  lost_ops_.swap(keep);
}

void Driver::admission_windows(Cycles now) {
  int worst = 0;
  for (std::size_t pid = 0; pid < tenants_.size(); ++pid) {
    AdmissionController& t = tenants_[pid];
    const int delta = t.on_window();
    if (delta < 0) {
      ++stats_.degrade_demotions;
      if (elastic_engaged_ && pid < elastic_.tenant_count()) {
        // The ladder judged this tenant overloaded: that verdict doubles as
        // the elastic controller's multiplicative-decrease signal.
        elastic_.note_demotion(pid);
      }
    } else if (delta > 0) {
      ++stats_.degrade_promotions;
    }
    if (delta != 0 && log_ != nullptr) {
      log_->record({.at = now, .type = EventType::kDegrade,
                    .page = static_cast<PageNum>(pid),
                    .detail = to_string(t.level())});
    }
    worst = std::max(worst, static_cast<int>(t.level()));
  }
  if (degrade_gauge_ != nullptr) {
    degrade_gauge_->set(worst);
  }
}

AdmissionController& Driver::tenant(ProcessId pid) {
  if (tenants_.size() <= pid) {
    tenants_.resize(pid + 1, AdmissionController(config_.admission));
  }
  return tenants_[pid];
}

DegradeLevel Driver::degrade_level(ProcessId pid) const noexcept {
  return pid < tenants_.size() ? tenants_[pid].level()
                               : DegradeLevel::kFullPreload;
}

void Driver::begin_drain(ProcessId pid) {
  if (drain_flags_.size() <= pid) {
    drain_flags_.resize(pid + 1, 0);
  }
  if (drain_flags_[pid] == 0) {
    drain_flags_[pid] = 1;
    ++draining_count_;
  }
  if (admission_active()) {
    tenant(pid).begin_drain();
  }
}

void Driver::end_drain(ProcessId pid) {
  if (pid < drain_flags_.size() && drain_flags_[pid] != 0) {
    drain_flags_[pid] = 0;
    --draining_count_;
  }
  if (admission_active() && pid < tenants_.size()) {
    tenants_[pid].end_drain();
  }
}

bool Driver::draining(ProcessId pid) const noexcept {
  return draining_count_ != 0 && pid < drain_flags_.size() &&
         drain_flags_[pid] != 0;
}

void Driver::set_elastic_geometry(
    const std::vector<std::pair<PageNum, PageNum>>& tenants) {
  SGXPL_CHECK_MSG(config_.elastic.enabled,
                  "set_elastic_geometry without elastic.enabled");
  SGXPL_CHECK_MSG(config_.eviction == EvictionKind::kClock,
                  "elastic quota enforcement requires the CLOCK policy "
                  "(its sweep is what the range-restricted reclaim reuses)");
  SGXPL_CHECK_MSG(stats_.accesses == 0,
                  "elastic geometry must be declared before the first access");
  SGXPL_CHECK_MSG(!tenants.empty(), "elastic geometry with zero tenants");
  elastic_.configure(config_.elastic, epc_.capacity());
  for (const auto& [lo, pages] : tenants) {
    elastic_.add_tenant(lo, pages);
  }
  elastic_.finalize();
  elastic_engaged_ = true;
  // The range clause now reads every page: re-prove them all.
  if (config_.watchdog_scan_interval > 0) {
    changed_.mark_all();
  }
}

void Driver::elastic_rebalance(Cycles now) {
  obs::ScopedSpan span(prof_, obs::Phase::kElasticRebalance);
  double utilization = 0.0;
  if (now > el_last_at_) {
    utilization = std::min(
        1.0, static_cast<double>(channel_busy_total_ - el_last_busy_) /
                 static_cast<double>(now - el_last_at_));
  }
  el_last_at_ = now;
  el_last_busy_ = channel_busy_total_;
  elastic_.rebalance(utilization, drain_flags_);
  if (series_ != nullptr) {
    series_->series("epc.elastic.free_pool")
        .add(now, static_cast<double>(elastic_.free_pool()));
  }
}

bool Driver::already_completed(std::uint64_t op_id) const noexcept {
  return std::find(completed_ring_.begin(), completed_ring_.end(), op_id) !=
         completed_ring_.end();
}

void Driver::note_completed(std::uint64_t op_id) {
  completed_ring_[completed_pos_] = op_id;
  completed_pos_ = (completed_pos_ + 1) % completed_ring_.size();
}

void Driver::sample_time_series(Cycles now) {
  if (now <= ts_last_at_) {
    return;
  }
  const double dt = static_cast<double>(now - ts_last_at_);
  series_->series("driver.faults_per_mcycle")
      .add(now, static_cast<double>(stats_.faults - ts_last_faults_) * 1e6 /
                    dt);
  series_->series("epc.occupancy")
      .add(now, static_cast<double>(epc_.used()) /
                    static_cast<double>(epc_.capacity()));
  series_->series("channel.utilization")
      .add(now, std::min(1.0, static_cast<double>(channel_busy_total_ -
                                                  ts_last_busy_) /
                                  dt));
  const std::uint64_t completed =
      stats_.preloads_completed - ts_last_preloads_completed_;
  if (completed > 0) {
    series_->series("dfp.preload_accuracy")
        .add(now, static_cast<double>(stats_.preloads_used -
                                      ts_last_preloads_used_) /
                      static_cast<double>(completed));
  }
  ts_last_at_ = now;
  ts_last_busy_ = channel_busy_total_;
  ts_last_faults_ = stats_.faults;
  ts_last_preloads_used_ = stats_.preloads_used;
  ts_last_preloads_completed_ = stats_.preloads_completed;
}

void Driver::flush_queued_preloads(Cycles now) {
  auto aborted = channel_.abort_not_started(now, OpKind::kDfpPreload);
  if (aborted.empty()) {
    return;
  }
  stats_.preloads_aborted += aborted.size();
  if (log_ != nullptr) {
    log_->record({.at = now, .type = EventType::kLoadsAborted,
                  .page = aborted.size()});
  }
  if (policy_ != nullptr) {
    std::vector<PageNum> pages;
    pages.reserve(aborted.size());
    for (const auto& op : aborted) {
      pages.push_back(op.page);
    }
    policy_->on_preloads_aborted(pages, now);
  }
}

void Driver::commit_load(const ChannelOp& op) {
  SGXPL_CHECK_MSG(!page_table_.present(op.page),
                  "load committed for already-resident page " << op.page);
  channel_busy_total_ += op.end - op.start;
  if (elastic_engaged_) {
    // Elastic quota enforcement — EDMM's lazy EACCEPT of a removal: a
    // shrink only moved the quota; the pages above it are reclaimed here,
    // from the owner's own ELRANGE slice, as its next load commits. One
    // iteration per page keeps a deep multiplicative decrease incremental.
    const std::size_t t = elastic_.owner(op.page);
    while (elastic_.resident(t) >= elastic_.quota(t) &&
           elastic_.resident(t) > 0) {
      obs::ScopedSpan span(prof_, obs::Phase::kEviction);
      const PageNum victim = epc_.choose_victim_in(
          page_table_, elastic_.lo(t), elastic_.hi(t), op.page);
      if (victim == kInvalidPage) {
        break;  // nothing evictable in range (all in flight/pinned)
      }
      elastic_.note_quota_eviction();
      evict_page(victim);
    }
  }
  // A transient EPC squeeze (co-tenant pressure via the chaos hooks) can
  // demand more than one eviction to get under the shrunken capacity; the
  // loop degenerates to the single full-EPC eviction without chaos.
  const PageNum cap = effective_capacity(op.end);
  if (chaos_ != nullptr && cap < epc_.capacity()) {
    chaos_dirty_ = true;
  }
  while (epc_.used() >= cap && epc_.used() > 0) {
    if (!epc_.full()) {
      ++stats_.squeeze_evictions;
    }
    evict_one(op.page);
  }
  const SlotIndex slot = epc_.allocate(op.page);
  page_table_.map(op.page, slot, /*via_preload=*/op.kind != OpKind::kDemandLoad);
  if (op.kind == OpKind::kDemandLoad) {
    // The faulting access completes as soon as the page lands, so the
    // hardware sets its access bit immediately — giving the page a CLOCK
    // second chance against evictions committed in the same window.
    page_table_.touch(op.page);
  }
  eviction_->on_load(op.page);
  // ELDU: verify against the anti-replay version from the last EWB.
  (void)backing_.load(op.page);
  bitmap_.set(op.page);
  if (elastic_engaged_) {
    elastic_.note_mapped(op.page);
  }
  if (log_ != nullptr) {
    log_->record({.at = op.end, .type = EventType::kLoadCommitted,
                  .page = op.page, .detail = to_string(op.kind)});
  }
  if (op.kind == OpKind::kDfpPreload) {
    ++stats_.preloads_completed;
    if (policy_ != nullptr) {
      if (hardened()) {
        // Drop/dup were already resolved in deliver_completion: a dropped
        // op never reaches here and a duplicated one commits exactly once,
        // so the policy sees exactly one notification per landed preload.
        policy_->on_preload_completed(op.page, op.end);
      } else {
        // Seed semantics: the kernel worker's completion notification is
        // the one DFP input chaos can drop or duplicate — the page is
        // resident either way, only the policy's bookkeeping goes stale
        // (and must tolerate it).
        const bool drop = chaos_ != nullptr &&
                          chaos_->drop_preload_completion(op.page, op.end);
        if (!drop) {
          policy_->on_preload_completed(op.page, op.end);
          if (chaos_ != nullptr &&
              chaos_->duplicate_preload_completion(op.page, op.end)) {
            chaos_dirty_ = true;
            policy_->on_preload_completed(op.page, op.end);
          }
        } else {
          chaos_dirty_ = true;
        }
      }
    }
  }
}

void Driver::note_preload_used(PageNum page) {
  ++stats_.preloads_used;
  if (policy_ != nullptr) {
    policy_->on_preloaded_page_touched(page);
  }
}

void Driver::evict_one(PageNum pinned) {
  obs::ScopedSpan span(prof_, obs::Phase::kEviction);
  PageNum victim = kInvalidPage;
  if (elastic_engaged_) {
    // Capacity pressure reclaims deferred-shrink debt first: the tenant
    // furthest over its quota pays before anyone under quota loses a page.
    if (const auto over = elastic_.most_over_quota()) {
      victim = epc_.choose_victim_in(page_table_, elastic_.lo(*over),
                                     elastic_.hi(*over), pinned);
    }
  }
  if (victim == kInvalidPage) {
    victim = eviction_->victim(page_table_, pinned);
  }
  evict_page(victim);
}

void Driver::evict_page(PageNum victim) {
  eviction_->on_unload(victim);
  const PageTableEntry prior = page_table_.unmap(victim);
  epc_.release(prior.slot);
  backing_.evict(victim);
  bitmap_.clear(victim);
  if (elastic_engaged_) {
    elastic_.note_unmapped(victim);
  }
  ++stats_.evictions;
  if (log_ != nullptr) {
    log_->record({.at = bookkept_until_, .type = EventType::kEviction,
                  .page = victim});
  }
  if (prior.preloaded) {
    ++stats_.preloads_evicted_unused;
    if (policy_ != nullptr) {
      policy_->on_preloaded_page_evicted(victim, /*was_accessed=*/false,
                                         bookkept_until_);
    }
  }
}

namespace {

// Set bits of the packed bitset `words` in the page range [lo, hi).
std::uint64_t count_bits(const std::vector<std::uint64_t>& words, PageNum lo,
                         PageNum hi) {
  std::uint64_t n = 0;
  while (lo < hi) {
    const PageNum end = std::min(hi, ((lo >> 6) + 1) << 6);
    std::uint64_t bits = words[lo >> 6] >> (lo & 63);
    if (end - lo < 64) {
      bits &= (1ull << (end - lo)) - 1;
    }
    n += static_cast<std::uint64_t>(std::popcount(bits));
    lo = end;
  }
  return n;
}

}  // namespace

PageNum Driver::tenant_end() const {
  return elastic_engaged_ ? elastic_.hi(elastic_.tenant_count() - 1)
                          : config_.elrange_pages;
}

void Driver::check_counts(std::uint64_t bitmap_count) const {
  SGXPL_CHECK_MSG(page_table_.resident_count() == epc_.used(),
                  "page table holds " << page_table_.resident_count()
                      << " resident pages but the EPC holds "
                      << epc_.used());
  SGXPL_CHECK_MSG(bitmap_count == epc_.used(),
                  "presence bitmap holds " << bitmap_count
                      << " pages but the EPC holds " << epc_.used());
}

void Driver::check_page(PageNum p, PageNum tenant_end) const {
  const bool in_table = page_table_.present(p);
  const bool in_bitmap = bitmap_.test(p);
  if (!in_table && !in_bitmap) {
    return;
  }
  SGXPL_CHECK_MSG(in_table, "page " << p
                                    << " is in the presence bitmap but not "
                                       "resident");
  const SlotIndex slot = page_table_.entry(p).slot;
  SGXPL_CHECK_MSG(slot != kInvalidSlot,
                  "present page " << p << " has no EPC slot");
  SGXPL_CHECK_MSG(epc_.page_at(slot) == p,
                  "slot " << slot << " does not hold page " << p);
  SGXPL_CHECK_MSG(in_bitmap, "present page "
                                 << p
                                 << " is missing from the presence bitmap");
  SGXPL_CHECK_MSG(p < tenant_end,
                  "page " << p << " outside every elastic tenant range");
}

void Driver::check_elastic() const {
  if (!elastic_engaged_) {
    return;
  }
  // Recounted word-parallel rather than maintained: a maintained per-tenant
  // count would be the same note_mapped()/note_unmapped() bookkeeping this
  // clause exists to check.
  for (std::size_t t = 0; t < elastic_.tenant_count(); ++t) {
    const std::uint64_t held = count_bits(page_table_.present_words(),
                                          elastic_.lo(t), elastic_.hi(t));
    SGXPL_CHECK_MSG(held == elastic_.resident(t),
                    "elastic resident count for tenant "
                        << t << " is " << elastic_.resident(t)
                        << " but the page table holds " << held);
  }
  elastic_.check_conservation();
}

void Driver::check_invariants() const {
  check_counts(bitmap_.popcount());
  // Per page, check_page(): present => it owns a slot holding it, its
  // bitmap bit is set and (elastic EPC engaged) it lies in a tenant's
  // range; absent => its bitmap bit is clear. Swept a 64-page word at a
  // time: a word of pages all present and marked needs only the slot
  // clause; otherwise only pages set in either bitset can fail, so exactly
  // those are visited, in ascending order. No bitmap bit past ELRANGE is
  // reached: by the count check above, some in-range present page would
  // then lack its bit first.
  const std::vector<std::uint64_t>& present_words =
      page_table_.present_words();
  const std::vector<std::uint64_t>& bitmap_words = bitmap_.words();
  const PageNum end = tenant_end();
  const PageNum capacity = epc_.capacity();
  const auto slot_holds = [&](PageNum p) {
    const SlotIndex slot = page_table_.entry(p).slot;
    const bool in_range = slot < capacity;
    return in_range & (epc_.page_at(in_range ? slot : 0) == p);
  };
  std::uint64_t present = 0;
  for (std::size_t w = 0; w < present_words.size(); ++w) {
    const std::uint64_t in_table = present_words[w];
    const std::uint64_t in_bitmap = bitmap_words[w];
    const PageNum base = PageNum{w} << 6;
    present += static_cast<std::uint64_t>(std::popcount(in_table));
    if ((in_table & in_bitmap) == ~0ull && base + 64 <= end) {
      bool ok = true;
      for (PageNum p = base; p < base + 64; ++p) {
        ok &= slot_holds(p);
      }
      if (ok) {
        continue;
      }
    }
    for (std::uint64_t bits = in_table | in_bitmap; bits != 0;
         bits &= bits - 1) {
      check_page(base + static_cast<PageNum>(std::countr_zero(bits)), end);
    }
  }
  SGXPL_CHECK_MSG(present == epc_.used(),
                  "page table marks " << present
                      << " pages present but the EPC holds " << epc_.used());
  check_elastic();
}

void Driver::check_changed() const {
  // Why checking only changed_ is exact: each per-page clause reads the
  // page's present bit, slot, bitmap bit and the owner of that slot. The
  // first three change only through PageTable::map/unmap and
  // PresenceBitmap::set/clear, which report the page. A slot's owner
  // changes only through Epc::allocate (reports the new owner) and
  // Epc::release (reports the old owner, the one page whose slot clause
  // it can break). The range clause's tenant_end() changes only in
  // set_elastic_geometry(), which marks every page. Loads prove everything
  // and restart the set. So a page outside changed_ still satisfies the
  // clauses it satisfied at the last proof, and the ascending walk meets
  // the full sweep's first violation.
  // The counts are maintained by the same mutators. The sweep's third
  // count, the recounted present bits, is PageTable::resident_count() by
  // construction, so the first clause of check_counts() already covers it.
  check_counts(bitmap_.count());
  const PageNum end = tenant_end();
  changed_.for_each([&](PageNum p) { check_page(p, end); });
  check_elastic();
}

void DriverStats::save(snapshot::Writer& w) const {
#define SGXPL_SAVE(member, metric) w.u64("stats." #member, member);
  SGXPL_DRIVER_STATS_FIELDS(SGXPL_SAVE)
#undef SGXPL_SAVE
}

void DriverStats::load(snapshot::Reader& r) {
#define SGXPL_LOAD(member, metric) member = r.u64("stats." #member);
  SGXPL_DRIVER_STATS_FIELDS(SGXPL_LOAD)
#undef SGXPL_LOAD
}

void Driver::save_drvr_fields(snapshot::Writer& w) const {
  w.str("driver.eviction", eviction_->name());
  w.u64("driver.next_scan", next_scan_);
  w.u64("driver.bookkept_until", bookkept_until_);
  w.u64("driver.scans_since_watchdog", scans_since_watchdog_);
  w.boolean("driver.chaos_dirty", chaos_dirty_);
  w.u64("driver.channel_busy_total", channel_busy_total_);
  w.u64("driver.ts_last_at", ts_last_at_);
  w.u64("driver.ts_last_busy", ts_last_busy_);
  w.u64("driver.ts_last_faults", ts_last_faults_);
  w.u64("driver.ts_last_preloads_used", ts_last_preloads_used_);
  w.u64("driver.ts_last_preloads_completed", ts_last_preloads_completed_);
  // --- overload-hardening state (retry sweep, dup ring, ladder) ---
  w.boolean("driver.hardened", hardened());
  w.boolean("driver.admission", admission_active());
  w.u64_vec("driver.retry_rng",
            std::vector<std::uint64_t>(retry_rng_.state().begin(),
                                       retry_rng_.state().end()));
  std::vector<std::uint64_t> lost_ids, lost_pages, lost_pids, lost_attempts,
      lost_deadlines;
  lost_ids.reserve(lost_ops_.size());
  for (const auto& lo : lost_ops_) {
    lost_ids.push_back(lo.id);
    lost_pages.push_back(lo.page);
    lost_pids.push_back(lo.pid);
    lost_attempts.push_back(lo.attempt);
    lost_deadlines.push_back(lo.deadline);
  }
  w.u64_vec("driver.lost_ids", lost_ids);
  w.u64_vec("driver.lost_pages", lost_pages);
  w.u64_vec("driver.lost_pids", lost_pids);
  w.u64_vec("driver.lost_attempts", lost_attempts);
  w.u64_vec("driver.lost_deadlines", lost_deadlines);
  w.u64_vec("driver.completed_ring", completed_ring_);
  w.u64("driver.completed_pos", completed_pos_);
  w.u64("driver.tenants", tenants_.size());
  for (const auto& t : tenants_) {
    t.save(w);
  }
  stats_.save(w);
  channel_.save(w);
  eviction_->save(w);
  if (elastic_engaged_) {
    // Gated on engagement (part of the snapshot identity via overload_spec):
    // default-config frames stay byte-identical to the seed.
    w.u64("driver.el_last_at", el_last_at_);
    w.u64("driver.el_last_busy", el_last_busy_);
    elastic_.save(w);
  }
}

void Driver::load_drvr_fields(snapshot::Reader& r) {
  const std::string eviction_name = r.str("driver.eviction");
  SGXPL_CHECK_MSG(eviction_name == eviction_->name(),
                  "snapshot was taken with eviction policy '"
                      << eviction_name << "' but this driver runs '"
                      << eviction_->name() << "'");
  next_scan_ = r.u64("driver.next_scan");
  bookkept_until_ = r.u64("driver.bookkept_until");
  scans_since_watchdog_ = r.u64("driver.scans_since_watchdog");
  chaos_dirty_ = r.boolean("driver.chaos_dirty");
  channel_busy_total_ = r.u64("driver.channel_busy_total");
  ts_last_at_ = r.u64("driver.ts_last_at");
  ts_last_busy_ = r.u64("driver.ts_last_busy");
  ts_last_faults_ = r.u64("driver.ts_last_faults");
  ts_last_preloads_used_ = r.u64("driver.ts_last_preloads_used");
  ts_last_preloads_completed_ = r.u64("driver.ts_last_preloads_completed");
  const bool was_hardened = r.boolean("driver.hardened");
  SGXPL_CHECK_MSG(was_hardened == hardened(),
                  "snapshot retry hardening does not match this driver");
  const bool had_admission = r.boolean("driver.admission");
  SGXPL_CHECK_MSG(had_admission == admission_active(),
                  "snapshot admission control does not match this driver");
  const std::vector<std::uint64_t> rng_state = r.u64_vec("driver.retry_rng");
  SGXPL_CHECK_MSG(rng_state.size() == 4,
                  "snapshot retry-rng state has " << rng_state.size()
                                                  << " words, want 4");
  retry_rng_.set_state(
      {rng_state[0], rng_state[1], rng_state[2], rng_state[3]});
  const std::vector<std::uint64_t> lost_ids = r.u64_vec("driver.lost_ids");
  const std::vector<std::uint64_t> lost_pages = r.u64_vec("driver.lost_pages");
  const std::vector<std::uint64_t> lost_pids = r.u64_vec("driver.lost_pids");
  const std::vector<std::uint64_t> lost_attempts =
      r.u64_vec("driver.lost_attempts");
  const std::vector<std::uint64_t> lost_deadlines =
      r.u64_vec("driver.lost_deadlines");
  SGXPL_CHECK_MSG(lost_ids.size() == lost_pages.size() &&
                      lost_ids.size() == lost_pids.size() &&
                      lost_ids.size() == lost_attempts.size() &&
                      lost_ids.size() == lost_deadlines.size(),
                  "snapshot lost-op columns are misaligned");
  lost_ops_.clear();
  for (std::size_t i = 0; i < lost_ids.size(); ++i) {
    lost_ops_.push_back(
        LostOp{.id = lost_ids[i], .page = lost_pages[i],
               .pid = static_cast<ProcessId>(lost_pids[i]),
               .attempt = static_cast<std::uint32_t>(lost_attempts[i]),
               .deadline = lost_deadlines[i]});
  }
  completed_ring_ = r.u64_vec("driver.completed_ring");
  SGXPL_CHECK_MSG(!completed_ring_.empty(),
                  "snapshot completed-op ring is empty");
  completed_pos_ = r.u64("driver.completed_pos");
  SGXPL_CHECK_MSG(completed_pos_ < completed_ring_.size(),
                  "snapshot completed-op ring cursor out of range");
  const std::uint64_t tenant_count = r.u64("driver.tenants");
  tenants_.assign(tenant_count, AdmissionController(config_.admission));
  for (auto& t : tenants_) {
    t.load(r);
  }
  stats_.load(r);
  channel_.load(r);
  eviction_->load(r);
  if (elastic_engaged_) {
    el_last_at_ = r.u64("driver.el_last_at");
    el_last_busy_ = r.u64("driver.el_last_busy");
    elastic_.load(r);
  }
}

void Driver::save_sections(snapshot::Writer& w) const {
  w.begin_section("DRVR");
  save_drvr_fields(w);
  w.end_section();
  w.begin_section("PGTB");
  page_table_.save(w);
  w.end_section();
  w.begin_section("EPCC");
  epc_.save(w);
  w.end_section();
  w.begin_section("BMAP");
  bitmap_.save(w);
  w.end_section();
  w.begin_section("BSTR");
  backing_.save(w);
  w.end_section();
}

void Driver::load_sections(snapshot::Reader& r) {
  r.enter_section("DRVR");
  load_drvr_fields(r);
  r.leave_section();
  r.enter_section("PGTB");
  page_table_.load(r);
  r.leave_section();
  r.enter_section("EPCC");
  epc_.load(r);
  r.leave_section();
  r.enter_section("BMAP");
  bitmap_.load(r);
  r.leave_section();
  r.enter_section("BSTR");
  backing_.load(r);
  r.leave_section();
  check_invariants();
  changed_.clear();
}

void Driver::save_delta_sections(snapshot::Writer& w,
                                 const snapshot::SectionGens& last) const {
  w.begin_section("DRVR");
  save_drvr_fields(w);
  w.end_section();
  if (page_table_.generation() != last.page_table) {
    w.begin_section("PGTD");
    page_table_.save_delta(w);
    w.end_section();
  }
  if (epc_.generation() != last.epc) {
    w.begin_section("EPCD");
    epc_.save_delta(w);
    w.end_section();
  }
  if (bitmap_.generation() != last.bitmap) {
    w.begin_section("BMPD");
    bitmap_.save_delta(w);
    w.end_section();
  }
  if (backing_.generation() != last.backing) {
    w.begin_section("BSTD");
    backing_.save_delta(w);
    w.end_section();
  }
}

void Driver::apply_delta_sections(snapshot::Reader& r) {
  r.enter_section("DRVR");
  load_drvr_fields(r);
  r.leave_section();
  // The four structure deltas are optional and ordered; consume whichever
  // are present.
  while (true) {
    const std::string tag = r.peek_section_tag();
    if (tag == "PGTD") {
      r.enter_section(tag);
      page_table_.apply_delta(r);
    } else if (tag == "EPCD") {
      r.enter_section(tag);
      epc_.apply_delta(r);
    } else if (tag == "BMPD") {
      r.enter_section(tag);
      bitmap_.apply_delta(r);
    } else if (tag == "BSTD") {
      r.enter_section(tag);
      backing_.apply_delta(r);
    } else {
      break;
    }
    r.leave_section();
  }
  check_invariants();
  changed_.clear();
}

snapshot::SectionGens Driver::section_gens() const {
  return snapshot::SectionGens{
      .page_table = page_table_.generation(),
      .epc = epc_.generation(),
      .bitmap = bitmap_.generation(),
      .backing = backing_.generation(),
  };
}

void Driver::clear_dirty() {
  page_table_.clear_dirty();
  epc_.clear_dirty();
  bitmap_.clear_dirty();
  backing_.clear_dirty();
}

}  // namespace sgxpl::sgxsim
