// The SGX driver model: the untrusted OS component that owns the EPC,
// services enclave page faults, evicts with CLOCK, runs the service thread,
// maintains the shared presence bitmap, and hosts the preload machinery.
//
// This reproduces the responsibilities the paper adds to the Intel Linux
// SGX driver (§4): the fault handler calls the preload policy (DFP), a
// kernel worker performs asynchronous preloads over the paging channel, and
// SIP notifications are serviced synchronously without AEX/ERESUME.
#pragma once

#include <cstdint>
#include <string>

#include <memory>

#include <optional>
#include <string_view>
#include <utility>

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/time_series.h"
#include "sgxsim/admission.h"
#include "sgxsim/backing_store.h"
#include "sgxsim/bitmap.h"
#include "sgxsim/chaos_hooks.h"
#include "sgxsim/cost_model.h"
#include "sgxsim/elastic_epc.h"
#include "sgxsim/epc.h"
#include "sgxsim/eviction.h"
#include "sgxsim/page_table.h"
#include "sgxsim/paging_channel.h"
#include "sgxsim/preload_policy.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

/// How a demand fault interacts with queued (not-yet-started) preloads.
enum class DemandPolicy : std::uint8_t {
  /// The fault handler's load is inserted right after the in-flight op,
  /// ahead of queued preloads, which are kept. If the faulted page is
  /// itself among the queued preloads, the whole queued batch is flushed
  /// and the stream restarts (the paper's §4.1 in-stream abort). Default.
  kPreempt,
  /// As kPreempt, but any demand fault flushes all queued preloads
  /// (strictest demand priority; ablation).
  kPreemptAndFlush,
  /// No priority at all: the demand load queues behind submitted preloads
  /// and nothing is ever flushed (ablation; the §5.6 worst case).
  kFifo,
};

const char* to_string(DemandPolicy p) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<DemandPolicy> parse_demand_policy(std::string_view name) noexcept;

struct EnclaveConfig {
  /// Size of the enclave linear address range, in pages.
  PageNum elrange_pages = 0;
  /// Usable EPC capacity, in pages (default ~96 MiB).
  PageNum epc_pages = kDefaultEpcPages;
  /// Serialize the paging channel (true = real hardware; false only for the
  /// contention ablation).
  bool serial_channel = true;
  /// Demand-fault priority over queued preloads (see DemandPolicy).
  DemandPolicy demand_policy = DemandPolicy::kPreempt;
  /// EPC reclaim policy (the Intel driver uses a CLOCK-like sweep).
  EvictionKind eviction = EvictionKind::kClock;
  /// Online watchdog: prove the driver's invariants every N service-thread
  /// scans and at every chaos-injection boundary (0 = off). A check re-proves
  /// only the pages changed since the previous one, O(changed pages); every
  /// Driver::kFullSweepEvery-th check is the full O(ELRANGE/64 + resident
  /// pages) sweep.
  std::uint64_t watchdog_scan_interval = 0;
  /// Overload hardening: queue bound, op deadlines, lost-completion retry.
  /// Defaults (unbounded, retries off) reproduce the seed behavior.
  ChannelConfig channel;
  /// Per-tenant admission control / degradation ladder (default off).
  AdmissionParams admission;
  /// Elastic EPC: EDMM-style dynamic per-tenant quotas (default off). Only
  /// engages when the multi-enclave host also declares the tenant geometry
  /// via set_elastic_geometry(); single-enclave runs ignore it.
  ElasticParams elastic;
};

/// Compact textual fingerprint of the overload-hardening configuration
/// (channel bound/retry knobs + admission params). Empty for the seed
/// defaults. Part of the snapshot identity: a snapshot taken under one
/// hardening config must not restore into a run with another, since the
/// retry/admission state it carries (or lacks) would not match.
std::string overload_spec(const EnclaveConfig& cfg);

/// The driver's counters, one row each: X(member, registry counter). This
/// list is the only place a counter is named: it declares the member and
/// drives publish(), describe(), save() and load() (snapshot label
/// "stats.<member>"). The overload-hardening rows (preloads_shed onward)
/// stay zero unless a channel bound, retries or admission control are
/// configured (docs/ROBUSTNESS.md).
#define SGXPL_DRIVER_STATS_FIELDS(X)                                        \
  X(accesses, "driver.accesses")                                            \
  X(faults, "driver.faults") /* enclave page faults (AEX taken) */          \
  X(demand_loads, "driver.demand_loads") /* fault-handler loads */          \
  X(fault_wait_hits, "driver.fault_wait_hits") /* met by in-flight load */  \
  X(preloads_issued, "driver.preloads.issued")                              \
  X(preloads_completed, "driver.preloads.completed")                        \
  X(preloads_aborted, "driver.preloads.aborted")                            \
  X(preloads_used, "driver.preloads.used") /* later accessed */             \
  X(preloads_evicted_unused, "driver.preloads.evicted_unused")              \
  X(sip_loads, "driver.sip.loads") /* synchronous SIP loads */              \
  X(sip_inflight_waits, "driver.sip.inflight_waits") /* hit in-flight op */ \
  X(sip_prefetches, "driver.sip.prefetches") /* hoisted SIP loads */        \
  X(evictions, "driver.evictions")                                          \
  X(scans, "driver.scans")                                                  \
  X(scan_stalls, "driver.scan_stalls") /* scans that overslept */           \
  X(watchdog_checks, "driver.watchdog.checks") /* invariant checks run */   \
  X(bitmap_lies, "driver.bitmap_lies") /* bitmap reads chaos faked */       \
  X(squeeze_evictions, "driver.squeeze_evictions") /* EPC squeeze */        \
  X(preloads_shed, "channel.admission.shed") /* rejected by admission */    \
  X(queued_preload_evictions, "channel.admission.queue_evictions")          \
  X(lost_completions, "channel.retry.lost") /* declared lost */             \
  X(retries, "channel.retry.reissued") /* lost ops re-issued */             \
  X(retries_resolved, "channel.retry.resolved") /* made moot by a load */   \
  X(permanent_faults, "channel.retry.permanent_faults") /* > max_retries */ \
  X(duplicate_completions, "channel.retry.duplicates") /* suppressed */     \
  X(degrade_demotions, "degrade.demotions") /* tenant ladder steps down */  \
  X(degrade_promotions, "degrade.promotions") /* tenant ladder steps up */  \
  X(fault_stall_cycles, "driver.fault.stall_cycles.total") /* AEX..ERESUME */ \
  X(sip_stall_cycles, "driver.sip.stall_cycles.total") /* in page_loadin */

struct DriverStats {
#define SGXPL_DECLARE_COUNTER(member, metric) std::uint64_t member = 0;
  SGXPL_DRIVER_STATS_FIELDS(SGXPL_DECLARE_COUNTER)
#undef SGXPL_DECLARE_COUNTER

  /// Flush every counter into `reg` under its registry name. This is the
  /// registry view of the compatibility struct: code that wants flat
  /// end-of-run numbers keeps reading DriverStats; observability consumers
  /// read the registry.
  void publish(obs::MetricsRegistry& reg) const;

  /// "member=value" for every counter, space-separated.
  std::string describe() const;

  /// Checkpoint/restore of every counter.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);
};

/// What the fault handler / SIP path did for one access.
struct AccessOutcome {
  /// Virtual time at which the application proceeds past the access.
  Cycles completion = 0;
  bool faulted = false;
  /// Fault was satisfied by a load already in flight (preload hit-in-flight).
  bool hit_inflight = false;
};

class Driver {
  // Tests and micro-benchmarks reach the state behind the checks.
  friend class DriverTestPeer;

 public:
  Driver(const EnclaveConfig& config, const CostModel& costs,
         PreloadPolicy* policy = nullptr);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Regular (uninstrumented) enclave access to `page` at time `now`.
  /// Resident: sets the access bit, returns immediately. Otherwise runs the
  /// full fault path: AEX, demand load (with CLOCK eviction if the EPC is
  /// full), DFP prediction, ERESUME. `pid` identifies the faulting process
  /// to the preload policy (per-process stream lists; multi-enclave runs
  /// use one pid per enclave).
  AccessOutcome access(PageNum page, Cycles now, ProcessId pid = ProcessId{0});

  /// SIP page_loadin_function: synchronously bring `page` into the EPC
  /// without an AEX/ERESUME round trip. Returns the time at which the app
  /// resumes (load end + notification cost). If the page is resident by the
  /// time the request is serviced, only the notification cost is paid.
  Cycles sip_load(PageNum page, Cycles now);

  /// SIP's BIT_MAP_CHECK: read the shared presence bitmap as the *enclave*
  /// sees it. Without chaos injection this is bitmap().test(page); with an
  /// injector attached the returned value may be stale or flipped (the
  /// true bitmap is never corrupted). Callers must treat the answer as a
  /// hint only: a false "resident" simply means the later access takes the
  /// regular fault path; a false "absent" costs a redundant notification
  /// that sip_load() resolves against the real residency state.
  bool sip_bitmap_check(PageNum page, Cycles now);

  /// Fire-and-forget variant: post the load request and return immediately
  /// (the hoisted-notification mode of §3.2/Fig. 4 — issued early enough,
  /// the load overlaps the compute between notify and access). No-op if
  /// the page is resident or already queued. `pid` owns the request: its
  /// drain and admission state decide whether the prefetch is shed.
  void sip_prefetch(PageNum page, Cycles now, ProcessId pid = ProcessId{0});

  /// Advance bookkeeping to `now`: commit completed channel ops and run any
  /// due service-thread scans. access()/sip_load() call this themselves;
  /// exposed for tests and for end-of-run settling.
  void advance_to(Cycles now);

  /// Drain the channel: advance to the end of the last queued op.
  Cycles drain();

  const DriverStats& stats() const noexcept { return stats_; }
  const PageTable& page_table() const noexcept { return page_table_; }
  const Epc& epc() const noexcept { return epc_; }
  const PresenceBitmap& bitmap() const noexcept { return bitmap_; }
  const BackingStore& backing_store() const noexcept { return backing_; }
  const PagingChannel& channel() const noexcept { return channel_; }
  const EnclaveConfig& config() const noexcept { return config_; }
  const CostModel& costs() const noexcept { return costs_; }

  /// Invariant: page table residency, EPC occupancy, and bitmap population
  /// all agree. Throws CheckFailure on violation. This is the full sweep:
  /// tests, finish(), every snapshot load and every kFullSweepEvery-th
  /// watchdog check run it; the other watchdog checks re-prove only the
  /// pages changed since the previous check and report the same first
  /// violation (EnclaveConfig::watchdog_scan_interval).
  void check_invariants() const;

  /// Every this-many-th watchdog check (counted by stats().watchdog_checks,
  /// which snapshots carry) is a full sweep rather than an incremental one.
  static constexpr std::uint64_t kFullSweepEvery = 64;

  /// Lost-completion entries awaiting the retry sweep (hardened mode only;
  /// always empty otherwise). drain() settles these too.
  std::size_t pending_lost_ops() const noexcept { return lost_ops_.size(); }

  /// `pid`'s position on the degradation ladder (kFullPreload when
  /// admission control is off or the tenant has never been seen).
  DegradeLevel degrade_level(ProcessId pid) const noexcept;

  /// Migration drain control for `pid` (fleet::MigrationController's
  /// stop-and-copy window): while a tenant drains, its new preload and
  /// prefetch submissions are shed — demand loads are served with their
  /// usual priority — and, when admission control is active, its ladder
  /// controller is frozen at kDraining (see AdmissionController). Drain is
  /// transient operational state: it is never serialized, and with zero
  /// tenants draining the only cost anywhere is one integer test on the
  /// preload-submission paths. Both calls are idempotent.
  void begin_drain(ProcessId pid);
  void end_drain(ProcessId pid);
  bool draining(ProcessId pid) const noexcept;

  /// Engage the elastic EPC controller for a multi-enclave run: declare
  /// each tenant's [lo, lo+pages) ELRANGE slice (in address order, tiling
  /// the combined range from 0). Requires config().elastic.enabled, the
  /// CLOCK eviction policy (quota enforcement reuses its sweep), and must
  /// be called before the first access. Quotas are seeded by
  /// ElasticEpcController::finalize() and rebalanced on every service-
  /// thread scan tick.
  void set_elastic_geometry(
      const std::vector<std::pair<PageNum, PageNum>>& tenants);
  bool elastic_engaged() const noexcept { return elastic_engaged_; }
  const ElasticEpcController& elastic() const noexcept { return elastic_; }

  /// Attach a chaos fault injector (not owned; nullptr detaches). Hooks
  /// perturb channel timing, bitmap reads, completion notifications, scan
  /// scheduling, and effective EPC capacity — never the driver's
  /// ground-truth structures. See sgxsim/chaos_hooks.h and src/inject.
  void set_chaos(ChaosHooks* chaos) noexcept { chaos_ = chaos; }

  /// Attach an event log (not owned; pass nullptr to detach). Every fault,
  /// load, eviction, abort, SIP request, and scan is recorded with its
  /// virtual timestamp — the raw material of Fig. 2 / Fig. 4 timelines.
  void set_event_log(obs::EventLog* log) noexcept { log_ = log; }

  /// Checkpoint/restore of the complete driver state: page table, EPC
  /// occupancy, presence bitmap, backing-store versions, the paging-channel
  /// queue, eviction-policy internals, scan/watchdog cursors, and every
  /// DriverStats counter, split across five framed sections — "DRVR" (scan
  /// cursors, hardening state, tenants, stats, channel, eviction policy)
  /// followed by "PGTB", "EPCC", "BMAP", "BSTR" for the four bulk
  /// structures (snapshot format v2). load_sections() requires a driver
  /// constructed with the same EnclaveConfig; attached observability sinks
  /// (event log, metrics, time series) are deliberately not part of the
  /// snapshot. After load_sections(), check_invariants() is run to reject
  /// inconsistent snapshots.
  void save_sections(snapshot::Writer& w) const;
  void load_sections(snapshot::Reader& r);

  /// Delta checkpointing: "DRVR" is always rewritten (its scalars move on
  /// every access); each bulk structure becomes a sparse "PGTD"/"EPCD"/
  /// "BMPD"/"BSTD" delta section and is omitted entirely when its
  /// generation still equals the matching counter in `last`.
  void save_delta_sections(snapshot::Writer& w,
                           const snapshot::SectionGens& last) const;
  void apply_delta_sections(snapshot::Reader& r);

  /// Current generation counters of the four bulk structures (captured by
  /// the Snapshotter at each checkpoint to drive section skipping).
  snapshot::SectionGens section_gens() const;
  /// Reset dirty tracking after a checkpoint frame was emitted.
  void clear_dirty();

  /// Attach a metrics registry (not owned; nullptr detaches). Latency
  /// histograms — per-fault stall, per-SIP stall, DFP batch size — are
  /// recorded live through handles cached here, so the hot path pays one
  /// null test when observability is off.
  void set_metrics(obs::MetricsRegistry* reg) noexcept;

  /// Attach a time-series set (not owned; nullptr detaches). Windowed
  /// rates — faults/Mcycle, EPC occupancy, channel utilization, preload
  /// accuracy — are sampled on every service-thread scan tick.
  void set_time_series(obs::TimeSeriesSet* ts) noexcept;

  /// Attach a cycle-attribution profiler (not owned; nullptr detaches).
  /// Scoped spans wrap the fault path, resident fast path, preload issue,
  /// SIP entry points, scan/retry/eviction work, and the paging channel's
  /// completion harvesting (forwarded to the channel).
  void set_profiler(obs::Profiler* p) noexcept {
    prof_ = p;
    channel_.set_profiler(p);
  }

 private:
  /// Duration of one load: ELDU + EWB share when the EPC will be full +
  /// the preload worker's dispatch overhead for asynchronous preloads,
  /// perturbed by the chaos hooks when attached (`at` is the scheduling
  /// time the injector sees).
  Cycles load_duration(OpKind kind, Cycles at);

  /// Usable EPC capacity at `now`: the real capacity unless a chaos
  /// injector is squeezing it (clamped to [1, capacity]).
  PageNum effective_capacity(Cycles now) const;

  /// Watchdog bookkeeping, called once per service-thread scan: checks the
  /// invariants every watchdog_scan_interval scans, or immediately when a
  /// chaos hook fired since the last check (injection boundary).
  void watchdog_tick(Cycles now);

  /// The incremental check: the aggregate clauses in O(1) (the elastic
  /// per-tenant counts excepted) and check_page() on every page in changed_,
  /// ascending. Exact only if the state was valid when changed_ was last
  /// cleared.
  void check_changed() const;
  /// The clauses of both checks, shared so that both throw the same
  /// message from the same place. `bitmap_count` is the bitmap's recounted
  /// (full sweep) or maintained (incremental) population.
  void check_counts(std::uint64_t bitmap_count) const;
  /// Every per-page clause of page `p`, in order.
  void check_page(PageNum p, PageNum tenant_end) const;
  /// Per-tenant resident counts (word-parallel) and quota conservation.
  void check_elastic() const;
  /// End of the pages some tenant owns (the ELRANGE end unless elastic).
  PageNum tenant_end() const;

  /// Schedule a load of `page` on the channel no earlier than `earliest`.
  const ChannelOp& schedule_load(PageNum page, Cycles earliest, OpKind kind,
                                 ProcessId pid = 0, std::uint32_t attempt = 0);

  /// Schedule with priority over queued preloads (demand/SIP loads). On a
  /// bounded channel, first sheds the newest queued preloads down to the
  /// high-water mark to make room.
  const ChannelOp& schedule_load_priority(PageNum page, Cycles earliest,
                                          OpKind kind, ProcessId pid = 0);

  /// Admission-controlled preload submission: degradation-level gate, then
  /// per-tenant quota, then the channel's own queue bound (try_schedule).
  /// Sheds (and accounts) instead of scheduling on any rejection.
  AdmissionResult submit_preload(ProcessId pid, PageNum page, Cycles earliest);

  /// Flush queued (not-started) DFP preloads, notifying the policy.
  void flush_queued_preloads(Cycles now);

  /// Route a harvested channel op: in hardened mode, recognizes duplicated
  /// completions (idempotent no-op) and dropped completions (the op's
  /// effects are lost; it joins the retry sweep) before committing. The
  /// default mode commits directly — bit-identical to the seed.
  void deliver_completion(const ChannelOp& op);

  /// Retry sweep (hardened mode): every lost op past its deadline is
  /// resolved (page arrived by other means), re-issued with capped
  /// exponential backoff + jitter, or surfaced as a permanent fault after
  /// max_retries. Piggybacks on scan ticks and advance_to boundaries.
  void sweep_lost_ops(Cycles now);

  /// Close each tenant's admission window on a scan tick; ladder
  /// transitions are logged and counted here.
  void admission_windows(Cycles now);

  bool hardened() const noexcept { return config_.channel.max_retries > 0; }
  bool admission_active() const noexcept { return config_.admission.enabled; }
  Cycles deadline_slack() const noexcept {
    return config_.channel.deadline_slack > 0 ? config_.channel.deadline_slack
                                              : 4 * costs_.epc_load;
  }
  Cycles retry_backoff_base() const noexcept {
    return config_.channel.retry_backoff > 0 ? config_.channel.retry_backoff
                                             : costs_.epc_load;
  }
  /// Lazily grown per-tenant controller (admission_active() only).
  AdmissionController& tenant(ProcessId pid);
  /// The "DRVR" section's field stream (shared by save_sections and
  /// save_delta_sections): everything except the four bulk structures.
  void save_drvr_fields(snapshot::Writer& w) const;
  void load_drvr_fields(snapshot::Reader& r);

  /// Has this preload-op id already been committed? (dup suppression)
  bool already_completed(std::uint64_t op_id) const noexcept;
  void note_completed(std::uint64_t op_id);

  /// Apply a completed channel op: evict a victim if needed, map the page.
  void commit_load(const ChannelOp& op);

  /// First touch of a preloaded page: count it and tell the policy.
  void note_preload_used(PageNum page);
  void evict_one(PageNum pinned);
  /// Evict exactly `victim` (already selected): unload, unmap, release the
  /// slot, version the backing copy, clear the bitmap bit.
  void evict_page(PageNum victim);
  /// One elastic AIMD window, run on the scan tick: feeds the channel's
  /// windowed utilization to the controller.
  void elastic_rebalance(Cycles now);

  EnclaveConfig config_;
  CostModel costs_;
  PreloadPolicy* policy_;  // not owned; may be null (no preloading)
  ChaosHooks* chaos_ = nullptr;  // not owned; may be null (no injection)

  PageTable page_table_;
  Epc epc_;
  BackingStore backing_;
  PagingChannel channel_;
  PresenceBitmap bitmap_;
  std::unique_ptr<EvictionPolicy> eviction_;

  /// Record one windowed sample of each driver series at `now`.
  void sample_time_series(Cycles now);

  DriverStats stats_;
  obs::EventLog* log_ = nullptr;  // not owned; may be null
  Cycles next_scan_ = 0;
  Cycles bookkept_until_ = 0;
  std::uint64_t scans_since_watchdog_ = 0;
  /// A chaos hook fired since the last watchdog sweep (injection-boundary
  /// sweeps run at the next bookkeeping point, not mid-operation).
  bool chaos_dirty_ = false;

  // --- overload hardening (inert in the default configuration) ---
  /// A preload whose completion was dropped: the load's effects never
  /// reached the page table and the sweep owns its fate.
  struct LostOp {
    std::uint64_t id = 0;
    PageNum page = kInvalidPage;
    ProcessId pid = 0;
    std::uint32_t attempt = 0;
    Cycles deadline = 0;
  };
  std::vector<LostOp> lost_ops_;
  /// Dedicated jitter stream for retry backoff — separate from the chaos
  /// streams so enabling retries never perturbs an injection schedule.
  Rng retry_rng_;
  /// Ring of recently committed preload-op ids (duplicate suppression).
  std::vector<std::uint64_t> completed_ring_;
  std::size_t completed_pos_ = 0;
  /// Per-tenant ladder controllers, indexed by ProcessId, grown lazily.
  std::vector<AdmissionController> tenants_;
  /// Tenants currently draining for migration (indexed by ProcessId; kept
  /// separate from tenants_ so admission-off runs can drain without growing
  /// the serialized controller vector). Not serialized — a snapshot taken
  /// mid-drain restores as not-draining, matching AdmissionController.
  std::vector<std::uint8_t> drain_flags_;
  /// Count of set drain_flags_ — the one word the fast path tests.
  std::uint32_t draining_count_ = 0;

  // --- elastic EPC (inert until set_elastic_geometry) ---
  ElasticEpcController elastic_;
  bool elastic_engaged_ = false;
  /// Channel-busy anchors for the per-window utilization fed to rebalance().
  Cycles el_last_at_ = 0;
  Cycles el_last_busy_ = 0;

  // --- observability (all null/zero when disabled) ---
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  obs::Histogram* fault_stall_hist_ = nullptr;
  obs::Histogram* sip_stall_hist_ = nullptr;
  obs::Histogram* dfp_batch_hist_ = nullptr;
  obs::Gauge* degrade_gauge_ = nullptr;  // worst tenant ladder level
  obs::TimeSeriesSet* series_ = nullptr;  // not owned; may be null
  obs::Profiler* prof_ = nullptr;         // not owned; may be null
  /// Total channel-busy cycles committed so far (for windowed utilization).
  Cycles channel_busy_total_ = 0;
  // Snapshots from the previous sample, for windowed deltas.
  Cycles ts_last_at_ = 0;
  Cycles ts_last_busy_ = 0;
  std::uint64_t ts_last_faults_ = 0;
  std::uint64_t ts_last_preloads_used_ = 0;
  std::uint64_t ts_last_preloads_completed_ = 0;

  // Last: the access path reads none of it.
  /// Pages whose residency, slot or bitmap bit changed since the watchdog's
  /// last proof, reported by the page table, EPC and bitmap themselves
  /// (attached only while the watchdog is on). Not serialized: a restore
  /// proves the whole state with the full sweep and starts it empty.
  DirtySet changed_;
};

}  // namespace sgxpl::sgxsim
