// Elastic EPC: EDMM-style dynamic per-tenant memory with AIMD quota control.
//
// SGX1 fixes an enclave's EPC share at build time; post-SGX1 EDMM (EAUG /
// EACCEPT) makes the partition a runtime-controllable resource, and
// "Adaptive and Efficient Dynamic Memory Management for Hardware Enclaves"
// (arXiv 2504.16251) shows a kernel-side controller can resize tenant
// partitions on the fly. This module models that controller for the
// multi-enclave co-simulation: each tenant owns a *quota* of EPC pages that
//
//   - grows additively (grow_step pages) after `grow_streak` consecutive
//     rebalance windows of sustained demand-fault pressure, and every
//     window thereafter while the pressure persists (EAUG), granted
//     round-robin from a shared free pool so one hot tenant cannot starve
//     the others;
//   - shrinks multiplicatively (quota *= decrease_factor) when the tenant
//     slides down the admission ladder (a demotion is the overload verdict)
//     or has been idle for `idle_windows` windows — one window suffices
//     while the shared paging channel is in backpressure (utilization at or
//     above `backpressure_utilization`);
//   - never drops below a hard floor (floor_pages, clamped to the tenant's
//     ELRANGE), and the whole system conserves pages:
//     Σ per-tenant quotas + free pool == physical EPC at every instant.
//
// Shrink is *deferred* (EDMM's lazy EACCEPT of the removal): the quota
// moves immediately but resident pages above it are reclaimed by the
// driver's quota-aware CLOCK eviction the next time a load commits, not by
// a stop-the-world unmap. Hysteresis against ladder livelock: a
// demotion-driven decrease freezes the tenant's quota (no grow, no further
// shrink) for `cooldown_windows` windows, so the ladder's own stop/probe/
// resume dynamics cannot ping-pong the quota. Idle shrinks set no cooldown
// — reclaiming a dead tenant should not be rate-limited, and a waking one
// regrows through the ordinary pressure streak.
//
// Default-disabled: ElasticParams::enabled = false leaves the driver's
// shared-EPC behavior untouched, bit-for-bit identical to the seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

struct ElasticParams {
  /// Master switch; false (default) keeps the shared EPC un-partitioned and
  /// the controller entirely out of the driver's paths.
  bool enabled = false;
  /// Hard per-tenant floor: no quota ever shrinks below this many resident
  /// pages (clamped to the tenant's ELRANGE for tiny tenants).
  PageNum floor_pages = 16;
  /// Additive-increase step in pages; 0 freezes growth (a static partition,
  /// the bench's fixed-partition comparison arm).
  PageNum grow_step = 32;
  /// Multiplicative-decrease factor in (0, 1).
  double decrease_factor = 0.5;
  /// Channel utilization at or above which the shared paging channel is in
  /// backpressure: idle shrink accelerates to a single idle window.
  double backpressure_utilization = 0.9;
  /// Demand faults within one rebalance window that count as pressure.
  std::uint64_t pressure_faults = 4;
  /// Consecutive pressure windows required before a grow is granted.
  std::uint32_t grow_streak = 2;
  /// Windows a quota is frozen after a multiplicative decrease (hysteresis
  /// against livelock with the admission ladder's stop/probe/resume).
  std::uint32_t cooldown_windows = 4;
  /// Consecutive activity-free windows (no demand faults AND no pages
  /// mapped) before an idle tenant is shrunk; 0 disables idle shrink (the
  /// static-partition arm keeps its split).
  std::uint32_t idle_windows = 8;
};

/// Render the tunables (everything but `enabled`) as the canonical
/// "floor=16,grow=32,decrease=0.5,util=0.9,pressure=4,streak=2,cooldown=4,
/// idle=8" spec string. Part of the snapshot identity via overload_spec().
std::string elastic_spec(const ElasticParams& p);

/// Inverse of elastic_spec: parse a comma-separated "key=value" list into
/// params with enabled=true. "" and "default" give the defaults. On
/// malformed input returns nullopt and fills `err` (when non-null) with a
/// typed, position-aware diagnostic (same contract as ChaosPlan::parse).
std::optional<ElasticParams> parse_elastic_spec(std::string_view spec,
                                                std::string* err = nullptr);

/// Lifetime counters of the controller's decisions, one row each:
/// X(member). This list declares the member and drives publish() (counter
/// "epc.elastic.<member>"), save() and load() (label "el.stats.<member>").
#define SGXPL_ELASTIC_STATS_FIELDS(X)                                      \
  X(rebalance_ticks)                                                       \
  X(grows) /* additive grants */                                           \
  X(grow_pages) /* pages granted in total */                               \
  X(shrinks) /* multiplicative decreases */                                \
  X(shrink_pages) /* pages returned to the pool */                         \
  X(demotion_shrinks) /* decreases driven by ladder demotions */           \
  X(backpressure_shrinks) /* idle shrinks fast-tracked by backpressure */  \
  X(idle_shrinks) /* ordinary idle decreases */                            \
  X(floor_hits) /* decreases clamped at the floor */                       \
  X(quota_evictions) /* evictions forced by quota enforcement */

struct ElasticStats {
#define SGXPL_DECLARE_COUNTER(member) std::uint64_t member = 0;
  SGXPL_ELASTIC_STATS_FIELDS(SGXPL_DECLARE_COUNTER)
#undef SGXPL_DECLARE_COUNTER

  void publish(obs::MetricsRegistry& reg) const;
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);
};

/// Per-tenant controller state, one row each: X(type, member). This list
/// declares the member and drives save()/load(), one u64 column per row
/// labeled "el.<member>" (a bool column holds 0/1).
///   - lo, pages: the tenant's ELRANGE slice (geometry; load() checks it
///     against this run's placement).
///   - window_mapped: pages mapped this window (demand loads and committed
///     preloads alike). A tenant is idle only when this, window_faults AND
///     window_accesses are all zero — a tenant served perfectly by its
///     preloads has no demand faults but is not idle, and shrinking it
///     would tear out a working set earning its keep.
///   - window_accesses: resident-page hits this window (accessed-bit
///     liveness; see note_access). The third leg of the idle judgment: a
///     fully-resident tenant faults on nothing and maps nothing yet is very
///     much alive.
#define SGXPL_ELASTIC_TENANT_FIELDS(X) \
  X(PageNum, lo)                       \
  X(PageNum, pages)                    \
  X(PageNum, quota)                    \
  X(PageNum, resident)                 \
  X(std::uint64_t, window_faults)      \
  X(std::uint64_t, window_mapped)      \
  X(std::uint64_t, window_accesses)    \
  X(std::uint32_t, pressure_streak)    \
  X(std::uint32_t, idle_streak)        \
  X(std::uint32_t, cooldown)           \
  X(bool, demoted)

/// One controller per shared driver (conservation is a global property).
/// Lifecycle: configure() -> add_tenant() per tenant in address order ->
/// finalize(); the driver then feeds it mapped/unmapped/fault/demotion
/// events and calls rebalance() on its scan tick.
class ElasticEpcController {
 public:
  ElasticEpcController() = default;

  void configure(const ElasticParams& params, PageNum epc_capacity);
  /// Declare one tenant's ELRANGE slice [lo, lo+pages). Tenants must be
  /// added in address order with no gaps from 0 (the multi-enclave layout).
  void add_tenant(PageNum lo, PageNum pages);
  /// Seed the initial quotas: every tenant gets its floor, the remainder is
  /// split evenly (capped at each tenant's ELRANGE); leftovers start in the
  /// free pool.
  void finalize();

  bool engaged() const noexcept { return finalized_; }
  std::size_t tenant_count() const noexcept { return tenants_.size(); }
  PageNum capacity() const noexcept { return capacity_; }
  PageNum free_pool() const noexcept { return free_pool_; }

  /// Tenant owning `page` (requires page inside the combined ELRANGE).
  std::size_t owner(PageNum page) const;
  PageNum lo(std::size_t t) const { return tenants_.at(t).lo; }
  PageNum hi(std::size_t t) const {
    return tenants_.at(t).lo + tenants_.at(t).pages;
  }
  PageNum quota(std::size_t t) const { return tenants_.at(t).quota; }
  PageNum resident(std::size_t t) const { return tenants_.at(t).resident; }
  /// Effective floor (floor_pages clamped to the tenant's ELRANGE).
  PageNum floor(std::size_t t) const;

  // --- events fed by the driver ---
  void note_mapped(PageNum page);
  void note_unmapped(PageNum page);
  /// A demand fault by tenant `t` (pressure evidence for the AIMD grow).
  void note_fault(std::size_t t);
  /// A resident-page hit by tenant `t` — liveness evidence only (the model
  /// of EDMM's accessed-bit sampling). A fully-resident tenant generates no
  /// paging traffic at all; without this signal it is indistinguishable
  /// from a dead one and the idle shrink would evict its working set.
  void note_access(std::size_t t) noexcept {
    ++tenants_[t].window_accesses;
  }
  /// Tenant `t` slid down the admission ladder (decrease signal).
  void note_demotion(std::size_t t);
  /// The driver evicted a page to enforce a quota (accounting only).
  void note_quota_eviction() noexcept { ++stats_.quota_evictions; }

  /// Tenant furthest over its quota (deferred-shrink reclaim target);
  /// nullopt when nobody is over.
  std::optional<std::size_t> most_over_quota() const;

  /// One AIMD window: judge each tenant's pressure/idle evidence, apply
  /// decreases then round-robin grows, reset the window. `utilization` is
  /// the shared channel's busy fraction over the window; tenants flagged in
  /// `drain_flags` (indexed by tenant) are frozen — evidence, cooldowns and
  /// quota untouched, exactly like the admission ladder's kDraining.
  void rebalance(double utilization,
                 const std::vector<std::uint8_t>& drain_flags);

  /// Global conservation invariant: Σ quotas + free pool == capacity, every
  /// quota within [floor, ELRANGE]. Throws CheckFailure on violation;
  /// called from the driver's watchdog (check_invariants).
  void check_conservation() const;

  const ElasticStats& stats() const noexcept { return stats_; }

  /// Publish quotas/pool/counters under "epc.elastic.*".
  void publish(obs::MetricsRegistry& reg) const;

  /// Checkpoint/restore of quotas, window evidence, cooldowns and stats.
  /// load() requires a controller finalized with the same geometry.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  struct Tenant {
#define SGXPL_DECLARE_FIELD(type, member) type member{};
    SGXPL_ELASTIC_TENANT_FIELDS(SGXPL_DECLARE_FIELD)
#undef SGXPL_DECLARE_FIELD
  };

  /// Multiplicative decrease clamped at the floor; returns pages freed.
  PageNum shrink_tenant(Tenant& t, PageNum fl);

  ElasticParams params_;
  PageNum capacity_ = 0;
  PageNum free_pool_ = 0;
  /// Round-robin grant cursor: rotated every window so the pool is offered
  /// to a different tenant first each time (starvation freedom).
  std::size_t next_grant_ = 0;
  bool finalized_ = false;
  std::vector<Tenant> tenants_;
  ElasticStats stats_;
};

}  // namespace sgxpl::sgxsim
