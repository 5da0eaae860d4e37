// The Enclave Page Cache: the fixed pool of protected physical page slots.
//
// SGX reserves ~128 MiB of physical memory for the EPC, of which ~96 MiB is
// usable by applications (the rest holds enclave metadata). The driver
// manages it at page granularity; when it is full a victim is chosen with a
// CLOCK second-chance sweep over the access bits (the Intel driver's
// reclaim heuristic the paper piggybacks on in §4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/dirty_set.h"
#include "common/types.h"
#include "sgxsim/page_table.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

/// Default usable EPC: 96 MiB of 4 KiB pages.
inline constexpr PageNum kDefaultEpcPages = bytes_to_pages(96ull << 20);

class Epc {
 public:
  explicit Epc(PageNum capacity_pages);

  PageNum capacity() const noexcept { return capacity_; }
  PageNum used() const noexcept { return used_; }
  bool full() const noexcept { return used_ == capacity_; }
  PageNum free_slots() const noexcept { return capacity_ - used_; }

  /// Allocate a free slot for `page`. Requires !full().
  SlotIndex allocate(PageNum page);

  /// Release the slot holding `page_in_slot` (after the page table unmapped
  /// it).
  void release(SlotIndex slot);

  /// Report the pages whose slot ownership allocate()/release() changes into
  /// `changed` (not owned; nullptr detaches): the page allocated for, and
  /// the page a released slot held.
  void watch(DirtySet* changed) noexcept { watch_ = changed; }

  /// Page currently held by a slot (kInvalidPage if free).
  PageNum page_at(SlotIndex slot) const {
    SGXPL_CHECK(slot < capacity_);
    return slot_to_page_[slot];
  }

  /// CLOCK second-chance victim selection: sweep from the hand, clearing
  /// access bits of occupied slots via the page table; the first occupied
  /// slot with a clear access bit wins. Requires at least one occupied slot.
  /// Never selects `pinned` (the page a load is being performed for).
  PageNum choose_victim(PageTable& pt, PageNum pinned = kInvalidPage);

  /// Range-restricted CLOCK sweep for elastic per-tenant quotas: like
  /// choose_victim, but only pages in [lo, hi) are candidates — and pages
  /// outside the range are passed over *without* losing their access bits,
  /// so enforcing one tenant's quota never ages another tenant's working
  /// set. Shares the hand with choose_victim. Returns kInvalidPage when the
  /// range holds no evictable page (the caller falls back to the global
  /// sweep).
  PageNum choose_victim_in(PageTable& pt, PageNum lo, PageNum hi,
                           PageNum pinned = kInvalidPage);

  /// Checkpoint/restore (slot map, free list order, CLOCK hand). load()
  /// requires an EPC constructed with the same capacity as the one saved.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

  /// Delta checkpointing (format v2): scalars plus only the slots reassigned
  /// since the last clear_dirty(); the free list is written whole (it is
  /// near-empty whenever the enclave overcommits the EPC, which is the case
  /// this simulator exists to study).
  std::uint64_t generation() const noexcept { return gen_; }
  void save_delta(snapshot::Writer& w) const;
  void apply_delta(snapshot::Reader& r);
  void clear_dirty();

 private:
  void mark_dirty(SlotIndex slot);

  PageNum capacity_;
  PageNum used_ = 0;
  std::vector<PageNum> slot_to_page_;
  std::vector<SlotIndex> free_list_;
  SlotIndex clock_hand_ = 0;
  std::uint64_t gen_ = 0;
  /// Slot-indexed.
  DirtySet dirty_;
  /// Page-indexed.
  DirtySet* watch_ = nullptr;
};

}  // namespace sgxpl::sgxsim
