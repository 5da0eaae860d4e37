// The enclave's page table as seen by the untrusted OS.
//
// One entry per ELRANGE page: the slot the page occupies, the hardware-set
// access bit the driver's service thread scans, and whether the page arrived
// via a preload (DFP bookkeeping, §4.2 of the paper). Residency (present in
// EPC) lives in a packed bitset beside the entries, one bit per page, so the
// watchdog can sweep it a 64-page word at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

struct PageTableEntry {
  SlotIndex slot = kInvalidSlot;
  /// Set by "hardware" on every access to a resident page; cleared by the
  /// CLOCK eviction hand and consumed by the service-thread scan.
  bool accessed = false;
  /// True if the page was brought in by a preload (DFP or SIP) rather than a
  /// demand fault, and has not been accessed yet.
  bool preloaded = false;
};

class PageTable {
 public:
  explicit PageTable(PageNum elrange_pages);

  PageNum elrange_pages() const noexcept { return size_; }

  const PageTableEntry& entry(PageNum page) const {
    SGXPL_DCHECK(page < size_);
    return entries_[page];
  }

  bool present(PageNum page) const {
    SGXPL_DCHECK(page < size_);
    return (present_[page >> 6] >> (page & 63)) & 1u;
  }

  /// The residency bitset: bit (p & 63) of word p >> 6 is set while page p
  /// is present. Bits at or above elrange_pages() are always clear.
  const std::vector<std::uint64_t>& present_words() const noexcept {
    return present_;
  }

  /// Record that `page` now occupies `slot`.
  void map(PageNum page, SlotIndex slot, bool via_preload);

  /// Record that `page` was evicted. Returns the entry state at eviction so
  /// the caller can account (e.g. evicted-while-preloaded-and-unused).
  PageTableEntry unmap(PageNum page);

  /// Hardware access-bit set on a regular access. Returns true if this is
  /// the first access since the page was (pre)loaded. Inline: the driver's
  /// resident fast path runs it on every hit, right after present().
  bool touch(PageNum page) {
    SGXPL_DCHECK(present(page));
    auto& e = mutable_entry(page);
    const bool first = e.preloaded;
    if (!e.accessed || e.preloaded) mark_dirty(page);
    e.accessed = true;
    e.preloaded = false;
    return first;
  }

  /// CLOCK second-chance: clears the access bit, returns its prior value.
  bool test_and_clear_accessed(PageNum page);

  std::uint64_t resident_count() const noexcept { return resident_; }

  /// Checkpoint/restore. load() requires a table constructed with the same
  /// ELRANGE size as the one saved.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

  /// Delta checkpointing (snapshot format v2). Mutations since the last
  /// clear_dirty() are tracked per page; save_delta writes only those
  /// entries as sparse [start, len] runs, apply_delta replays them on top of
  /// a previously restored table. generation() increments on every mutation
  /// so the Snapshotter can skip the section when nothing changed.
  std::uint64_t generation() const noexcept { return gen_; }
  void save_delta(snapshot::Writer& w) const;
  void apply_delta(snapshot::Reader& r);
  void clear_dirty();

 private:
  PageTableEntry& mutable_entry(PageNum page) {
    SGXPL_DCHECK(page < size_);
    return entries_[page];
  }

  void mark_dirty(PageNum page);
  void set_present(PageNum page, bool on) {
    const std::uint64_t bit = 1ull << (page & 63);
    if (on) {
      present_[page >> 6] |= bit;
    } else {
      present_[page >> 6] &= ~bit;
    }
  }

  PageNum size_;
  std::vector<PageTableEntry> entries_;
  std::vector<std::uint64_t> present_;
  std::uint64_t resident_ = 0;
  std::uint64_t gen_ = 0;
  std::vector<std::uint64_t> dirty_list_;
  std::vector<bool> dirty_flag_;
};

}  // namespace sgxpl::sgxsim
