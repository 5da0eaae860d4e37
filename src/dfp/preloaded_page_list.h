// The PreloadedPageList of paper §4.2: tracks every page brought in by DFP
// preloading until it is either observed accessed (credited to
// AccPreloadCounter by the service-thread scan) or evicted unused.
//
// The scan is incremental: it visits only the pages whose verdict can have
// moved since the previous scan — pages loaded or first touched since then
// (and, after load(), every tracked page). A tracked page nobody loaded or
// touched still reads present, !accessed and preloaded: only map() and
// touch() change those bits, and an eviction of a still-preloaded page
// erases it eagerly through on_evicted(). So the verdicts, counters and
// tracked set equal those of a full sweep over the list at every scan.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sgxsim/page_table.h"
#include "snapshot/fwd.h"

namespace sgxpl::dfp {

class PreloadedPageList {
 public:
  /// A DFP preload for `page` completed (loaded into the EPC).
  void on_loaded(PageNum page);

  /// The application touched `page` for the first time since it was
  /// preloaded; the next scan re-judges it if it is tracked.
  void on_touched(PageNum page);

  /// `page` was evicted; if it is still on the list it was never accessed.
  void on_evicted(PageNum page);

  /// Service-thread scan: credit pages whose access bit is set, drop pages
  /// no longer resident. Returns the number of pages credited this scan.
  std::uint64_t scan(const sgxsim::PageTable& pt);

  /// PreloadCounter: total pages DFP loaded (used + unused).
  std::uint64_t preload_counter() const noexcept { return preload_counter_; }
  /// AccPreloadCounter: preloaded pages observed accessed by the scan.
  std::uint64_t acc_preload_counter() const noexcept {
    return acc_preload_counter_;
  }
  /// Preloaded pages evicted without ever being credited.
  std::uint64_t evicted_unused() const noexcept { return evicted_unused_; }

  std::size_t tracked() const noexcept { return tracked_; }
  bool contains(PageNum page) const noexcept {
    const std::uint64_t w = page >> 6;
    return w < bits_.size() && ((bits_[w] >> (page & 63)) & 1u) != 0;
  }
  /// The tracked pages, ascending.
  std::vector<PageNum> pages() const;

  void reset();

  /// Checkpoint/restore. Tracked pages serialize ascending so identical
  /// states produce identical snapshot bytes. load() refuses a page at or
  /// above `page_limit` (the ELRANGE the list's pages live in) and
  /// unsorted or repeated pages.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r, PageNum page_limit);

 private:
  void insert(PageNum page);
  void erase(PageNum page);

  /// Page-indexed bitset of tracked pages, grown on demand.
  std::vector<std::uint64_t> bits_;
  std::size_t tracked_ = 0;
  /// Pages to re-judge at the next scan; may repeat or be untracked.
  std::vector<PageNum> visit_;
  std::uint64_t preload_counter_ = 0;
  std::uint64_t acc_preload_counter_ = 0;
  std::uint64_t evicted_unused_ = 0;
};

}  // namespace sgxpl::dfp
