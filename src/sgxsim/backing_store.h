// The untrusted (non-EPC) side of the EPC paging mechanism.
//
// When the driver evicts an EPC page it executes EWB, which encrypts the
// page, MACs it, and bumps its anti-replay version counter in the VA slot;
// ELDU/ELDB verify that counter on the way back in. We model the counter
// explicitly so tests can assert the freshness property: every load observes
// exactly the version produced by the most recent eviction of that page.
#pragma once

#include <cstdint>
#include <vector>

#include "common/dirty_set.h"
#include "common/types.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

class BackingStore {
 public:
  /// A store for the `elrange_pages` pages of one ELRANGE.
  explicit BackingStore(PageNum elrange_pages);

  /// EWB: write the page out, bumping its version. Returns the new version.
  /// Versions are 32-bit: an eviction that would wrap one is refused.
  std::uint64_t evict(PageNum page);

  /// ELDU/ELDB: read the page back. Returns the version that must match the
  /// VA slot (0 for a page never evicted, i.e. first touch after EADD).
  std::uint64_t load(PageNum page) const;

  /// Number of EWB executions for `page`.
  std::uint64_t eviction_count(PageNum page) const;

  std::uint64_t total_evictions() const noexcept { return total_evictions_; }
  std::uint64_t total_loads() const noexcept { return total_loads_; }

  /// Checkpoint/restore. Version slots of evicted pages are serialized
  /// sorted by page number so identical states always produce identical
  /// snapshot bytes. Full and delta loads refuse a page outside ELRANGE,
  /// version 0 and a version above UINT32_MAX.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

  /// Delta checkpointing (format v2): the totals plus only the version slots
  /// bumped since the last clear_dirty(). generation() also moves on load()
  /// because total_loads_ is observable state.
  std::uint64_t generation() const noexcept { return gen_; }
  void save_delta(snapshot::Writer& w) const;
  void apply_delta(snapshot::Reader& r);
  void clear_dirty();

 private:
  /// Validate one (page, version) pair of a loaded frame and install it.
  void restore_slot(PageNum page, std::uint64_t version);

  /// Page-indexed EWB version; 0 = never evicted.
  std::vector<std::uint32_t> versions_;
  std::uint64_t total_evictions_ = 0;
  mutable std::uint64_t total_loads_ = 0;
  mutable std::uint64_t gen_ = 0;
  DirtySet dirty_;
};

}  // namespace sgxpl::sgxsim
