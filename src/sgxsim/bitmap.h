// The presence bitmap shared between the enclave and the untrusted OS
// (paper §4.3): one bit per ELRANGE page, set while the page is resident in
// the EPC. The kernel updates it on every load/evict; the enclave's SIP
// instrumentation reads it (BIT_MAP_CHECK) before issuing a preload
// notification. Residency is public information (the OS services the
// faults), so exposing it leaks nothing beyond what SGX already reveals.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/dirty_set.h"
#include "common/types.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

class PresenceBitmap {
 public:
  explicit PresenceBitmap(PageNum pages);

  PageNum pages() const noexcept { return pages_; }

  bool test(PageNum page) const {
    SGXPL_DCHECK(page < pages_);
    return (words_[page >> 6] >> (page & 63)) & 1u;
  }

  void set(PageNum page) {
    SGXPL_DCHECK(page < pages_);
    const std::uint64_t bit = 1ull << (page & 63);
    if ((words_[page >> 6] & bit) == 0) {
      words_[page >> 6] |= bit;
      ++count_;
      mark_dirty(page);
    }
  }

  void clear(PageNum page) {
    SGXPL_DCHECK(page < pages_);
    const std::uint64_t bit = 1ull << (page & 63);
    if ((words_[page >> 6] & bit) != 0) {
      words_[page >> 6] &= ~bit;
      --count_;
      mark_dirty(page);
    }
  }

  /// Number of set bits, recounted word by word (the watchdog's full sweep).
  std::uint64_t popcount() const noexcept;

  /// Number of set bits, maintained by every write to the words: equal to
  /// popcount() at all times, in O(1) (the watchdog's incremental check).
  std::uint64_t count() const noexcept { return count_; }

  /// Report every page whose bit set()/clear() flips into `changed` (not
  /// owned; nullptr detaches).
  void watch(DirtySet* changed) noexcept { watch_ = changed; }

  /// The packed bits, page p at bit (p & 63) of word p >> 6 (the layout of
  /// PageTable::present_words(), so the watchdog can compare them a word at
  /// a time).
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Checkpoint/restore. load() requires a bitmap constructed for the same
  /// number of pages as the one saved.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

  /// Delta checkpointing (format v2): only the 64-bit words that changed
  /// since the last clear_dirty() are written, as sparse word-index runs.
  std::uint64_t generation() const noexcept { return gen_; }
  void save_delta(snapshot::Writer& w) const;
  void apply_delta(snapshot::Reader& r);
  void clear_dirty();

 private:
  void mark_dirty(PageNum page);

  PageNum pages_;
  std::vector<std::uint64_t> words_;
  std::uint64_t count_ = 0;
  std::uint64_t gen_ = 0;
  /// Word-indexed: the delta unit is a 64-bit word of the bitmap.
  DirtySet dirty_;
  DirtySet* watch_ = nullptr;
};

}  // namespace sgxpl::sgxsim
