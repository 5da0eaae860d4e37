// A bounded set of indices in [0, size) that changed since it was last
// cleared: a bitset plus the list of its nonzero 64-bit words.
//
// Marking is O(1) and idempotent, so the set never grows past one bit per
// index however often an index is marked. Clearing and ascending iteration
// cost O(marked words), not O(size). The bits are allocated at the first
// mark: a driver that is built and checkpointed but never run (a fleet host
// before its first epoch) holds no tracking memory.
//
// This is the one change-tracking type of the simulator: the snapshot
// deltas of the page table, EPC, presence bitmap and backing store, and the
// watchdog's set of pages changed since its last proof, all use it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace sgxpl {

class DirtySet {
 public:
  explicit DirtySet(std::uint64_t size) : size_(size) {}

  void mark(std::uint64_t i) {
    SGXPL_DCHECK(i < size_);
    if (bits_.empty()) [[unlikely]] {
      allocate();
    }
    std::uint64_t& word = bits_[i >> 6];
    const std::uint64_t bit = 1ull << (i & 63);
    if ((word & bit) != 0) {
      return;  // already marked: no write
    }
    if (word == 0) {
      words_.push_back(i >> 6);
    }
    word |= bit;
  }

  bool contains(std::uint64_t i) const {
    SGXPL_DCHECK(i < size_);
    return !bits_.empty() && ((bits_[i >> 6] >> (i & 63)) & 1u);
  }

  /// Mark every index in [0, size).
  void mark_all() {
    words_.clear();
    bits_.assign((size_ + 63) / 64, 0);
    for (std::uint64_t w = 0; w < bits_.size(); ++w) {
      const std::uint64_t left = size_ - (w << 6);
      bits_[w] = left >= 64 ? ~0ull : (1ull << left) - 1;
      words_.push_back(w);
    }
  }

  void clear() {
    for (const std::uint64_t w : words_) bits_[w] = 0;
    words_.clear();
  }

  /// Number of marked indices, O(marked words).
  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::uint64_t>(std::popcount(bits_[w]));
    }
    return n;
  }

  /// Call f(i) for every marked index, in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    // The word list records first-mark order; sorting it reorders nothing
    // observable, so it happens in place (one set, one thread at a time).
    std::sort(words_.begin(), words_.end());
    for (const std::uint64_t w : words_) {
      for (std::uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
        f((w << 6) + static_cast<std::uint64_t>(std::countr_zero(bits)));
      }
    }
  }

  /// The marked indices, ascending.
  std::vector<std::uint64_t> indices() const {
    std::vector<std::uint64_t> out;
    out.reserve(count());
    for_each([&](std::uint64_t i) { out.push_back(i); });
    return out;
  }

 private:
  [[gnu::noinline, gnu::cold]] void allocate() {
    bits_.assign((size_ + 63) / 64, 0);
  }

  std::uint64_t size_;
  std::vector<std::uint64_t> bits_;
  /// Indices of the nonzero words of bits_, unordered until for_each.
  mutable std::vector<std::uint64_t> words_;
};

}  // namespace sgxpl
