#include "sgxsim/epc.h"

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

Epc::Epc(PageNum capacity_pages)
    : capacity_(capacity_pages),
      slot_to_page_(capacity_pages, kInvalidPage),
      dirty_(capacity_pages) {
  SGXPL_CHECK_MSG(capacity_pages > 0, "EPC must have at least one page");
  free_list_.reserve(capacity_pages);
  // Populate so that slot 0 is handed out first (pop from the back).
  for (PageNum i = capacity_pages; i > 0; --i) {
    free_list_.push_back(static_cast<SlotIndex>(i - 1));
  }
}

void Epc::mark_dirty(SlotIndex slot) {
  ++gen_;
  dirty_.mark(slot);
}

SlotIndex Epc::allocate(PageNum page) {
  SGXPL_CHECK_MSG(!full(), "allocate on a full EPC; evict first");
  const SlotIndex slot = free_list_.back();
  free_list_.pop_back();
  SGXPL_DCHECK(slot_to_page_[slot] == kInvalidPage);
  slot_to_page_[slot] = page;
  ++used_;
  mark_dirty(slot);
  if (watch_ != nullptr) watch_->mark(page);
  return slot;
}

void Epc::release(SlotIndex slot) {
  SGXPL_CHECK(slot < capacity_);
  SGXPL_CHECK_MSG(slot_to_page_[slot] != kInvalidPage,
                  "release of free slot " << slot);
  if (watch_ != nullptr) watch_->mark(slot_to_page_[slot]);
  slot_to_page_[slot] = kInvalidPage;
  free_list_.push_back(slot);
  SGXPL_CHECK(used_ > 0);
  --used_;
  mark_dirty(slot);
}

PageNum Epc::choose_victim(PageTable& pt, PageNum pinned) {
  SGXPL_CHECK_MSG(used_ > 0, "no occupied EPC slot to evict");
  // At most two full sweeps: the first may clear every access bit, the
  // second must then find a victim (all bits clear). The +1 covers the
  // pinned page being the only clear candidate on the boundary.
  const std::uint64_t limit = 2 * capacity_ + 1;
  ++gen_;  // the sweep moves the CLOCK hand even when no slot changes
  for (std::uint64_t step = 0; step < limit; ++step) {
    const SlotIndex slot = clock_hand_;
    clock_hand_ = static_cast<SlotIndex>((clock_hand_ + 1) % capacity_);
    const PageNum page = slot_to_page_[slot];
    if (page == kInvalidPage || page == pinned) {
      continue;
    }
    if (!pt.test_and_clear_accessed(page)) {
      return page;
    }
  }
  SGXPL_CHECK_MSG(false, "CLOCK sweep found no victim");
  return kInvalidPage;  // unreachable
}

PageNum Epc::choose_victim_in(PageTable& pt, PageNum lo, PageNum hi,
                              PageNum pinned) {
  SGXPL_CHECK_MSG(used_ > 0, "no occupied EPC slot to evict");
  // Same two-sweep bound as choose_victim: the first pass may clear every
  // in-range access bit, the second must then find an in-range victim — or
  // prove the range holds nothing evictable.
  const std::uint64_t limit = 2 * capacity_ + 1;
  ++gen_;  // the sweep moves the CLOCK hand even when no slot changes
  bool any_candidate = false;
  for (std::uint64_t step = 0; step < limit; ++step) {
    const SlotIndex slot = clock_hand_;
    clock_hand_ = static_cast<SlotIndex>((clock_hand_ + 1) % capacity_);
    const PageNum page = slot_to_page_[slot];
    if (page == kInvalidPage || page == pinned || page < lo || page >= hi) {
      continue;
    }
    any_candidate = true;
    if (!pt.test_and_clear_accessed(page)) {
      return page;
    }
  }
  SGXPL_CHECK_MSG(!any_candidate,
                  "range-restricted CLOCK sweep cleared every bit twice "
                  "without finding a victim");
  return kInvalidPage;
}

void Epc::save(snapshot::Writer& w) const {
  w.u64("epc.capacity", capacity_);
  w.u64("epc.used", used_);
  w.u64("epc.clock_hand", clock_hand_);
  w.u64_vec("epc.slot_to_page", slot_to_page_);
  std::vector<std::uint64_t> free_list(free_list_.begin(), free_list_.end());
  w.u64_vec("epc.free_list", free_list);
}

void Epc::load(snapshot::Reader& r) {
  const std::uint64_t capacity = r.u64("epc.capacity");
  SGXPL_CHECK_MSG(capacity == capacity_,
                  "snapshot EPC capacity " << capacity
                      << " does not match this EPC (" << capacity_ << ")");
  const std::uint64_t used = r.u64("epc.used");
  const std::uint64_t hand = r.u64("epc.clock_hand");
  SGXPL_CHECK_MSG(used <= capacity_ && hand < capacity_,
                  "snapshot EPC counters out of range");
  const std::vector<std::uint64_t> slots = r.u64_vec("epc.slot_to_page");
  const std::vector<std::uint64_t> free_list = r.u64_vec("epc.free_list");
  SGXPL_CHECK_MSG(slots.size() == capacity_ &&
                      free_list.size() == capacity_ - used,
                  "snapshot EPC slot/free-list sizes are inconsistent");
  slot_to_page_ = slots;
  free_list_.clear();
  for (std::uint64_t s : free_list) {
    SGXPL_CHECK_MSG(s < capacity_ && slot_to_page_[s] == kInvalidPage,
                    "snapshot EPC free list entry " << s << " is invalid");
    free_list_.push_back(static_cast<SlotIndex>(s));
  }
  used_ = used;
  clock_hand_ = static_cast<SlotIndex>(hand);
  // Whole-EPC load: every slot is dirty until the next clear_dirty().
  ++gen_;
  dirty_.mark_all();
}

void Epc::save_delta(snapshot::Writer& w) const {
  w.u64("epc.capacity", capacity_);
  w.u64("epc.used", used_);
  w.u64("epc.clock_hand", clock_hand_);
  const std::vector<std::uint64_t> dirty = dirty_.indices();
  w.u64_vec("epc.delta_runs", snapshot::encode_runs(dirty));
  std::vector<std::uint64_t> pages;
  pages.reserve(dirty.size());
  for (const std::uint64_t s : dirty) pages.push_back(slot_to_page_[s]);
  w.u64_vec("epc.delta_pages", pages);
  std::vector<std::uint64_t> free_list(free_list_.begin(), free_list_.end());
  w.u64_vec("epc.free_list", free_list);
}

void Epc::apply_delta(snapshot::Reader& r) {
  const std::uint64_t capacity = r.u64("epc.capacity");
  SGXPL_CHECK_MSG(capacity == capacity_,
                  "snapshot EPC delta capacity " << capacity
                      << " does not match this EPC (" << capacity_ << ")");
  const std::uint64_t used = r.u64("epc.used");
  const std::uint64_t hand = r.u64("epc.clock_hand");
  SGXPL_CHECK_MSG(used <= capacity_ && hand < capacity_,
                  "snapshot EPC delta counters out of range");
  const std::vector<std::uint64_t> ids =
      snapshot::decode_runs(r.u64_vec("epc.delta_runs"), capacity_, "EPC slot");
  const std::vector<std::uint64_t> pages = r.u64_vec("epc.delta_pages");
  SGXPL_CHECK_MSG(pages.size() == ids.size(),
                  "snapshot EPC delta holds " << pages.size() << " pages for "
                      << ids.size() << " slots");
  const std::vector<std::uint64_t> free_list = r.u64_vec("epc.free_list");
  SGXPL_CHECK_MSG(free_list.size() == capacity_ - used,
                  "snapshot EPC delta free list is inconsistent with the "
                  "used count");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    slot_to_page_[ids[i]] = pages[i];
    mark_dirty(static_cast<SlotIndex>(ids[i]));
  }
  free_list_.clear();
  for (std::uint64_t s : free_list) {
    SGXPL_CHECK_MSG(s < capacity_ && slot_to_page_[s] == kInvalidPage,
                    "snapshot EPC delta free list entry " << s
                        << " is invalid");
    free_list_.push_back(static_cast<SlotIndex>(s));
  }
  used_ = used;
  clock_hand_ = static_cast<SlotIndex>(hand);
}

void Epc::clear_dirty() { dirty_.clear(); }

}  // namespace sgxpl::sgxsim
