#include "dfp/preloaded_page_list.h"

#include <bit>
#include <utility>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {

void PreloadedPageList::insert(PageNum page) {
  const std::uint64_t w = page >> 6;
  if (w >= bits_.size()) {
    bits_.resize(w + 1, 0);
  }
  const std::uint64_t bit = 1ull << (page & 63);
  if ((bits_[w] & bit) == 0) {
    bits_[w] |= bit;
    ++tracked_;
  }
}

void PreloadedPageList::erase(PageNum page) {
  bits_[page >> 6] &= ~(1ull << (page & 63));
  --tracked_;
}

void PreloadedPageList::on_loaded(PageNum page) {
  insert(page);
  visit_.push_back(page);
  ++preload_counter_;
}

void PreloadedPageList::on_touched(PageNum page) {
  if (contains(page)) {
    visit_.push_back(page);
  }
}

void PreloadedPageList::on_evicted(PageNum page) {
  if (contains(page)) {
    erase(page);
    ++evicted_unused_;
  }
}

std::uint64_t PreloadedPageList::scan(const sgxsim::PageTable& pt) {
  std::uint64_t credited = 0;
  for (const PageNum page : visit_) {
    if (!contains(page)) {
      continue;  // judged earlier in this scan, or evicted since queued
    }
    if (page >= pt.elrange_pages() || !pt.present(page)) {
      // Evicted between notifications; treat as unused (conservative).
      erase(page);
      ++evicted_unused_;
      continue;
    }
    const auto& entry = pt.entry(page);
    if (entry.accessed || !entry.preloaded) {
      // The access bit is set, or the hardware already cleared the
      // preloaded flag on first touch (the bit may have been consumed by a
      // CLOCK sweep since): the preload paid off.
      erase(page);
      ++acc_preload_counter_;
      ++credited;
    }
  }
  visit_.clear();
  return credited;
}

std::vector<PageNum> PreloadedPageList::pages() const {
  std::vector<PageNum> out;
  out.reserve(tracked_);
  for (std::uint64_t w = 0; w < bits_.size(); ++w) {
    for (std::uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
      out.push_back((w << 6) + static_cast<PageNum>(std::countr_zero(bits)));
    }
  }
  return out;
}

void PreloadedPageList::reset() {
  bits_.clear();
  tracked_ = 0;
  visit_.clear();
  preload_counter_ = 0;
  acc_preload_counter_ = 0;
  evicted_unused_ = 0;
}

void PreloadedPageList::save(snapshot::Writer& w) const {
  w.u64("ppl.preload_counter", preload_counter_);
  w.u64("ppl.acc_preload_counter", acc_preload_counter_);
  w.u64("ppl.evicted_unused", evicted_unused_);
  w.u64_vec("ppl.pages", pages());
}

void PreloadedPageList::load(snapshot::Reader& r, PageNum page_limit) {
  preload_counter_ = r.u64("ppl.preload_counter");
  acc_preload_counter_ = r.u64("ppl.acc_preload_counter");
  evicted_unused_ = r.u64("ppl.evicted_unused");
  std::vector<std::uint64_t> pages = r.u64_vec("ppl.pages");
  for (std::size_t i = 0; i < pages.size(); ++i) {
    SGXPL_CHECK_MSG(pages[i] < page_limit,
                    "snapshot preloaded-page list holds page "
                        << pages[i] << " outside its " << page_limit
                        << "-page ELRANGE");
    SGXPL_CHECK_MSG(i == 0 || pages[i] > pages[i - 1],
                    "snapshot preloaded-page list is not strictly ascending");
  }
  bits_.clear();
  tracked_ = 0;
  for (const PageNum page : pages) insert(page);
  // The visit queue is not serialized: re-judge every tracked page at the
  // next scan, which is what the uninterrupted run's queue guarantees for
  // the pages that needed it and a no-op for the rest.
  visit_ = std::move(pages);
}

}  // namespace sgxpl::dfp
