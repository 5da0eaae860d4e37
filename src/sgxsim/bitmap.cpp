#include "sgxsim/bitmap.h"

#include <bit>

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

PresenceBitmap::PresenceBitmap(PageNum pages)
    : pages_(pages), words_((pages + 63) / 64, 0),
      dirty_(words_.size()) {
  SGXPL_CHECK(pages > 0);
}

void PresenceBitmap::mark_dirty(PageNum page) {
  ++gen_;
  dirty_.mark(page >> 6);
  if (watch_ != nullptr) watch_->mark(page);
}

std::uint64_t PresenceBitmap::popcount() const noexcept {
  std::uint64_t n = 0;
  for (const auto w : words_) {
    n += static_cast<std::uint64_t>(std::popcount(w));
  }
  return n;
}

void PresenceBitmap::save(snapshot::Writer& w) const {
  w.u64("bitmap.pages", pages_);
  w.u64_vec("bitmap.words", words_);
}

void PresenceBitmap::load(snapshot::Reader& r) {
  const std::uint64_t pages = r.u64("bitmap.pages");
  SGXPL_CHECK_MSG(pages == pages_,
                  "snapshot bitmap covers " << pages
                      << " pages but this bitmap has " << pages_);
  std::vector<std::uint64_t> words = r.u64_vec("bitmap.words");
  SGXPL_CHECK_MSG(words.size() == words_.size(),
                  "snapshot bitmap word count does not match");
  words_ = std::move(words);
  count_ = popcount();
  // Whole-bitmap load: treat every word as dirty until the next
  // clear_dirty() so a stale delta baseline cannot under-report changes.
  ++gen_;
  dirty_.mark_all();
}

void PresenceBitmap::save_delta(snapshot::Writer& w) const {
  w.u64("bitmap.pages", pages_);
  const std::vector<std::uint64_t> dirty = dirty_.indices();
  w.u64_vec("bitmap.delta_runs", snapshot::encode_runs(dirty));
  std::vector<std::uint64_t> values;
  values.reserve(dirty.size());
  for (const std::uint64_t i : dirty) values.push_back(words_[i]);
  w.u64_vec("bitmap.delta_words", values);
}

void PresenceBitmap::apply_delta(snapshot::Reader& r) {
  const std::uint64_t pages = r.u64("bitmap.pages");
  SGXPL_CHECK_MSG(pages == pages_,
                  "snapshot bitmap delta covers " << pages
                      << " pages but this bitmap has " << pages_);
  const std::vector<std::uint64_t> ids = snapshot::decode_runs(
      r.u64_vec("bitmap.delta_runs"), words_.size(), "bitmap");
  const std::vector<std::uint64_t> values = r.u64_vec("bitmap.delta_words");
  SGXPL_CHECK_MSG(values.size() == ids.size(),
                  "snapshot bitmap delta holds " << values.size()
                      << " words for " << ids.size() << " indices");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    count_ -= static_cast<std::uint64_t>(std::popcount(words_[ids[i]]));
    count_ += static_cast<std::uint64_t>(std::popcount(values[i]));
    words_[ids[i]] = values[i];
    ++gen_;
    dirty_.mark(ids[i]);
  }
}

void PresenceBitmap::clear_dirty() { dirty_.clear(); }

}  // namespace sgxpl::sgxsim
