#include "sgxsim/backing_store.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

namespace {
constexpr std::uint64_t kMaxVersion = std::numeric_limits<std::uint32_t>::max();
}  // namespace

BackingStore::BackingStore(PageNum elrange_pages)
    : versions_(elrange_pages, 0), dirty_flag_(elrange_pages, false) {}

void BackingStore::mark_dirty(PageNum page) {
  if (!dirty_flag_[page]) {
    dirty_flag_[page] = true;
    dirty_list_.push_back(page);
  }
}

std::uint64_t BackingStore::evict(PageNum page) {
  SGXPL_CHECK_MSG(page < versions_.size(),
                  "EWB of page " << page << " outside the "
                                 << versions_.size() << "-page ELRANGE");
  std::uint32_t& version = versions_[page];
  SGXPL_CHECK_MSG(version < kMaxVersion,
                  "EWB of page " << page
                                 << " would overflow its 32-bit version");
  ++version;
  ++total_evictions_;
  ++gen_;
  mark_dirty(page);
  return version;
}

std::uint64_t BackingStore::load(PageNum page) const {
  ++total_loads_;
  ++gen_;  // total_loads_ is serialized state, so a load changes the frame
  return eviction_count(page);
}

std::uint64_t BackingStore::eviction_count(PageNum page) const {
  return page < versions_.size() ? versions_[page] : 0;
}

void BackingStore::restore_slot(PageNum page, std::uint64_t version) {
  SGXPL_CHECK_MSG(page < versions_.size(),
                  "snapshot backing store holds page "
                      << page << " outside the " << versions_.size()
                      << "-page ELRANGE");
  SGXPL_CHECK_MSG(version > 0,
                  "snapshot backing store holds version 0 for page " << page);
  SGXPL_CHECK_MSG(version <= kMaxVersion,
                  "snapshot backing store holds version "
                      << version << " for page " << page
                      << ", above the 32-bit version range");
  versions_[page] = static_cast<std::uint32_t>(version);
  mark_dirty(page);
}

void BackingStore::save(snapshot::Writer& w) const {
  w.u64("backing.total_evictions", total_evictions_);
  w.u64("backing.total_loads", total_loads_);
  std::vector<std::uint64_t> pages;
  std::vector<std::uint64_t> versions;
  for (PageNum page = 0; page < versions_.size(); ++page) {
    if (versions_[page] != 0) {
      pages.push_back(page);
      versions.push_back(versions_[page]);
    }
  }
  w.u64_vec("backing.pages", pages);
  w.u64_vec("backing.versions", versions);
}

void BackingStore::load(snapshot::Reader& r) {
  total_evictions_ = r.u64("backing.total_evictions");
  total_loads_ = r.u64("backing.total_loads");
  const std::vector<std::uint64_t> pages = r.u64_vec("backing.pages");
  const std::vector<std::uint64_t> versions = r.u64_vec("backing.versions");
  SGXPL_CHECK_MSG(pages.size() == versions.size(),
                  "snapshot backing store page/version lists are misaligned");
  // Whole-store load: every populated slot is dirty until clear_dirty().
  ++gen_;
  clear_dirty();
  std::fill(versions_.begin(), versions_.end(), 0);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    restore_slot(pages[i], versions[i]);
  }
}

void BackingStore::save_delta(snapshot::Writer& w) const {
  w.u64("backing.total_evictions", total_evictions_);
  w.u64("backing.total_loads", total_loads_);
  std::vector<std::uint64_t> pages(dirty_list_.begin(), dirty_list_.end());
  std::sort(pages.begin(), pages.end());
  std::vector<std::uint64_t> versions;
  versions.reserve(pages.size());
  for (const std::uint64_t page : pages) versions.push_back(versions_[page]);
  w.u64_vec("backing.delta_pages", pages);
  w.u64_vec("backing.delta_versions", versions);
}

void BackingStore::apply_delta(snapshot::Reader& r) {
  total_evictions_ = r.u64("backing.total_evictions");
  total_loads_ = r.u64("backing.total_loads");
  const std::vector<std::uint64_t> pages = r.u64_vec("backing.delta_pages");
  const std::vector<std::uint64_t> versions =
      r.u64_vec("backing.delta_versions");
  SGXPL_CHECK_MSG(pages.size() == versions.size(),
                  "snapshot backing-store delta page/version lists are "
                  "misaligned");
  for (std::size_t i = 0; i < pages.size(); ++i) {
    SGXPL_CHECK_MSG(i == 0 || pages[i] > pages[i - 1],
                    "snapshot backing-store delta pages are not sorted");
    restore_slot(pages[i], versions[i]);
  }
  ++gen_;
}

void BackingStore::clear_dirty() {
  for (const PageNum page : dirty_list_) dirty_flag_[page] = false;
  dirty_list_.clear();
}

}  // namespace sgxpl::sgxsim
