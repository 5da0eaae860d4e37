#include "sgxsim/page_table.h"

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

PageTable::PageTable(PageNum elrange_pages)
    : size_(elrange_pages), entries_(elrange_pages),
      present_((elrange_pages + 63) / 64, 0),
      dirty_(elrange_pages) {
  SGXPL_CHECK_MSG(elrange_pages > 0, "ELRANGE must contain at least one page");
}

void PageTable::mark_dirty(PageNum page) {
  ++gen_;
  dirty_.mark(page);
}

void PageTable::map(PageNum page, SlotIndex slot, bool via_preload) {
  auto& e = mutable_entry(page);
  SGXPL_CHECK_MSG(!present(page), "double map of page " << page);
  set_present(page, true);
  e.slot = slot;
  e.accessed = false;
  e.preloaded = via_preload;
  ++resident_;
  mark_dirty(page);
  if (watch_ != nullptr) watch_->mark(page);
}

PageTableEntry PageTable::unmap(PageNum page) {
  auto& e = mutable_entry(page);
  SGXPL_CHECK_MSG(present(page), "unmap of non-resident page " << page);
  const PageTableEntry prior = e;
  e = PageTableEntry{};
  set_present(page, false);
  SGXPL_CHECK(resident_ > 0);
  --resident_;
  mark_dirty(page);
  if (watch_ != nullptr) watch_->mark(page);
  return prior;
}

bool PageTable::test_and_clear_accessed(PageNum page) {
  auto& e = mutable_entry(page);
  const bool was = e.accessed;
  if (was) mark_dirty(page);
  e.accessed = false;
  return was;
}

namespace {
// One u64 per entry: slot in the low 32 bits, the three flags above them.
constexpr std::uint64_t kPresentBit = 1ull << 32;
constexpr std::uint64_t kAccessedBit = 1ull << 33;
constexpr std::uint64_t kPreloadedBit = 1ull << 34;

std::uint64_t pack(const PageTableEntry& e, bool present) {
  std::uint64_t v = e.slot;
  if (present) v |= kPresentBit;
  if (e.accessed) v |= kAccessedBit;
  if (e.preloaded) v |= kPreloadedBit;
  return v;
}

PageTableEntry unpack(std::uint64_t v) {
  PageTableEntry e;
  e.slot = static_cast<SlotIndex>(v & 0xFFFFFFFFull);
  e.accessed = (v & kAccessedBit) != 0;
  e.preloaded = (v & kPreloadedBit) != 0;
  return e;
}
}  // namespace

void PageTable::save(snapshot::Writer& w) const {
  w.u64("pt.pages", size_);
  w.u64("pt.resident", resident_);
  std::vector<std::uint64_t> packed(entries_.size());
  for (PageNum p = 0; p < size_; ++p) {
    packed[p] = pack(entries_[p], present(p));
  }
  w.u64_vec("pt.entries", packed);
}

void PageTable::load(snapshot::Reader& r) {
  const std::uint64_t pages = r.u64("pt.pages");
  SGXPL_CHECK_MSG(pages == size_,
                  "snapshot page table covers " << pages
                      << " ELRANGE pages but this enclave has " << size_);
  const std::uint64_t resident = r.u64("pt.resident");
  const std::vector<std::uint64_t> packed = r.u64_vec("pt.entries");
  SGXPL_CHECK_MSG(packed.size() == entries_.size(),
                  "snapshot page table entry count " << packed.size()
                      << " does not match ELRANGE size " << entries_.size());
  std::uint64_t check_resident = 0;
  for (PageNum p = 0; p < size_; ++p) {
    entries_[p] = unpack(packed[p]);
    const bool on = (packed[p] & kPresentBit) != 0;
    set_present(p, on);
    if (on) ++check_resident;
  }
  SGXPL_CHECK_MSG(check_resident == resident,
                  "snapshot page table is inconsistent: " << check_resident
                      << " present entries but resident count " << resident);
  resident_ = resident;
  // A whole-table load invalidates any delta baseline a caller may hold;
  // treat every page as dirty until the next clear_dirty().
  ++gen_;
  dirty_.mark_all();
}

void PageTable::save_delta(snapshot::Writer& w) const {
  w.u64("pt.pages", size_);
  w.u64("pt.resident", resident_);
  const std::vector<std::uint64_t> dirty = dirty_.indices();
  w.u64_vec("pt.delta_runs", snapshot::encode_runs(dirty));
  std::vector<std::uint64_t> packed;
  packed.reserve(dirty.size());
  for (const std::uint64_t page : dirty) {
    packed.push_back(pack(entries_[page], present(page)));
  }
  w.u64_vec("pt.delta_entries", packed);
}

void PageTable::apply_delta(snapshot::Reader& r) {
  const std::uint64_t pages = r.u64("pt.pages");
  SGXPL_CHECK_MSG(pages == size_,
                  "snapshot page-table delta covers " << pages
                      << " ELRANGE pages but this enclave has " << size_);
  const std::uint64_t resident = r.u64("pt.resident");
  const std::vector<std::uint64_t> ids =
      snapshot::decode_runs(r.u64_vec("pt.delta_runs"), size_, "page-table");
  const std::vector<std::uint64_t> packed = r.u64_vec("pt.delta_entries");
  SGXPL_CHECK_MSG(packed.size() == ids.size(),
                  "snapshot page-table delta holds " << packed.size()
                      << " entries for " << ids.size() << " pages");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const PageNum page = ids[i];
    const bool on = (packed[i] & kPresentBit) != 0;
    if (present(page) && !on) {
      SGXPL_CHECK(resident_ > 0);
      --resident_;
    } else if (!present(page) && on) {
      ++resident_;
    }
    entries_[page] = unpack(packed[i]);
    set_present(page, on);
    mark_dirty(page);
  }
  SGXPL_CHECK_MSG(resident_ == resident,
                  "snapshot page-table delta is inconsistent: replay yields "
                      << resident_ << " resident pages, the frame recorded "
                      << resident);
}

void PageTable::clear_dirty() { dirty_.clear(); }

}  // namespace sgxpl::sgxsim
