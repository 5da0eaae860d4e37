// Mutation battery for Driver::check_invariants(), the predicate the online
// watchdog and every snapshot load run. A driver frame is saved, decoded
// field by field, corrupted in one way the predicate must catch, re-encoded
// with valid CRCs and loaded into a fresh driver. The load must throw a
// CheckFailure that names the same violation — the same page, slot or
// tenant — as a plain O(ELRANGE) scalar sweep over the frame's columns,
// kept here as the reference the word-parallel sweep must agree with.
// Seeded random valid states must pass both.
#include "sgxsim/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {
namespace {

// Page-table entry packing of the PGTB section (slot in the low 32 bits).
constexpr std::uint64_t kPresentBit = 1ull << 32;
constexpr std::uint64_t kSlotMask = 0xFFFFFFFFull;

/// Shape of one driver under test; `tenants` > 0 engages the elastic EPC
/// with that many equal ELRANGE slices.
struct Shape {
  PageNum elrange = 0;
  PageNum epc = 0;
  std::size_t tenants = 0;
  /// Seeded accesses after the sequential warm-up.
  std::uint64_t accesses = 0;
};

CostModel test_costs() {
  CostModel c;
  c.scan_period = 200'000;
  return c;
}

std::unique_ptr<Driver> make_driver(const Shape& s) {
  EnclaveConfig cfg;
  cfg.elrange_pages = s.elrange;
  cfg.epc_pages = s.epc;
  if (s.tenants > 0) {
    cfg.elastic.enabled = true;
    cfg.elastic.floor_pages = 4;
  }
  auto d = std::make_unique<Driver>(cfg, test_costs());
  if (s.tenants > 0) {
    std::vector<std::pair<PageNum, PageNum>> geometry;
    const PageNum slice = s.elrange / s.tenants;
    for (std::size_t t = 0; t < s.tenants; ++t) {
      const PageNum lo = slice * t;
      const PageNum hi = t + 1 == s.tenants ? s.elrange : lo + slice;
      geometry.emplace_back(lo, hi - lo);
    }
    d->set_elastic_geometry(geometry);
  }
  return d;
}

/// A saved driver frame. A sequential warm-up fills the EPC from page 0
/// (whole 64-page words resident), then seeded accesses, mostly to a hot
/// set, make it evict and leave a scattered mix of resident pages.
std::vector<std::uint8_t> run_and_save(const Shape& s, std::uint64_t seed) {
  auto d = make_driver(s);
  Rng rng(seed);
  const PageNum hot = std::max<PageNum>(1, s.elrange / 3);
  const PageNum warm = std::min(s.elrange, s.epc);
  Cycles now = 0;
  for (std::uint64_t i = 0; i < warm + s.accesses; ++i) {
    PageNum page = i;
    if (i >= warm) {
      page = rng.bounded(4) == 0 ? rng.bounded(s.elrange) : rng.bounded(hot);
    }
    ProcessId pid = 0;
    if (s.tenants > 0) {
      pid = static_cast<ProcessId>(
          std::min<PageNum>(page / (s.elrange / s.tenants), s.tenants - 1));
    }
    now = d->access(page, now, pid).completion + 1'000;
  }
  d->check_invariants();
  snapshot::Writer w;
  d->save_sections(w);
  return w.finish();
}

/// A driver frame decoded into generic fields, editable by label and
/// re-encodable byte-for-byte (section CRCs are recomputed).
struct Frame {
  std::vector<std::pair<std::string, std::vector<snapshot::FieldView>>>
      sections;

  static Frame decode(const std::vector<std::uint8_t>& bytes) {
    Frame f;
    snapshot::Reader r(bytes);
    while (r.sections_entered() < r.section_count()) {
      f.sections.emplace_back(r.enter_any_section(),
                              std::vector<snapshot::FieldView>{});
      while (r.more_fields()) {
        f.sections.back().second.push_back(r.next_field());
      }
      r.leave_section();
    }
    return f;
  }

  std::vector<std::uint8_t> encode() const {
    snapshot::Writer w;
    for (const auto& [tag, fields] : sections) {
      w.begin_section(tag);
      for (const auto& field : fields) {
        w.field(field);
      }
      w.end_section();
    }
    return w.finish();
  }

  const snapshot::FieldView* find(std::string_view label) const {
    for (const auto& [tag, fields] : sections) {
      for (const auto& field : fields) {
        if (field.label == label) {
          return &field;
        }
      }
    }
    return nullptr;
  }
  bool has(std::string_view label) const { return find(label) != nullptr; }
  const snapshot::FieldView& at(std::string_view label) const {
    const snapshot::FieldView* field = find(label);
    SGXPL_CHECK_MSG(field != nullptr, "frame has no field '" << label << "'");
    return *field;
  }
  snapshot::FieldView& at(std::string_view label) {
    return const_cast<snapshot::FieldView&>(std::as_const(*this).at(label));
  }

  std::uint64_t& u64(std::string_view label) { return at(label).u64v; }
  std::vector<std::uint64_t>& vec(std::string_view label) {
    return at(label).vecv;
  }

  bool bitmap_test(PageNum p) const {
    return (at("bitmap.words").vecv[p >> 6] >> (p & 63)) & 1u;
  }
  void bitmap_flip(PageNum p) {
    vec("bitmap.words")[p >> 6] ^= 1ull << (p & 63);
  }
  bool present(PageNum p) const {
    return (at("pt.entries").vecv[p] & kPresentBit) != 0;
  }
  std::uint64_t slot(PageNum p) const {
    return at("pt.entries").vecv[p] & kSlotMask;
  }
  void set_slot(PageNum p, std::uint64_t slot) {
    auto& e = vec("pt.entries")[p];
    e = (e & ~kSlotMask) | slot;
  }
};

/// The reference: the scalar O(ELRANGE) sweep check_invariants() ran before
/// it went word-parallel, evaluated on the frame's columns. Returns the
/// message of the first violated check (empty when every check holds).
std::string reference_violation(const Frame& f) {
  std::ostringstream os;
  const std::uint64_t resident = f.at("pt.resident").u64v;
  const std::uint64_t used = f.at("epc.used").u64v;
  const auto& words = f.at("bitmap.words").vecv;
  std::uint64_t bitmap_count = 0;
  for (const std::uint64_t w : words) {
    bitmap_count += static_cast<std::uint64_t>(std::popcount(w));
  }
  if (resident != used) {
    os << "page table holds " << resident
       << " resident pages but the EPC holds " << used;
    return os.str();
  }
  if (bitmap_count != used) {
    os << "presence bitmap holds " << bitmap_count
       << " pages but the EPC holds " << used;
    return os.str();
  }
  const auto& slot_to_page = f.at("epc.slot_to_page").vecv;
  const bool elastic = f.has("el.resident");
  const std::vector<std::uint64_t> no_tenants;
  const auto& lo = elastic ? f.at("el.lo").vecv : no_tenants;
  const auto& pages = elastic ? f.at("el.pages").vecv : no_tenants;
  std::vector<std::uint64_t> by_tenant(lo.size(), 0);
  std::uint64_t present = 0;
  const PageNum elrange = f.at("pt.entries").vecv.size();
  for (PageNum p = 0; p < elrange; ++p) {
    if (!f.present(p)) {
      if (f.bitmap_test(p)) {
        os << "page " << p << " is in the presence bitmap but not resident";
        return os.str();
      }
      continue;
    }
    ++present;
    const std::uint64_t slot = f.slot(p);
    if (slot == kInvalidSlot) {
      os << "present page " << p << " has no EPC slot";
      return os.str();
    }
    if (slot >= slot_to_page.size()) {
      return "slot < capacity_";  // Epc::page_at's range check
    }
    if (slot_to_page[slot] != p) {
      os << "slot " << slot << " does not hold page " << p;
      return os.str();
    }
    if (!f.bitmap_test(p)) {
      os << "present page " << p << " is missing from the presence bitmap";
      return os.str();
    }
    if (elastic) {
      std::size_t t = 0;
      while (t < lo.size() && p >= lo[t] + pages[t]) ++t;
      if (t == lo.size()) {
        os << "page " << p << " outside every elastic tenant range";
        return os.str();
      }
      ++by_tenant[t];
    }
  }
  if (present != used) {
    os << "page table marks " << present << " pages present but the EPC holds "
       << used;
    return os.str();
  }
  const auto& el_resident = elastic ? f.at("el.resident").vecv : no_tenants;
  for (std::size_t t = 0; t < by_tenant.size(); ++t) {
    if (by_tenant[t] != el_resident[t]) {
      os << "elastic resident count for tenant " << t << " is "
         << el_resident[t] << " but the page table holds " << by_tenant[t];
      return os.str();
    }
  }
  return {};
}

/// Load `bytes` into a fresh driver of shape `s`; the CheckFailure message,
/// or nullopt when the load (and so check_invariants) accepts it.
std::optional<std::string> load_error(const Shape& s,
                                      const std::vector<std::uint8_t>& bytes) {
  auto d = make_driver(s);
  snapshot::Reader r(bytes);
  try {
    d->load_sections(r);
  } catch (const CheckFailure& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

/// True when `what` (a CheckFailure message) reports exactly `expected`.
bool names(const std::string& what, const std::string& expected) {
  if (expected == "slot < capacity_") {
    return what.find("CHECK failed: slot < capacity_") != std::string::npos;
  }
  const std::string tail = " — " + expected;
  return what.size() >= tail.size() &&
         what.compare(what.size() - tail.size(), tail.size(), tail) == 0;
}

std::vector<PageNum> pages_where(const Frame& f, bool resident) {
  std::vector<PageNum> out;
  const PageNum elrange = f.at("pt.entries").vecv.size();
  for (PageNum p = 0; p < elrange; ++p) {
    if (f.present(p) == resident) {
      out.push_back(p);
    }
  }
  return out;
}

PageNum pick(Rng& rng, const std::vector<PageNum>& from) {
  return from[rng.bounded(from.size())];
}

/// One corruption class: edits a valid frame in place.
struct Mutation {
  const char* name;
  bool needs_elastic;
  void (*apply)(Frame& f, Rng& rng);
};

const Mutation kMutations[] = {
    {"stray bitmap bit", false,
     [](Frame& f, Rng& rng) {
       f.bitmap_flip(pick(rng, pages_where(f, false)));
     }},
    {"resident page's bitmap bit cleared", false,
     [](Frame& f, Rng& rng) {
       f.bitmap_flip(pick(rng, pages_where(f, true)));
     }},
    {"bitmap bit moved off a resident page", false,
     [](Frame& f, Rng& rng) {
       f.bitmap_flip(pick(rng, pages_where(f, false)));
       f.bitmap_flip(pick(rng, pages_where(f, true)));
     }},
    {"present page points at another page's slot", false,
     [](Frame& f, Rng& rng) {
       const auto resident = pages_where(f, true);
       const PageNum a = pick(rng, resident);
       PageNum b = pick(rng, resident);
       while (b == a) b = pick(rng, resident);
       f.set_slot(a, f.slot(b));
     }},
    {"two pages share a slot", false,
     [](Frame& f, Rng& rng) {
       const auto resident = pages_where(f, true);
       const PageNum a = pick(rng, resident);
       PageNum b = pick(rng, resident);
       while (b == a) b = pick(rng, resident);
       f.vec("epc.slot_to_page")[f.slot(b)] = a;
     }},
    {"present page's slot past the EPC", false,
     [](Frame& f, Rng& rng) {
       f.set_slot(pick(rng, pages_where(f, true)),
                  f.at("epc.slot_to_page").vecv.size() + rng.bounded(8));
     }},
    {"present page with no slot", false,
     [](Frame& f, Rng& rng) {
       f.set_slot(pick(rng, pages_where(f, true)), kInvalidSlot);
     }},
    {"present flag flipped, resident count adjusted", false,
     [](Frame& f, Rng& rng) {
       const bool on = rng.bounded(2) == 0;
       f.vec("pt.entries")[pick(rng, pages_where(f, !on))] ^= kPresentBit;
       if (on) {
         ++f.u64("pt.resident");
       } else {
         --f.u64("pt.resident");
       }
     }},
    {"present flag moved to an absent page", false,
     [](Frame& f, Rng& rng) {
       const PageNum from = pick(rng, pages_where(f, true));
       const PageNum to = pick(rng, pages_where(f, false));
       f.vec("pt.entries")[from] ^= kPresentBit;
       f.vec("pt.entries")[to] ^= kPresentBit;
       f.set_slot(to, f.slot(from));
     }},
    {"elastic resident count skewed", true,
     [](Frame& f, Rng& rng) {
       auto& resident = f.vec("el.resident");
       const std::size_t t = rng.bounded(resident.size());
       if (resident[t] > 0 && rng.bounded(2) == 0) {
         --resident[t];
       } else {
         ++resident[t];
       }
     }},
};

const Shape kShapes[] = {
    {.elrange = 64, .epc = 8, .tenants = 0, .accesses = 256},
    {.elrange = 300, .epc = 40, .tenants = 0, .accesses = 1200},
    {.elrange = 1000, .epc = 130, .tenants = 0, .accesses = 4000},
    {.elrange = 301, .epc = 64, .tenants = 3, .accesses = 1200},
    // Warm-up only: pages [0, 196) resident, three full words.
    {.elrange = 200, .epc = 196, .tenants = 0, .accesses = 0},
};

TEST(InvariantSweep, EveryMutationIsCaughtAtTheReferenceViolation) {
  for (const Shape& shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto pristine = run_and_save(shape, seed);
      for (const Mutation& m : kMutations) {
        if (m.needs_elastic && shape.tenants == 0) {
          continue;
        }
        Frame f = Frame::decode(pristine);
        Rng rng(seed * 7919 + shape.elrange);
        m.apply(f, rng);
        const std::string expected = reference_violation(f);
        const std::string where = std::string(m.name) + ", elrange " +
                                  std::to_string(shape.elrange) + ", seed " +
                                  std::to_string(seed);
        ASSERT_FALSE(expected.empty()) << "reference missed: " << where;
        const auto got = load_error(shape, f.encode());
        ASSERT_TRUE(got.has_value()) << "load accepted: " << where;
        EXPECT_TRUE(names(*got, expected))
            << where << "\n  expected: " << expected << "\n  got:      "
            << *got;
      }
    }
  }
}

TEST(InvariantSweep, RandomValidStatesPassBothSweeps) {
  Rng shapes(0x5EED);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Shape s;
    s.elrange = 1 + shapes.bounded(700);
    s.epc = 1 + shapes.bounded(std::min<PageNum>(s.elrange, 200));
    if (s.elrange >= 60 && s.epc >= 24 && shapes.bounded(3) == 0) {
      s.tenants = 1 + shapes.bounded(3);
    }
    s.accesses = shapes.bounded(3000);
    const auto bytes = run_and_save(s, seed);
    EXPECT_EQ(reference_violation(Frame::decode(bytes)), "")
        << "seed " << seed;
    const auto err = load_error(s, bytes);
    EXPECT_FALSE(err.has_value()) << "seed " << seed << ": "
                                  << err.value_or("");
    // Decode + re-encode is byte-identical, so the battery above corrupts
    // only what each mutation names.
    EXPECT_EQ(Frame::decode(bytes).encode(), bytes) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sgxpl::sgxsim
