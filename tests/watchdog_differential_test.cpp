// Differential battery for the incremental watchdog. The driver's full
// invariant sweep (Driver::check_invariants) is the reference; the
// incremental check re-proves only the pages the page table, EPC and
// presence bitmap reported as changed since the previous proof.
//
// Real driver stacks — DFP and SIP traffic, the hardened channel with
// admission, an elastic three-tenant host — run under every chaos class and
// are killed and restored along the way. A probe policy sits in front of
// the DFP engine and, at every service-thread tick:
//   - runs both checks: they must agree;
//   - compares every page's checked state (residency, slot, owner of that
//     slot, bitmap bit) against the state at the previous proof: every page
//     that differs must be in the changed set (the exactness argument).
// Mutants then corrupt the live state at a chosen tick through production
// mutators called with wrong arguments. Both checks must report the same
// violation, and the driver's own watchdog must throw it at that tick.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/dirty_set.h"
#include "common/rng.h"
#include "dfp/dfp_engine.h"
#include "inject/chaos_plan.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

/// The state behind Driver's checks, reachable from tests only.
class DriverTestPeer {
 public:
  explicit DriverTestPeer(Driver& d) : d_(d) {}

  /// The CheckFailure message of the full sweep / incremental check, or
  /// empty when it passes.
  std::string full() const {
    return failure([this] { d_.check_invariants(); });
  }
  std::string incremental() const {
    return failure([this] { d_.check_changed(); });
  }

  const DirtySet& changed() const { return d_.changed_; }
  PageTable& page_table() { return d_.page_table_; }
  Epc& epc() { return d_.epc_; }
  PresenceBitmap& bitmap() { return d_.bitmap_; }
  ElasticEpcController& elastic() { return d_.elastic_; }

 private:
  template <typename F>
  static std::string failure(F&& check) {
    try {
      check();
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return {};
  }

  Driver& d_;
};

namespace {

/// One page's checked state: what any per-page clause reads.
struct PageState {
  bool present = false;
  SlotIndex slot = kInvalidSlot;
  PageNum owner = kInvalidPage;  // EPC owner of `slot` (present pages)
  bool marked = false;           // presence-bitmap bit
  bool operator==(const PageState&) const = default;
};

std::vector<PageState> page_states(const Driver& d) {
  std::vector<PageState> out(d.config().elrange_pages);
  for (PageNum p = 0; p < out.size(); ++p) {
    PageState& s = out[p];
    s.present = d.page_table().present(p);
    s.marked = d.bitmap().test(p);
    if (s.present) {
      s.slot = d.page_table().entry(p).slot;
      s.owner = s.slot < d.epc().capacity() ? d.epc().page_at(s.slot)
                                            : kInvalidPage;
    }
  }
  return out;
}

/// A corruption through production mutators called with wrong arguments.
/// Returns false when the live state offers no place to apply it.
struct Mutant {
  const char* name;
  bool needs_elastic;
  bool (*apply)(DriverTestPeer& peer, const Driver& d, Rng& rng);
};

std::vector<PageNum> pages_where(const Driver& d, bool resident) {
  std::vector<PageNum> out;
  for (PageNum p = 0; p < d.config().elrange_pages; ++p) {
    if (d.page_table().present(p) == resident) out.push_back(p);
  }
  return out;
}

PageNum pick(Rng& rng, const std::vector<PageNum>& from) {
  return from[rng.bounded(from.size())];
}

/// Two distinct resident pages, or false.
bool two_resident(const Driver& d, Rng& rng, PageNum& a, PageNum& b) {
  const auto resident = pages_where(d, true);
  if (resident.size() < 2) return false;
  a = pick(rng, resident);
  do {
    b = pick(rng, resident);
  } while (b == a);
  return true;
}

const Mutant kMutants[] = {
    {"map with another page's slot (remap, counts agree)", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       PageNum a = 0, b = 0;
       if (!two_resident(d, rng, a, b)) return false;
       const SlotIndex slot = d.page_table().entry(b).slot;
       peer.page_table().unmap(a);
       peer.page_table().map(a, slot, false);
       return true;
     }},
    {"map of an absent page with another page's slot", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto absent = pages_where(d, false);
       const auto resident = pages_where(d, true);
       if (absent.empty() || resident.empty()) return false;
       peer.page_table().map(pick(rng, absent),
                             d.page_table().entry(pick(rng, resident)).slot,
                             true);
       return true;
     }},
    {"mapping moved to an absent page (unmap, map its slot elsewhere)", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto absent = pages_where(d, false);
       const auto resident = pages_where(d, true);
       if (absent.empty() || resident.empty()) return false;
       const PageNum from = pick(rng, resident);
       const SlotIndex slot = d.page_table().entry(from).slot;
       peer.page_table().unmap(from);
       peer.page_table().map(pick(rng, absent), slot, false);
       return true;
     }},
    {"bitmap.set on an absent page", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto absent = pages_where(d, false);
       if (absent.empty()) return false;
       peer.bitmap().set(pick(rng, absent));
       return true;
     }},
    {"bitmap bit moved from a resident to an absent page", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto absent = pages_where(d, false);
       const auto resident = pages_where(d, true);
       if (absent.empty() || resident.empty()) return false;
       peer.bitmap().set(pick(rng, absent));
       peer.bitmap().clear(pick(rng, resident));
       return true;
     }},
    {"bitmap.clear on a resident page", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto resident = pages_where(d, true);
       if (resident.empty()) return false;
       peer.bitmap().clear(pick(rng, resident));
       return true;
     }},
    {"Epc::release without unmap", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto resident = pages_where(d, true);
       if (resident.empty()) return false;
       peer.epc().release(d.page_table().entry(pick(rng, resident)).slot);
       return true;
     }},
    {"Epc::release without unmap, slot reallocated", false,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto absent = pages_where(d, false);
       const auto resident = pages_where(d, true);
       if (absent.empty() || resident.empty()) return false;
       peer.epc().release(d.page_table().entry(pick(rng, resident)).slot);
       peer.epc().allocate(pick(rng, absent));
       return true;
     }},
    {"elastic resident count skewed", true,
     [](DriverTestPeer& peer, const Driver& d, Rng& rng) {
       const auto resident = pages_where(d, true);
       if (resident.empty()) return false;
       const PageNum p = pick(rng, resident);
       if (rng.bounded(2) == 0) {
         peer.elastic().note_mapped(p);
       } else {
         peer.elastic().note_unmapped(p);
       }
       return true;
     }},
};

/// What the probe saw over a run.
struct Tally {
  std::uint64_t ticks = 0;
  std::uint64_t disagreements = 0;
  std::uint64_t uncovered = 0;   // changed pages missing from the set
  std::uint64_t covered = 0;     // changed pages found in the set
  std::string first;

  void fail(std::uint64_t& counter, const std::string& what) {
    if (disagreements + uncovered == 0) first = what;
    ++counter;
  }
};

/// A planned corruption: apply `mutant` at the tick that makes
/// stats().scans == `at_scan`.
struct Plan {
  const Mutant* mutant = nullptr;
  std::uint64_t at_scan = 0;
  std::uint64_t seed = 0;
  // Filled in by the probe.
  bool applied = false;
  std::uint64_t applied_scan = 0;
  std::string full;
  std::string incremental;
};

/// Sits in front of the DFP engine; at every tick checks the driver as the
/// file comment describes, before the engine's own scan.
class Probe final : public PreloadPolicy {
 public:
  Probe(PreloadPolicy& inner, Tally& tally) : inner_(inner), tally_(tally) {}

  void attach(Driver& d, Plan* plan) {
    driver_ = &d;
    plan_ = plan;
    restart_proof();
  }
  /// The driver just proved its whole state (construction or a load).
  void restart_proof() {
    proved_ = page_states(*driver_);
    checks_ = driver_->stats().watchdog_checks;
  }

  std::vector<PageNum> on_fault(ProcessId pid, PageNum page,
                                Cycles now) override {
    return inner_.on_fault(pid, page, now);
  }
  void on_preload_completed(PageNum page, Cycles now) override {
    inner_.on_preload_completed(page, now);
  }
  void on_preloads_aborted(const std::vector<PageNum>& pages,
                           Cycles now) override {
    inner_.on_preloads_aborted(pages, now);
  }
  void on_preloads_shed(const std::vector<PageNum>& pages,
                        Cycles now) override {
    inner_.on_preloads_shed(pages, now);
  }
  void on_preloaded_page_evicted(PageNum page, bool was_accessed,
                                 Cycles now) override {
    inner_.on_preloaded_page_evicted(page, was_accessed, now);
  }
  void on_preloaded_page_touched(PageNum page) override {
    inner_.on_preloaded_page_touched(page);
  }
  void on_state_lost(Cycles now) override { inner_.on_state_lost(now); }

  void on_scan(const PageTable& pt, Cycles now) override {
    tick();
    inner_.on_scan(pt, now);
  }

 private:
  void tick() {
    Driver& d = *driver_;
    DriverTestPeer peer(d);
    const std::string where = "scan " + std::to_string(d.stats().scans);
    // A watchdog check ran after the previous tick's probe, on the state
    // that probe saw: that state is the one the changed set is relative to.
    if (d.stats().watchdog_checks != checks_) {
      proved_ = std::move(last_);
      checks_ = d.stats().watchdog_checks;
    }
    const std::vector<PageState> now = page_states(d);
    for (PageNum p = 0; p < now.size(); ++p) {
      if (now[p] == proved_[p]) continue;
      if (peer.changed().contains(p)) {
        ++tally_.covered;
      } else {
        tally_.fail(tally_.uncovered,
                    where + ": page " + std::to_string(p) +
                        " changed since the last proof but is not marked");
      }
    }
    last_ = now;
    ++tally_.ticks;
    if (plan_ != nullptr && !plan_->applied &&
        d.stats().scans >= plan_->at_scan) {
      Rng rng(plan_->seed);
      if (plan_->mutant->apply(peer, d, rng)) {
        plan_->applied = true;
        plan_->applied_scan = d.stats().scans;
        plan_->full = peer.full();
        plan_->incremental = peer.incremental();
        return;
      }
    }
    const std::string full = peer.full();
    const std::string incremental = peer.incremental();
    if (full != incremental) {
      tally_.fail(tally_.disagreements, where + ": full sweep '" + full +
                                            "' vs incremental '" +
                                            incremental + "'");
    }
  }

  PreloadPolicy& inner_;
  Tally& tally_;
  Driver* driver_ = nullptr;
  Plan* plan_ = nullptr;
  std::vector<PageState> proved_;
  std::vector<PageState> last_;
  std::uint64_t checks_ = 0;
};

struct Shape {
  const char* name;
  PageNum elrange = 0;
  PageNum epc = 0;
  std::size_t tenants = 0;  // > 0 engages the elastic EPC
  bool hardened = false;    // bounded channel, retries, admission control
  std::uint64_t interval = 1;
};

const Shape kShapes[] = {
    {.name = "solo", .elrange = 512, .epc = 96},
    {.name = "solo-whole-words", .elrange = 700, .epc = 260, .interval = 4},
    {.name = "hardened", .elrange = 640, .epc = 130, .hardened = true},
    {.name = "elastic", .elrange = 600, .epc = 160, .tenants = 3},
};

CostModel stack_costs() {
  CostModel c;
  c.scan_period = 60'000;  // several ticks per fault window
  return c;
}

/// Sequential runs DFP learns, random jumps, revisits; every fourth access
/// goes through SIP's bitmap check first, as an instrumented site would.
std::vector<PageNum> stream(PageNum pages, std::uint64_t count,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PageNum> out;
  while (out.size() < count) {
    if (rng.bounded(4) == 0) {
      out.push_back(rng.bounded(pages));
      continue;
    }
    const PageNum start = rng.bounded(pages);
    const std::uint64_t len = rng.range(6, 60);
    for (std::uint64_t i = 0; i < len && out.size() < count; ++i) {
      out.push_back((start + i) % pages);
      if (rng.bounded(3) == 0) out.push_back((start + i / 2) % pages);
    }
  }
  out.resize(count);
  return out;
}

/// A driver with a DFP engine behind the probe and a chaos injector.
class Stack {
 public:
  Stack(const Shape& s, const inject::ChaosPlan& chaos, Tally& tally,
        Plan* plan)
      : shape_(s), engine_(dfp::DfpParams{}), probe_(engine_, tally),
        injector_(chaos) {
    EnclaveConfig cfg;
    cfg.elrange_pages = s.elrange;
    cfg.epc_pages = s.epc;
    cfg.watchdog_scan_interval = s.interval;
    if (s.hardened) {
      cfg.channel.max_queued = 24;
      cfg.channel.preload_high_water = 16;
      cfg.channel.max_retries = 3;
      cfg.admission.enabled = true;
    }
    if (s.tenants > 0) {
      cfg.elastic.enabled = true;
      cfg.elastic.floor_pages = 8;
    }
    driver_ = std::make_unique<Driver>(cfg, stack_costs(), &probe_);
    if (s.tenants > 0) {
      std::vector<std::pair<PageNum, PageNum>> geometry;
      const PageNum slice = s.elrange / s.tenants;
      for (std::size_t t = 0; t < s.tenants; ++t) {
        geometry.emplace_back(slice * t, slice);
      }
      driver_->set_elastic_geometry(geometry);
    }
    driver_->set_chaos(&injector_);
    probe_.attach(*driver_, plan);
  }

  Cycles access(PageNum page, Cycles now, std::uint64_t i) {
    const auto pid = static_cast<ProcessId>(
        shape_.tenants > 0 ? page / (shape_.elrange / shape_.tenants) : 0);
    if (i % 4 == 0) {
      now += stack_costs().bitmap_check;
      if (!driver_->sip_bitmap_check(page, now)) {
        now = driver_->sip_load(page, now) + stack_costs().sip_notification;
      }
    }
    return driver_->access(page, now, pid).completion;
  }

  std::vector<std::uint8_t> save() const {
    snapshot::Writer w;
    driver_->save_sections(w);
    w.begin_section("DFPE");
    engine_.save(w);
    w.end_section();
    w.begin_section("INJC");
    injector_.save(w);
    w.end_section();
    return w.finish();
  }

  void load(const std::vector<std::uint8_t>& bytes) {
    snapshot::Reader r(bytes);
    driver_->load_sections(r);
    r.enter_section("DFPE");
    engine_.load(r, shape_.elrange);
    r.leave_section();
    r.enter_section("INJC");
    injector_.load(r);
    r.leave_section();
    probe_.restart_proof();
  }

  const Driver& driver() const { return *driver_; }

 private:
  Shape shape_;
  dfp::DfpEngine engine_;
  Probe probe_;
  inject::FaultInjector injector_;
  std::unique_ptr<Driver> driver_;
};

/// Accesses per run: elastic pages are addressed within the tiled slices.
PageNum addressable(const Shape& s) {
  return s.tenants > 0 ? (s.elrange / s.tenants) * s.tenants : s.elrange;
}

struct ChaosCase {
  const char* name;
  const char* spec;
};

constexpr ChaosCase kChaosCases[] = {
    {"all", "all"},
    {"jitter", "jitter:0.5"},
    {"spike", "spike:0.05"},
    {"stale", "stale-bit:0.2"},
    {"flip", "flip-bit:0.2"},
    {"drop", "drop-completion:0.2"},
    {"dup", "dup-completion:0.2"},
    {"stall", "scan-stall:0.2"},
    {"squeeze", "epc-squeeze:0.1"},
    {"wipe", "predictor-wipe:0.1"},
};

class WatchdogDifferential : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(WatchdogDifferential, BothChecksAgreeAndTheSetCoversEveryChange) {
  const auto chaos = inject::ChaosPlan::parse(GetParam().spec);
  ASSERT_TRUE(chaos.has_value());
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t cut_every : {std::uint64_t{0}, std::uint64_t{331}}) {
      SCOPED_TRACE(std::string(shape.name) + " cut every " +
                   std::to_string(cut_every));
      Tally tally;
      const auto pages = stream(addressable(shape), 4'000, 29);
      auto stack = std::make_unique<Stack>(shape, *chaos, tally, nullptr);
      Cycles now = 0;
      std::uint64_t restores = 0;
      for (std::uint64_t i = 0; i < pages.size(); ++i) {
        now = stack->access(pages[i], now + 3'000, i);
        if (cut_every > 0 && (i + 1) % cut_every == 0) {
          const auto bytes = stack->save();
          stack = std::make_unique<Stack>(shape, *chaos, tally, nullptr);
          stack->load(bytes);
          ++restores;
        }
      }
      EXPECT_EQ(tally.disagreements, 0u) << tally.first;
      EXPECT_EQ(tally.uncovered, 0u) << tally.first;
      // Non-vacuity: many ticks, many incremental checks, real churn.
      EXPECT_GT(tally.ticks, 200u);
      EXPECT_GT(tally.covered, 500u);
      const std::uint64_t checks = stack->driver().stats().watchdog_checks;
      EXPECT_GT(checks - checks / Driver::kFullSweepEvery, 100u);
      if (cut_every > 0) {
        EXPECT_GT(restores, 5u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WatchdogDifferential, ::testing::ValuesIn(kChaosCases),
    [](const ::testing::TestParamInfo<ChaosCase>& param) {
      return std::string(param.param.name);
    });

TEST(WatchdogMutants, FirstViolationEqualsTheFullSweepsAtTheSameTick) {
  const auto chaos = inject::ChaosPlan::parse("all");
  ASSERT_TRUE(chaos.has_value());
  std::uint64_t caught = 0, caught_incrementally = 0;
  for (const Shape& shape : kShapes) {
    if (shape.interval != 1) continue;  // the watchdog runs at every tick
    for (const Mutant& mutant : kMutants) {
      if (mutant.needs_elastic && shape.tenants == 0) continue;
      for (const std::uint64_t at_scan : {std::uint64_t{50}, std::uint64_t{97},
                                          std::uint64_t{128},
                                          std::uint64_t{233}}) {
        const std::string where = std::string(shape.name) + ", " +
                                  mutant.name + ", scan " +
                                  std::to_string(at_scan);
        SCOPED_TRACE(where);
        Tally tally;
        Plan plan;
        plan.mutant = &mutant;
        plan.at_scan = at_scan;
        plan.seed = at_scan;
        Stack stack(shape, *chaos, tally, &plan);
        const auto pages = stream(addressable(shape), 6'000, 31);
        Cycles now = 0;
        std::string thrown;
        std::uint64_t thrown_at = 0, check_index = 0;
        for (std::uint64_t i = 0; i < pages.size() && thrown.empty(); ++i) {
          try {
            now = stack.access(pages[i], now + 3'000, i);
          } catch (const CheckFailure& e) {
            thrown = e.what();
            thrown_at = stack.driver().stats().scans;
            check_index = stack.driver().stats().watchdog_checks;
          }
        }
        ASSERT_TRUE(plan.applied);
        EXPECT_EQ(tally.disagreements + tally.uncovered, 0u) << tally.first;
        ASSERT_FALSE(plan.full.empty()) << "the full sweep missed it";
        EXPECT_EQ(plan.incremental, plan.full);
        // The watchdog itself reports it at the mutation's tick.
        EXPECT_EQ(thrown, plan.full);
        EXPECT_EQ(thrown_at, plan.applied_scan);
        ++caught;
        if (check_index % Driver::kFullSweepEvery != 0) {
          ++caught_incrementally;
        }
      }
    }
  }
  EXPECT_GT(caught, 30u);
  EXPECT_GT(caught_incrementally, caught / 2);
}

// SIP loads count no accesses, so pages can be resident, and proved by a
// watchdog check, before the elastic geometry is declared. The geometry
// brings the range clause to every one of them, not only to changed pages.
TEST(WatchdogGeometry, DeclaringTheGeometryRechecksEveryResidentPage) {
  EnclaveConfig cfg;
  cfg.elrange_pages = 256;
  cfg.epc_pages = 64;
  cfg.watchdog_scan_interval = 1;
  cfg.elastic.enabled = true;
  cfg.elastic.floor_pages = 8;
  const CostModel costs;
  Driver d(cfg, costs);
  Cycles now = 0;
  for (PageNum p = 200; p < 210; ++p) {
    now = d.sip_load(p, now + costs.scan_period);
  }
  ASSERT_EQ(d.stats().accesses, 0u);
  ASSERT_GE(d.stats().watchdog_checks, 2u);
  d.set_elastic_geometry({{0, 128}});
  ASSERT_NE(d.stats().watchdog_checks % Driver::kFullSweepEvery, 0u);
  DriverTestPeer peer(d);
  EXPECT_NE(peer.full().find("page 200 outside every elastic tenant range"),
            std::string::npos)
      << peer.full();
  EXPECT_EQ(peer.incremental(), peer.full());
}

}  // namespace
}  // namespace sgxpl::sgxsim
