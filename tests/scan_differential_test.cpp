// Differential battery for the incremental PreloadedPageList scan. The
// full-set sweep the list ran before it became incremental is kept here as
// the reference: at every service-thread tick it sweeps a copy of every
// tracked page against the page table, and the list's own scan must leave
// the same counters and the same tracked pages.
//
// Two harnesses feed it. A seeded event stream drives one list directly
// through the driver's protocol (map, first touch, CLOCK clear, eviction,
// dropped/duplicated/stale completions, restores). Full driver stacks —
// DFP, DFP-stop and hybrid solo enclaves, and a three-tenant co-run with
// two DFP tenants behind the production PerEnclavePolicy router — run under
// each chaos class and are killed and restored from snapshots along the
// way; a ShadowPolicy checks every list at every tick.
#include "dfp/preloaded_page_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/per_enclave_policy.h"
#include "dfp/dfp_engine.h"
#include "inject/chaos_plan.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"
#include "snapshot/codec.h"

namespace sgxpl {
namespace {

using dfp::PreloadedPageList;
using sgxsim::PageTable;

/// The full-set scan: every tracked page is judged at every tick.
struct ReferenceList {
  std::unordered_set<PageNum> pages;
  std::uint64_t preload_counter = 0;
  std::uint64_t acc_preload_counter = 0;
  std::uint64_t evicted_unused = 0;

  static ReferenceList of(const PreloadedPageList& list) {
    ReferenceList ref;
    const std::vector<PageNum> tracked = list.pages();
    ref.pages.insert(tracked.begin(), tracked.end());
    ref.preload_counter = list.preload_counter();
    ref.acc_preload_counter = list.acc_preload_counter();
    ref.evicted_unused = list.evicted_unused();
    return ref;
  }

  void scan(const PageTable& pt) {
    for (auto it = pages.begin(); it != pages.end();) {
      const PageNum page = *it;
      if (page >= pt.elrange_pages() || !pt.present(page)) {
        it = pages.erase(it);
        ++evicted_unused;
        continue;
      }
      const auto& entry = pt.entry(page);
      if (entry.accessed || !entry.preloaded) {
        ++acc_preload_counter;
        it = pages.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Empty when `list` matches; otherwise what differs.
  std::string diff(const PreloadedPageList& list) const {
    std::ostringstream oss;
    if (list.preload_counter() != preload_counter) {
      oss << " preload_counter " << list.preload_counter() << " vs "
          << preload_counter;
    }
    if (list.acc_preload_counter() != acc_preload_counter) {
      oss << " acc_preload_counter " << list.acc_preload_counter() << " vs "
          << acc_preload_counter;
    }
    if (list.evicted_unused() != evicted_unused) {
      oss << " evicted_unused " << list.evicted_unused() << " vs "
          << evicted_unused;
    }
    std::vector<PageNum> want(pages.begin(), pages.end());
    std::sort(want.begin(), want.end());
    const std::vector<PageNum> got = list.pages();
    if (got != want || list.tracked() != want.size()) {
      oss << " tracked " << got.size() << " (tracked() " << list.tracked()
          << ") vs " << want.size() << " pages";
    }
    return oss.str();
  }
};

/// Per-tick verdict tally of one harness.
struct Tally {
  std::uint64_t ticks = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t credited = 0;
  std::uint64_t dropped = 0;
  std::string first;

  void check(const ReferenceList& before, const ReferenceList& ref,
             const PreloadedPageList& list, const std::string& where) {
    ++ticks;
    credited += ref.acc_preload_counter - before.acc_preload_counter;
    dropped += ref.evicted_unused - before.evicted_unused;
    const std::string d = ref.diff(list);
    if (!d.empty() && mismatches++ == 0) {
      first = where + ":" + d;
    }
  }
};

// --- harness 1: one list under a seeded driver-protocol event stream ----

void run_list_stream(std::uint64_t seed, Tally& tally) {
  constexpr PageNum kPages = 96;
  Rng rng(seed);
  PageTable pt(kPages);
  auto list = std::make_unique<PreloadedPageList>();
  for (std::uint64_t step = 0; step < 6'000; ++step) {
    const PageNum page = rng.bounded(kPages);
    const std::uint64_t op = rng.bounded(100);
    if (op < 25) {
      // A DFP preload lands; its notification may be dropped or doubled.
      if (!pt.present(page)) {
        pt.map(page, static_cast<SlotIndex>(page), /*via_preload=*/true);
        const std::uint64_t copies = rng.bounded(10) == 0 ? 0
                                     : rng.bounded(10) == 0 ? 2
                                                            : 1;
        for (std::uint64_t i = 0; i < copies; ++i) list->on_loaded(page);
      }
    } else if (op < 35) {
      // A demand load or a SIP preload: no DFP notification.
      if (!pt.present(page)) {
        pt.map(page, static_cast<SlotIndex>(page), rng.bounded(2) == 0);
      }
    } else if (op < 65) {
      if (pt.present(page) && pt.touch(page)) list->on_touched(page);
    } else if (op < 75) {
      if (pt.present(page)) pt.test_and_clear_accessed(page);
    } else if (op < 90) {
      // Eviction: the driver notifies the policy of still-preloaded pages.
      if (pt.present(page) && pt.unmap(page).preloaded) {
        list->on_evicted(page);
      }
    } else if (op < 92) {
      // A stale completion for a page that is not resident (or ever was).
      if (!pt.present(page)) list->on_loaded(page);
    } else if (op < 94) {
      // Kill and restore the list from its snapshot.
      snapshot::Writer w;
      w.begin_section("PPLS");
      list->save(w);
      w.end_section();
      const std::vector<std::uint8_t> bytes = w.finish();
      list = std::make_unique<PreloadedPageList>();
      snapshot::Reader r(bytes);
      r.enter_section("PPLS");
      list->load(r, kPages);
      r.leave_section();
    } else {
      const ReferenceList before = ReferenceList::of(*list);
      ReferenceList ref = before;
      ref.scan(pt);
      list->scan(pt);
      tally.check(before, ref, *list,
                  "seed " + std::to_string(seed) + " step " +
                      std::to_string(step));
    }
  }
}

TEST(ScanDifferential, ListMatchesFullScanUnderDriverProtocol) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_list_stream(seed, tally);
  }
  EXPECT_EQ(tally.mismatches, 0u) << tally.first;
  // The stream exercised every verdict.
  EXPECT_GT(tally.ticks, 1'000u);
  EXPECT_GT(tally.credited, 100u);
  EXPECT_GT(tally.dropped, 10u);
}

// --- harness 2: full driver stacks under chaos and kill-restore cuts ----

/// Forwards every hook to the policy under test and, at each scan, checks
/// every DFP list against the reference sweep of its pre-scan copy.
class ShadowPolicy final : public sgxsim::PreloadPolicy {
 public:
  ShadowPolicy(sgxsim::PreloadPolicy& inner,
               std::vector<const PreloadedPageList*> lists, Tally& tally,
               std::string name)
      : inner_(inner), lists_(std::move(lists)), tally_(tally),
        name_(std::move(name)) {}

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
    std::vector<ReferenceList> before;
    for (const PreloadedPageList* list : lists_) {
      before.push_back(ReferenceList::of(*list));
    }
    inner_.on_scan(pt, now);
    for (std::size_t i = 0; i < lists_.size(); ++i) {
      ReferenceList ref = before[i];
      ref.scan(pt);
      tally_.check(before[i], ref, *lists_[i],
                   name_ + " list " + std::to_string(i) + " tick @" +
                       std::to_string(now));
    }
  }

 private:
  sgxsim::PreloadPolicy& inner_;
  std::vector<const PreloadedPageList*> lists_;
  Tally& tally_;
  std::string name_;
};

enum class Mode { kBaseline, kDfp, kDfpStop, kHybrid };

struct Tenant {
  Mode mode = Mode::kDfp;
  PageNum pages = 0;
};

struct Stack {
  std::vector<Tenant> tenants;
  PageNum epc = 0;
  inject::ChaosPlan chaos;
};

sgxsim::CostModel stack_costs() {
  sgxsim::CostModel c;
  c.scan_period = 60'000;  // several ticks per fault window
  return c;
}

/// One tenant's access stream: sequential runs DFP learns, mixed with
/// random jumps that waste its preloads.
std::vector<PageNum> tenant_stream(PageNum pages, std::uint64_t count,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PageNum> out;
  while (out.size() < count) {
    if (rng.bounded(4) == 0) {
      out.push_back(rng.bounded(pages));
      continue;
    }
    const PageNum start = rng.bounded(pages);
    const std::uint64_t len = rng.range(6, 40);
    for (std::uint64_t i = 0; i < len && out.size() < count; ++i) {
      // Revisit a recent page now and then so first touches interleave
      // with ticks and CLOCK clears.
      out.push_back((start + i) % pages);
      if (rng.bounded(3) == 0) out.push_back((start + i / 2) % pages);
    }
  }
  out.resize(count);
  return out;
}

/// A driver, its policy stack and chaos injector, built the way
/// SimulationRun (one tenant) and MultiEnclaveRun (several) build theirs.
class StackRun {
 public:
  StackRun(const Stack& s, Tally& tally, const std::string& name)
      : spec_(s) {
    PageNum total = 0;
    std::vector<core::PerEnclavePolicy::Slot> slots;
    for (const Tenant& t : s.tenants) {
      core::PerEnclavePolicy::Slot slot;
      offsets_.push_back(total);
      slot.lo = total;
      slot.hi = total + t.pages;
      if (t.mode != Mode::kBaseline) {
        dfp::DfpParams params;
        params.stop_enabled = t.mode != Mode::kDfp;
        slot.engine = std::make_unique<dfp::DfpEngine>(params);
        limits_.push_back(slot.hi);
      }
      slots.push_back(std::move(slot));
      total += t.pages;
    }
    if (s.tenants.size() == 1) {
      solo_ = std::move(slots.front().engine);
      engines_.push_back(solo_.get());
      inner_ = solo_.get();
    } else {
      router_ = std::make_unique<core::PerEnclavePolicy>(std::move(slots));
      for (std::size_t i = 0; i < s.tenants.size(); ++i) {
        if (auto* e = router_->mutable_engine(i)) engines_.push_back(e);
      }
      inner_ = router_.get();
    }
    std::vector<const PreloadedPageList*> lists;
    for (const dfp::DfpEngine* e : engines_) {
      lists.push_back(&e->preloaded_pages());
    }
    shadow_ = std::make_unique<ShadowPolicy>(*inner_, std::move(lists), tally,
                                             name);
    sgxsim::EnclaveConfig cfg;
    cfg.elrange_pages = total;
    cfg.epc_pages = s.epc;
    if (s.chaos.any_enabled()) {
      injector_ = std::make_unique<inject::FaultInjector>(s.chaos);
      cfg.watchdog_scan_interval = 64;
    }
    driver_ = std::make_unique<sgxsim::Driver>(cfg, stack_costs(),
                                               shadow_.get());
    if (injector_ != nullptr) driver_->set_chaos(injector_.get());
  }

  /// One access of tenant `t` to its page `page` at `now`; returns the time
  /// the tenant proceeds. Hybrid tenants run the conservative SIP check
  /// before every fourth page, as an instrumented site would.
  Cycles access(std::size_t t, PageNum page, Cycles now) {
    const PageNum global = offsets_[t] + page;
    const auto c = stack_costs();
    if (spec_.tenants[t].mode == Mode::kHybrid && page % 4 == 0) {
      now += c.bitmap_check;
      if (!driver_->sip_bitmap_check(global, now)) {
        now = driver_->sip_load(global, now) + c.sip_notification;
      }
    }
    return driver_->access(global, now, static_cast<ProcessId>(t))
        .completion;
  }

  std::vector<std::uint8_t> save() const {
    snapshot::Writer w;
    driver_->save_sections(w);
    for (const dfp::DfpEngine* e : engines_) {
      w.begin_section("DFPE");
      e->save(w);
      w.end_section();
    }
    if (injector_ != nullptr) {
      w.begin_section("INJC");
      injector_->save(w);
      w.end_section();
    }
    return w.finish();
  }

  void load(const std::vector<std::uint8_t>& bytes) {
    snapshot::Reader r(bytes);
    driver_->load_sections(r);
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      r.enter_section("DFPE");
      engines_[i]->load(r, limits_[i]);
      r.leave_section();
    }
    if (injector_ != nullptr) {
      r.enter_section("INJC");
      injector_->load(r);
      r.leave_section();
    }
  }

  const std::vector<dfp::DfpEngine*>& engines() const { return engines_; }
  const sgxsim::Driver& driver() const { return *driver_; }

 private:
  Stack spec_;
  std::vector<PageNum> limits_;
  std::vector<PageNum> offsets_;
  std::unique_ptr<dfp::DfpEngine> solo_;
  std::unique_ptr<core::PerEnclavePolicy> router_;
  std::vector<dfp::DfpEngine*> engines_;
  sgxsim::PreloadPolicy* inner_ = nullptr;
  std::unique_ptr<ShadowPolicy> shadow_;
  std::unique_ptr<inject::FaultInjector> injector_;
  std::unique_ptr<sgxsim::Driver> driver_;
};

struct StackOutcome {
  std::vector<std::vector<PageNum>> tracked;
  std::vector<std::uint64_t> credited;
  std::uint64_t scans = 0;
  std::uint64_t restores = 0;
};

/// Run every tenant's stream to the end, always stepping the tenant whose
/// clock is furthest behind (as MultiEnclaveRun does). With `cut_every` >
/// 0 the whole stack is killed and restored from its snapshot every that
/// many accesses.
StackOutcome run_stack(const Stack& s, std::uint64_t accesses,
                       std::uint64_t cut_every, Tally& tally,
                       const std::string& name) {
  std::vector<std::vector<PageNum>> streams;
  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    streams.push_back(tenant_stream(s.tenants[t].pages, accesses, 17 + t));
  }
  std::vector<std::size_t> cursor(s.tenants.size(), 0);
  std::vector<Cycles> clock(s.tenants.size(), 0);
  auto run = std::make_unique<StackRun>(s, tally, name);
  StackOutcome out;
  for (std::uint64_t step = 1;; ++step) {
    std::size_t next = s.tenants.size();
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
      if (cursor[t] < streams[t].size() &&
          (next == s.tenants.size() || clock[t] < clock[next])) {
        next = t;
      }
    }
    if (next == s.tenants.size()) break;
    clock[next] = run->access(next, streams[next][cursor[next]],
                              clock[next] + 3'000);
    ++cursor[next];
    if (cut_every > 0 && step % cut_every == 0) {
      const std::vector<std::uint8_t> bytes = run->save();
      run = std::make_unique<StackRun>(s, tally, name);
      run->load(bytes);
      ++out.restores;
    }
  }
  for (const dfp::DfpEngine* e : run->engines()) {
    out.tracked.push_back(e->preloaded_pages().pages());
    out.credited.push_back(e->preloaded_pages().acc_preload_counter());
  }
  out.scans = run->driver().stats().scans;
  return out;
}

struct ChaosCase {
  const char* name;
  const char* spec;
};

constexpr ChaosCase kChaosCases[] = {
    {"none", "none"},
    {"drop", "drop-completion:0.2"},
    {"dup", "dup-completion:0.2"},
    {"wipe", "predictor-wipe:0.1"},
    {"stall", "scan-stall:0.2"},
    {"squeeze", "epc-squeeze:0.1"},
    {"all", "all"},
};

std::vector<std::pair<std::string, Stack>> stacks(const inject::ChaosPlan& p) {
  return {
      {"dfp", Stack{{{Mode::kDfp, 512}}, 96, p}},
      {"dfp-stop", Stack{{{Mode::kDfpStop, 512}}, 96, p}},
      {"hybrid", Stack{{{Mode::kHybrid, 512}}, 96, p}},
      {"co-run",
       Stack{{{Mode::kDfp, 256}, {Mode::kBaseline, 192}, {Mode::kHybrid, 256}},
             160, p}},
  };
}

class ScanDifferentialChaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ScanDifferentialChaos, EveryTickMatchesFullScanAcrossCuts) {
  const auto plan = inject::ChaosPlan::parse(GetParam().spec);
  ASSERT_TRUE(plan.has_value());
  for (const auto& [name, stack] : stacks(*plan)) {
    SCOPED_TRACE(name);
    Tally straight;
    const StackOutcome whole = run_stack(stack, 2'500, 0, straight, name);
    EXPECT_EQ(straight.mismatches, 0u) << straight.first;
    EXPECT_GT(straight.ticks, 100u);
    EXPECT_GT(straight.credited, 0u);

    // Kill-restore cuts: every tick still matches the reference, and the
    // restored stack ends exactly where the uninterrupted one does.
    Tally cut;
    const StackOutcome restored = run_stack(stack, 2'500, 37, cut, name);
    EXPECT_EQ(cut.mismatches, 0u) << cut.first;
    EXPECT_GT(restored.restores, 10u);
    EXPECT_EQ(restored.tracked, whole.tracked);
    EXPECT_EQ(restored.credited, whole.credited);
    EXPECT_EQ(restored.scans, whole.scans);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ScanDifferentialChaos, ::testing::ValuesIn(kChaosCases),
    [](const ::testing::TestParamInfo<ChaosCase>& param) {
      return std::string(param.param.name);
    });

// --- routing ------------------------------------------------------------

TEST(ScanDifferential, FirstTouchCreditsOnlyTheOwnersListAtTheNextTick) {
  // Tenants A = [0, 64) and B = [64, 128), both DFP, behind the router.
  std::vector<core::PerEnclavePolicy::Slot> slots(2);
  for (std::size_t i = 0; i < 2; ++i) {
    slots[i].engine = std::make_unique<dfp::DfpEngine>(dfp::DfpParams{});
    slots[i].lo = 64 * i;
    slots[i].hi = 64 * (i + 1);
  }
  core::PerEnclavePolicy router(std::move(slots));
  const PreloadedPageList& a = router.engine(0)->preloaded_pages();
  const PreloadedPageList& b = router.engine(1)->preloaded_pages();

  sgxsim::EnclaveConfig cfg;
  cfg.elrange_pages = 128;
  cfg.epc_pages = 96;
  sgxsim::CostModel costs;
  costs.scan_period = 50'000'000;
  sgxsim::Driver d(cfg, costs, &router);
  // Sequential faults in both ranges teach each engine a stream; its
  // preloads land in its own range.
  Cycles now = 0;
  for (PageNum i = 0; i < 2; ++i) {
    now = d.access(i, now, 0).completion;
    now = d.access(64 + i, now, 1).completion;
  }
  // Let the queued preloads land, then cross the first tick so every
  // earlier touch is settled.
  now = d.access(0, costs.scan_period + 1, 0).completion;
  ASSERT_LT(now, 2 * costs.scan_period);
  ASSERT_GT(a.tracked(), 0u);
  ASSERT_GT(b.tracked(), 0u);
  const PageNum target = b.pages().front();
  ASSERT_TRUE(d.page_table().entry(target).preloaded);
  const std::size_t a_tracked = a.tracked();
  const std::size_t b_tracked = b.tracked();
  const std::uint64_t a_credited = a.acc_preload_counter();
  const std::uint64_t b_credited = b.acc_preload_counter();

  // First touch in B's range: no credit yet — the verdict waits for the
  // tick.
  now = d.access(target, now, 1).completion;
  EXPECT_FALSE(d.page_table().entry(target).preloaded);
  EXPECT_EQ(b.acc_preload_counter(), b_credited);
  EXPECT_EQ(b.tracked(), b_tracked);

  // Cross the next tick with an access that touches no preloaded page.
  d.access(0, 2 * costs.scan_period + 1, 0);
  EXPECT_EQ(b.acc_preload_counter(), b_credited + 1);
  EXPECT_EQ(b.tracked(), b_tracked - 1);
  EXPECT_FALSE(b.contains(target));
  EXPECT_EQ(a.acc_preload_counter(), a_credited);
  EXPECT_EQ(a.tracked(), a_tracked);
}

}  // namespace
}  // namespace sgxpl
