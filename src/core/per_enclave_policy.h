// The policy router of a multi-enclave co-run (core/multi_enclave.h): one
// shared driver, one DFP engine per enclave that runs one.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "dfp/dfp_engine.h"
#include "sgxsim/preload_policy.h"

namespace sgxpl::core {

/// Routes driver callbacks to per-enclave DFP engines: faults by ProcessId,
/// page-scoped events (completion, abort, eviction, first touch) by ELRANGE
/// offset.
class PerEnclavePolicy final : public sgxsim::PreloadPolicy {
 public:
  struct Slot {
    std::unique_ptr<dfp::DfpEngine> engine;  // null = no DFP for this app
    PageNum lo = 0;
    PageNum hi = 0;
  };

  explicit PerEnclavePolicy(std::vector<Slot> slots)
      : slots_(std::move(slots)) {}

  std::vector<PageNum> on_fault(ProcessId pid, PageNum page,
                                Cycles now) override {
    auto& slot = slots_.at(pid);
    if (slot.engine == nullptr) {
      return {};
    }
    // Predictions are already in the combined address space (the engine
    // sees combined page numbers); clamp to the owner's ELRANGE so one
    // enclave never preloads into another's range.
    auto pages = slot.engine->on_fault(pid, page, now);
    std::erase_if(pages, [&slot](PageNum p) {
      return p < slot.lo || p >= slot.hi;
    });
    return pages;
  }

  void on_preload_completed(PageNum page, Cycles now) override {
    if (auto* s = owner(page); s != nullptr && s->engine != nullptr) {
      s->engine->on_preload_completed(page, now);
    }
  }

  void on_preloads_aborted(const std::vector<PageNum>& pages,
                           Cycles now) override {
    for (const PageNum p : pages) {
      if (auto* s = owner(p); s != nullptr && s->engine != nullptr) {
        s->engine->on_preloads_aborted({p}, now);
      }
    }
  }

  void on_preloaded_page_evicted(PageNum page, bool was_accessed,
                                 Cycles now) override {
    if (auto* s = owner(page); s != nullptr && s->engine != nullptr) {
      s->engine->on_preloaded_page_evicted(page, was_accessed, now);
    }
  }

  void on_preloaded_page_touched(PageNum page) override {
    if (auto* s = owner(page); s != nullptr && s->engine != nullptr) {
      s->engine->on_preloaded_page_touched(page);
    }
  }

  void on_scan(const sgxsim::PageTable& pt, Cycles now) override {
    for (auto& s : slots_) {
      if (s.engine != nullptr) {
        s.engine->on_scan(pt, now);
      }
    }
  }

  const dfp::DfpEngine* engine(std::size_t i) const {
    return slots_.at(i).engine.get();
  }
  dfp::DfpEngine* mutable_engine(std::size_t i) {
    return slots_.at(i).engine.get();
  }

 private:
  Slot* owner(PageNum page) {
    for (auto& s : slots_) {
      if (page >= s.lo && page < s.hi) {
        return &s;
      }
    }
    return nullptr;
  }

  std::vector<Slot> slots_;
};

}  // namespace sgxpl::core
