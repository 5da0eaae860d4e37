// Hot-path cycle-attribution profiler: lightweight RAII scoped spans that
// attribute both host wall-clock nanoseconds and simulated cycles to a
// fixed hierarchy of phases (fault handling, page-table lookup, bitmap
// check, predictor update, preload issue, channel service, retry sweep,
// eviction, scans, the SIP pipeline stages, snapshot save/load).
//
// Like every other sink in this layer, *null is off*: producers hold an
// `obs::Profiler*` that may be null, and a ScopedSpan constructed from a
// null (or disabled) profiler does nothing beyond one pointer test — the
// fast paths pay nothing in performance runs. When enabled, spans nest via
// a per-thread span stack into a dynamic tree keyed by the *actual* runtime
// nesting (a channel-service span under a fault looks different from one
// under a plain clock advance), and `profile()` merges the per-thread trees
// into a deterministic PhaseProfile.
//
// Two time domains per node:
//   - wall_ns     host steady-clock nanoseconds (machine-dependent; never
//                 gated by the perf trajectory)
//   - sim_cycles  simulated cycles attributed via ScopedSpan::add_cycles
//                 (deterministic: same code + seed = identical numbers)
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/types.h"

namespace sgxpl::obs {

class JsonWriter;

/// The fixed phase vocabulary. Each instrumentation site picks one; the
/// hierarchy is whatever nesting the call stack produces at runtime.
enum class Phase : std::uint8_t {
  kStep,             // one simulator step (trace access end-to-end)
  kFault,            // driver fault handling (AEX .. ERESUME)
  kPageTableLookup,  // resident fast path: present/touch/eviction touch
  kBitmapCheck,      // SIP BIT_MAP_CHECK
  kPredictorUpdate,  // DFP predictor update on a fault
  kPreloadIssue,     // submitting predicted preloads to the channel
  kChannelService,   // harvesting completed channel ops
  kRetrySweep,       // lost-completion retry sweep (hardened mode)
  kEviction,         // CLOCK victim selection + EWB bookkeeping
  kScan,             // service-thread scan tick
  kDfpScan,          // DFP engine's per-scan work (list scan, stop valve)
  kSipCheck,         // SIP check+notify block in the simulator step
  kSipLoad,          // synchronous SIP page_loadin
  kSipPrefetch,      // asynchronous (hoisted) SIP prefetch
  kSipCompile,       // SIP offline compile pipeline (train + plan)
  kSnapshotSave,     // checkpoint frame serialization + atomic write
  kSnapshotLoad,     // resume: restore a snapshot chain
  kElasticRebalance, // elastic EPC AIMD quota rebalance on the scan tick
  kFleetRecover,     // supervisor: salvage-restore + replay of a crashed host
  kFleetEvacuate,    // supervisor: tenant evacuation off a failing host
  kWatchdog,         // driver's online invariant sweep (check_invariants)
};

inline constexpr std::size_t kPhaseCount = 21;

const char* to_string(Phase p) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<Phase> parse_phase(std::string_view name) noexcept;

/// Aggregated phase tree: plain data, mergeable, serializable. Children
/// are kept sorted by phase value so serialization is deterministic.
struct PhaseProfile {
  static constexpr const char* kSchema = "sgxpl-phase-profile/v1";

  struct Node {
    Phase phase = Phase::kStep;
    std::uint64_t count = 0;       // completed spans
    std::uint64_t wall_ns = 0;     // host steady-clock nanoseconds
    std::uint64_t sim_cycles = 0;  // simulated cycles (deterministic)
    std::vector<Node> children;

    /// Find-or-create the child for `p`, keeping children phase-sorted.
    Node& child(Phase p);
    const Node* find_child(Phase p) const noexcept;
  };

  std::vector<Node> roots;

  bool empty() const noexcept { return roots.empty(); }
  /// Total nodes in the tree.
  std::uint64_t node_count() const noexcept;
  /// Pointwise accumulate `other` into this profile.
  void merge(const PhaseProfile& other);
  /// Walk `path` from the roots; nullptr when any hop is missing.
  const Node* find(std::initializer_list<Phase> path) const noexcept;

  /// {"schema":"sgxpl-phase-profile/v1","phases":[{...}]} with each node
  /// as {"phase","count","wall_ns","cycles","children":[...]}.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
  /// Inverse of to_json (also accepts the same object embedded mid-
  /// document if handed exactly that object's text). Returns nullopt and
  /// fills `err` (when non-null) on malformed input.
  static std::optional<PhaseProfile> parse(std::string_view json,
                                           std::string* err = nullptr);

  /// Indented human-readable dump (one node per line).
  std::string describe() const;
};

/// Span collector. Disabled (the default) it only answers enabled();
/// nothing is allocated until the first span of an *enabled* profiler.
/// Thread-safe: each thread records into its own span stack/arena,
/// registered under a mutex on first use; profile() merges the arenas.
class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void set_enabled(bool on) noexcept {
    enabled_ = on;
  }
  bool enabled() const noexcept { return enabled_; }

  /// Open a span for `p` nested under the calling thread's current span.
  /// Returns a handle for end()/the node index. Only call when enabled().
  std::uint32_t begin(Phase p);
  /// Close the span `slot` opened by begin(), attributing `wall_ns` and
  /// `cycles` to it. Spans close in LIFO order (RAII guarantees this).
  void end(std::uint32_t slot, std::uint64_t wall_ns, Cycles cycles) noexcept;

  /// Merged snapshot of every thread's tree (deterministic: addition is
  /// commutative and children are phase-sorted).
  PhaseProfile profile() const;
  /// Total tree nodes allocated across all threads (0 while disabled —
  /// the zero-allocation guarantee the tests pin down).
  std::size_t node_count() const;
  /// Drop all recorded spans (thread arenas stay registered).
  void reset();

 private:
  struct NodeSlot {
    Phase phase = Phase::kStep;
    std::int32_t parent = -1;
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t sim_cycles = 0;
  };
  struct ThreadState {
    std::thread::id tid;
    std::vector<NodeSlot> nodes;
    std::int32_t current = -1;  // innermost open span, -1 at top level
  };

  ThreadState& thread_state();

  bool enabled_ = false;
  /// Distinguishes this instance in the thread-local cache even after
  /// another Profiler is constructed at the same address.
  std::uint64_t instance_id_ = 0;
  mutable std::mutex mu_;  // guards states_ shape; each thread owns its state
  std::vector<std::unique_ptr<ThreadState>> states_;
};

/// RAII span: records nothing when `p` is null or disabled. Simulated
/// cycles are attributed explicitly (the simulator knows how far its
/// virtual clock moved); wall time is measured by the span itself.
class ScopedSpan {
 public:
  ScopedSpan(Profiler* p, Phase phase) noexcept {
    if (p != nullptr && p->enabled()) {
      prof_ = p;
      slot_ = p->begin(phase);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (prof_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      prof_->end(slot_, static_cast<std::uint64_t>(ns), cycles_);
    }
  }

  /// Attribute `c` simulated cycles to this span (accumulates; flushed at
  /// scope exit). Safe to call on a disabled span — it is a dead store.
  void add_cycles(Cycles c) noexcept { cycles_ += c; }

 private:
  Profiler* prof_ = nullptr;
  std::uint32_t slot_ = 0;
  Cycles cycles_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sgxpl::obs
