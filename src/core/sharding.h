// The shard pool: a fixed-size fork/join worker pool for running
// independent simulations side by side. fleet::FleetSupervisor advances its
// hosts on one during each epoch's step phase (SupervisorPolicy::
// shard_threads), and benches fan independent cells out across one.
//
// The pool itself promises only that every job runs exactly once and that
// run() returns after all of them. Shard-count invariance — results that
// are bit-identical for every worker count K — is the caller's contract:
// jobs must share nothing mutable while the pool runs them, and every
// write to shared state is applied serially after run() returns, in job
// order. See docs/ROBUSTNESS.md, "Sharded execution", for how the
// supervisor meets it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace sgxpl::core {

/// Upper bound on ShardPool worker threads. Worker counts come from outside
/// input (--shards, SupervisorPolicy::shard_threads); a bound far above any
/// useful value keeps a typo or a wrapped negative number from asking the
/// OS for billions of threads.
inline constexpr std::size_t kMaxShardThreads = 256;

/// Fixed-size OS thread pool with a fork/join barrier, built once and
/// reused every epoch (spawning threads per epoch would dominate small
/// epochs). run(jobs, fn) partitions [0, jobs) into K contiguous blocks —
/// worker w owns [w*jobs/K, (w+1)*jobs/K) — executes them concurrently,
/// and returns after every block finished. Exceptions thrown by fn are
/// captured per worker and the lowest-indexed one is rethrown from run()
/// after the barrier (so the pool is still consistent). threads <= 1 runs
/// inline on the calling thread with no pool at all. threads above
/// kMaxShardThreads throws CheckFailure before any worker starts.
class ShardPool {
 public:
  explicit ShardPool(std::size_t threads);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// Execute fn(0) .. fn(jobs-1), partitioned across the workers. Blocks
  /// until all jobs completed. Not reentrant.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  std::size_t threads_ = 1;
  std::unique_ptr<Impl> impl_;  // null when threads_ <= 1
};

}  // namespace sgxpl::core
