#include "core/sharding.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace sgxpl::core {

struct ShardPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait for a new generation
  std::condition_variable done_cv;   // run() waits for pending == 0
  std::uint64_t generation = 0;
  std::size_t pending = 0;
  std::size_t jobs = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<std::exception_ptr> errors;  // one slot per worker
  bool stop = false;
  std::vector<std::thread> workers;

  void worker_main(std::size_t w, std::size_t threads) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk, [&] { return stop || generation != seen; });
        if (stop) {
          return;
        }
        seen = generation;
      }
      const std::size_t lo = w * jobs / threads;
      const std::size_t hi = (w + 1) * jobs / threads;
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          (*fn)(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        errors[w] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--pending == 0) {
          done_cv.notify_one();
        }
      }
    }
  }
};

ShardPool::ShardPool(std::size_t threads)
    : threads_(std::max<std::size_t>(threads, 1)) {
  SGXPL_CHECK_MSG(threads_ <= kMaxShardThreads,
                  "shard pool of " << threads_ << " threads exceeds the cap of "
                                   << kMaxShardThreads);
  if (threads_ <= 1) {
    return;
  }
  impl_ = std::make_unique<Impl>();
  impl_->errors.resize(threads_);
  impl_->workers.reserve(threads_);
  for (std::size_t w = 0; w < threads_; ++w) {
    impl_->workers.emplace_back(
        [this, w] { impl_->worker_main(w, threads_); });
  }
}

ShardPool::~ShardPool() {
  if (impl_ == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) {
    t.join();
  }
}

void ShardPool::run(std::size_t jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) {
    return;
  }
  if (impl_ == nullptr) {
    for (std::size_t i = 0; i < jobs; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->jobs = jobs;
    impl_->fn = &fn;
    impl_->pending = threads_;
    std::fill(impl_->errors.begin(), impl_->errors.end(), nullptr);
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->done_cv.wait(lk, [&] { return impl_->pending == 0; });
    impl_->fn = nullptr;
    for (auto& e : impl_->errors) {
      if (e != nullptr) {
        std::rethrow_exception(e);
      }
    }
  }
}

}  // namespace sgxpl::core
