#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>

namespace mineq::util {

void SpinBarrier::arrive_and_wait() noexcept {
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arriver: reset the arrival count for the next round, then
    // open the barrier. The reset must precede the bump — a fast party
    // can re-enter arrive_and_wait the instant the generation moves.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();
    return;
  }
  std::uint32_t spins = 0;
  while (generation_.load(std::memory_order_acquire) == generation) {
    if (++spins < 1024) {
      cpu_relax();
    } else {
      generation_.wait(generation, std::memory_order_acquire);
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(team_mutex_);
    team_stopping_ = true;
  }
  team_wake_.notify_all();
  for (auto& member : team_) member.join();
}

void ThreadPool::run_team(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n <= 1) {
    fn(0, 1);
    return;
  }
  // Grow the team lazily; threads persist across calls. A call with a
  // smaller n than a previous one leaves the extra threads parked — they
  // wake on the epoch, see index >= team_size_, and report done without
  // running the body. Each new thread is handed the pre-bump epoch so it
  // participates in this call's round no matter how late it starts.
  if (team_.size() + 1 < n) {
    std::uint64_t start_epoch;
    {
      std::unique_lock lock(team_mutex_);
      start_epoch = team_epoch_;
    }
    while (team_.size() + 1 < n) {
      const std::size_t index = team_.size();
      team_.emplace_back(
          [this, index, start_epoch] { team_member_loop(index, start_epoch); });
    }
  }
  const std::size_t members = team_.size();
  {
    std::unique_lock lock(team_mutex_);
    team_fn_ = &fn;
    team_size_ = n;
    team_done_ = 0;
    ++team_epoch_;
  }
  team_wake_.notify_all();
  fn(0, n);
  {
    std::unique_lock lock(team_mutex_);
    team_done_cv_.wait(lock, [&] { return team_done_ == members; });
    team_fn_ = nullptr;
  }
}

void ThreadPool::team_member_loop(std::size_t index, std::uint64_t seen) {
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t size = 0;
    {
      std::unique_lock lock(team_mutex_);
      team_wake_.wait(lock,
                      [&] { return team_stopping_ || team_epoch_ != seen; });
      if (team_stopping_) return;
      seen = team_epoch_;
      fn = team_fn_;
      size = team_size_;
    }
    if (index + 1 < size) (*fn)(index + 1, size);
    {
      std::unique_lock lock(team_mutex_);
      ++team_done_;
    }
    team_done_cv_.notify_one();
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (begin >= end) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t total = end - begin;
  threads = std::min(threads, total);
  if (threads <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Chunked dynamic scheduling: workers grab the next chunk from a shared
  // counter. Chunks are large enough to amortize the atomic but small enough
  // to balance uneven iteration costs.
  const std::size_t chunk = std::max<std::size_t>(1, total / (threads * 8));
  std::atomic<std::size_t> next(begin);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t lo = next.fetch_add(chunk);
        if (lo >= end) return;
        const std::size_t hi = std::min(end, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) body(i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace mineq::util
