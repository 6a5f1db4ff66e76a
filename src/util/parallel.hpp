/// \file parallel.hpp
/// \brief Explicit, standard-library parallelism for bulk verification sweeps.
///
/// Following the HPC house style (parallelism is explicit, portable and
/// standard-based), this is a persistent worker team (ThreadPool), the
/// barrier its members rendezvous on (SpinBarrier), and a blocking
/// parallel_for. Randomized sweeps pass a task index to the body so each
/// task can derive a deterministic RNG stream — results are identical
/// regardless of thread count.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mineq::util {

/// One PAUSE/YIELD-class hint to the core's pipeline while spinning.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Reusable sense-reversing barrier for a fixed party count.
///
/// arrive_and_wait() publishes every write made before the call to every
/// party that returns from the same round (the generation bump is a
/// release paired with the waiters' acquire loads), so it is both the
/// synchronization and the happens-before edge of a sharded cycle kernel.
/// Waiters spin briefly with cpu_relax() — the dedicated-core rendezvous
/// resolves here without leaving user space — and then fall back to a
/// futex-style std::atomic::wait, so an oversubscribed team (parties
/// beyond the hardware threads, e.g. an 8-thread determinism pin on a
/// 2-core CI box) sleeps in the kernel instead of stealing scheduler
/// quanta from the parties still working toward the barrier.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Defined out of line on purpose: the one-worker cycle driver never
  /// reaches a barrier, and an inlinable body would let every size change
  /// of a policy translation unit move barrier copies in or out of its
  /// hot loop.
  void arrive_and_wait() noexcept;

 private:
  std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// A persistent worker team. A new pool starts no thread; run_team
/// spawns team threads as a call first needs them and keeps them parked
/// between calls. The destructor joins them (RAII). A team body must not
/// throw — an exception escaping it terminates the process by design.
class ThreadPool {
 public:
  ThreadPool() = default;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Wakes the parked team threads and joins them.
  ~ThreadPool();

  /// Run fn(worker, n) on n workers and block until every invocation
  /// returns. The caller participates as worker 0; the other n-1 run on
  /// dedicated team threads that are spawned lazily on first use, kept
  /// parked on a condition variable between calls, and reused verbatim
  /// on the next call — per-call cost is one wakeup, not n-1 thread
  /// spawns, which is what a per-cycle dispatch needs (see
  /// bench_megafabric's dispatch micro-bench).
  ///
  /// n <= 1 runs fn(0, 1) inline. Only one run_team call may be active
  /// per pool at a time; concurrent callers must use distinct pools.
  void run_team(std::size_t n,
                const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void team_member_loop(std::size_t index, std::uint64_t start_epoch);

  std::vector<std::thread> team_;
  std::mutex team_mutex_;
  std::condition_variable team_wake_;
  std::condition_variable team_done_cv_;
  const std::function<void(std::size_t, std::size_t)>* team_fn_ = nullptr;
  std::size_t team_size_ = 0;   ///< parties of the active call (incl. caller)
  std::uint64_t team_epoch_ = 0;
  std::size_t team_done_ = 0;   ///< team threads finished with this epoch
  bool team_stopping_ = false;
};

/// Run body(i) for i in [begin, end) across \p threads workers
/// (0 = hardware concurrency). Blocks until all iterations complete.
/// Iterations are distributed in contiguous chunks to limit contention.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace mineq::util
