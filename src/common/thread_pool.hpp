// Two small thread facilities: a work-stealing pool and a fork-join team.
//
// ThreadPool is built for the library generator's fan-outs: a few coarse
// tasks (seconds each) submitted up front, then a barrier — once for the
// two base trainings, then again for the few dozen design points. Tasks
// must not submit to or wait on their own pool (single fan-out + barrier).
// Each worker owns a deque; submit() deals tasks round-robin, a worker pops
// from the front of its own deque and steals from the back of a victim's
// when it runs dry. Queues are mutex-guarded — task granularity here is
// milliseconds-to-seconds, so lock-free deques would buy nothing — which
// also keeps the pool trivially ThreadSanitizer-clean.
//
// WorkTeam splits the passes *inside* one such task: a training step's
// conv, BatchNorm and activation-quantizer work (tensor/ops.cpp,
// tensor/kernels.cpp), a few hundred microseconds per pass. The owner thread
// and size - 1 helper threads share each run(count, fn) and the call
// returns when every index ran. The owner installs its team with a
// TeamScope; team_for() reads it, so the kernel code needs no extra
// parameter and a thread without a team runs the same body inline. Helpers
// never have a team installed, and run() uninstalls it on the owner while
// the indices execute, so teams never nest.
//
// Determinism contract: the pool schedules tasks in an arbitrary order on
// arbitrary threads, and a team runs its indices on arbitrary threads.
// Callers that need deterministic output (the library generator does — see
// library/generator.hpp) must make every task self-contained (own RNG
// stream, own model clone) and write results into pre-assigned slots, never
// into shared accumulators; team indices likewise write disjoint outputs.
//
// Exception contract: a task that throws no longer escapes into the worker
// thread (which would std::terminate the process). The first exception is
// captured, every task still queued at that point is drained without
// running (the sweep is already doomed; finishing it would only delay the
// report), and the next wait() rethrows the captured exception. After the
// rethrow the pool is reusable: submit()/wait() cycles behave as if freshly
// constructed. Callers that need per-task failure isolation (retry,
// quarantine) must catch inside the task — the library generator does —
// and then this capture path is only a backstop. WorkTeam::run() likewise
// finishes the indices already claimed, skips the rest, and rethrows the
// first exception on the owner.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace adapex {

/// Fixed-size work-stealing pool; tasks are submitted then awaited via
/// wait(). Destruction joins all workers (after draining pending tasks).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads)
      : queues_(num_threads == 0 ? 1 : num_threads) {
    const std::size_t n = queues_.size();
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      stop_ = true;
    }
    work_available_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not themselves call submit() or wait() on
  /// this pool.
  void submit(std::function<void()> task) {
    ADAPEX_CHECK(task != nullptr, "thread pool: null task");
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      ++pending_;
    }
    Queue& q = queues_[next_queue_.fetch_add(1, std::memory_order_relaxed) %
                       queues_.size()];
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      q.tasks.push_back(std::move(task));
    }
    work_available_.notify_one();
  }

  /// Blocks until every submitted task has finished running (or been
  /// drained after a failure). If any task threw, rethrows the *first*
  /// captured exception and resets the failure state, leaving the pool
  /// reusable for subsequent submit()/wait() rounds.
  void wait() {
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      failed_.store(false, std::memory_order_release);
      std::rethrow_exception(error);
    }
  }

  /// Thread count from `ADAPEX_THREADS` (>= 1), defaulting to
  /// hardware_concurrency when unset (or 1 if even that is unknown).
  /// Throws ConfigError on a non-positive or non-numeric value.
  static std::size_t env_thread_count() {
    const std::optional<std::string> env = env_value("ADAPEX_THREADS");
    if (!env) {
      const unsigned hw = std::thread::hardware_concurrency();
      return hw == 0 ? 1 : static_cast<std::size_t>(hw);
    }
    char* end = nullptr;
    const long v = std::strtol(env->c_str(), &end, 10);
    if (*end != '\0' || v < 1) {
      throw ConfigError("ADAPEX_THREADS must be a positive integer, got '" +
                        *env + "'");
    }
    return static_cast<std::size_t>(v);
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool try_pop(std::size_t self, std::function<void()>& out) {
    // Own queue first (front: submission order), then steal from the back
    // of each other queue.
    {
      Queue& q = queues_[self];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.front());
        q.tasks.pop_front();
        return true;
      }
    }
    for (std::size_t k = 1; k < queues_.size(); ++k) {
      Queue& q = queues_[(self + k) % queues_.size()];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.back());
        q.tasks.pop_back();
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    for (;;) {
      std::function<void()> task;
      if (try_pop(self, task)) {
        // Once a task has failed the remaining queued tasks are drained
        // unrun: the relaxed-then-confirm pattern keeps the hot path at one
        // atomic load while the capture itself is serialized under the
        // sleep mutex (first writer wins).
        if (!failed_.load(std::memory_order_acquire)) {
          try {
            task();
          } catch (...) {
            std::lock_guard<std::mutex> lock(sleep_mutex_);
            if (!first_error_) {
              first_error_ = std::current_exception();
              failed_.store(true, std::memory_order_release);
            }
          }
        }
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        if (--pending_ == 0) all_done_.notify_all();
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      if (stop_) return;
      // Re-check under the lock: a task may have been submitted between the
      // failed pop and acquiring the lock; waking spuriously is harmless.
      work_available_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }

  std::vector<Queue> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_queue_{0};

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  /// First task exception of the current submit/wait round, rethrown (and
  /// cleared) by wait(). Guarded by sleep_mutex_; failed_ mirrors its
  /// presence for the workers' lock-free fast path. An exception that is
  /// never wait()ed for is dropped at destruction — destroying a pool
  /// without the barrier already forfeits the results.
  std::exception_ptr first_error_;
  std::atomic<bool> failed_{false};
};

/// Fork-join team: the constructing (owner) thread plus size - 1 helper
/// threads. Only the owner calls run(). Helpers spin briefly between runs,
/// then block, so a host with more threads than cores never livelocks.
class WorkTeam {
 public:
  explicit WorkTeam(std::size_t size) {
    helpers_.reserve(size > 1 ? size - 1 : 0);
    try {
      for (std::size_t i = 1; i < size; ++i) {
        helpers_.emplace_back([this] { helper_loop(); });
      }
    } catch (...) {
      stop_helpers();  // the helpers already started must not outlive us
      throw;
    }
  }

  WorkTeam(const WorkTeam&) = delete;
  WorkTeam& operator=(const WorkTeam&) = delete;

  ~WorkTeam() { stop_helpers(); }

  std::size_t size() const { return helpers_.size() + 1; }

  /// Calls fn(i) once for every i in [0, count), spread over the team, and
  /// returns when all calls finished. A team of size 1 (or count <= 1)
  /// runs them inline in ascending order. If calls throw, the indices not
  /// yet claimed are skipped and the first exception is rethrown here.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    TeamScope no_nesting(nullptr);
    if (helpers_.empty() || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    busy_.store(helpers_.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();
    work();
    for (int spin = 0; busy_.load(std::memory_order_acquire) != 0; ++spin) {
      if (spin < kSpins) {
        relax(spin);
        continue;
      }
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] {
        return busy_.load(std::memory_order_acquire) == 0;
      });
    }
    fn_ = nullptr;
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  /// The team installed on the calling thread, or nullptr.
  static WorkTeam* current() { return slot(); }

  /// Installs a team (or none) on the calling thread for its lifetime.
  class TeamScope {
   public:
    explicit TeamScope(WorkTeam* team) : saved_(slot()) { slot() = team; }
    ~TeamScope() { slot() = saved_; }
    TeamScope(const TeamScope&) = delete;
    TeamScope& operator=(const TeamScope&) = delete;

   private:
    WorkTeam* saved_;
  };

 private:
  /// Spin iterations before a waiting thread blocks: about 0.4 ms on a
  /// 4-core AMD EPYC (a pause is ~23 ns), longer than the serial gaps
  /// between the split passes of a training step, so a busy team never
  /// pays a futex wake-up per pass.
  static constexpr int kSpins = 1 << 14;

  static WorkTeam*& slot() {
    thread_local WorkTeam* team = nullptr;
    return team;
  }

  void stop_helpers() {
    stop_.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();
    for (auto& h : helpers_) h.join();
  }

  static void relax(int spin) {
    if ((spin & 255) == 255) {
      std::this_thread::yield();
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  // Claims indices until none remain; the first exception stops the
  // claiming on every thread.
  void work() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) return;
      try {
        (*fn_)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
        next_.store(count_, std::memory_order_relaxed);
      }
    }
  }

  void helper_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
      for (int spin = 0; epoch == seen && spin < kSpins; ++spin) {
        relax(spin);
        epoch = epoch_.load(std::memory_order_acquire);
      }
      if (epoch == seen) {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        });
        epoch = epoch_.load(std::memory_order_acquire);
      }
      seen = epoch;
      if (stop_.load(std::memory_order_relaxed)) return;
      work();
      // The last helper notifies under the mutex after its decrement, so
      // an owner that checked busy_ under the mutex either saw 0 or is
      // already waiting.
      if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_one();
      }
    }
  }

  // The current run: written by the owner before the epoch bump (release),
  // read by helpers after observing it (acquire).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  /// Helpers still inside the current run.
  std::atomic<std::size_t> busy_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  /// Set before stop_helpers()'s epoch bump, so read after observing it.
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;  ///< First exception of a run; mutex_.
  /// Last, so everything the helpers use exists before they start.
  std::vector<std::thread> helpers_;
};

/// Runs fn(i) for every i in [0, count) on the calling thread's team
/// (WorkTeam::TeamScope), or inline in ascending order without one.
inline void team_for(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (WorkTeam* team = WorkTeam::current()) {
    team->run(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

/// Threads of the calling thread's team: 1 without one.
inline std::size_t team_size() {
  const WorkTeam* team = WorkTeam::current();
  return team == nullptr ? 1 : team->size();
}

}  // namespace adapex
