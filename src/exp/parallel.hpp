// Run fan-out: a thread pool and the one loop every independent-run
// fan-out goes through.
//
// Every figure of the paper reduces hundreds of *independent*
// single-threaded simulation runs (scenario x policy x value x seed), so
// the experiment layer — not the kernel — is where parallelism lives
// (DESIGN.md §4 "threading model"): the sweep executor
// (ExperimentRunner::run_scenarios), the golden-digest harness and
// replication all hand their runs to parallel_for_index. Each worker owns
// its own WorkloadBuilder and simulator, RNG seeding stays per-run, and
// results land at their run index, so the output does not depend on the
// worker count.
//
// The worker count resolves, in order: explicit argument >
// REPRO_JOBS_PAR env var > std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace utilrisk::exp {

/// REPRO_JOBS_PAR if set, else hardware_concurrency() (at least 1).
/// Throws std::invalid_argument naming REPRO_JOBS_PAR when the variable is
/// set but is not a positive integer that fits std::size_t.
[[nodiscard]] std::size_t default_worker_count();

/// Fixed-size worker pool: std::jthread workers draining a mutex/condvar
/// task queue. Tasks must not throw (parallel_for_index catches and
/// re-throws after its barrier); submit() never blocks on task execution.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers = default_worker_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for the next free worker.
  void submit(std::function<void()> task);

  /// Barrier: returns once the queue is drained and no task is running.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Workers currently executing a task (diagnostic; e.g. the sweep
  /// progress reporter's "workers busy" figure).
  [[nodiscard]] std::size_t active_count() const {
    std::lock_guard lock(mutex_);
    return active_;
  }

 private:
  void worker_loop(std::stop_token stop);

  mutable std::mutex mutex_;
  std::condition_variable_any work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

/// Body of a parallel_for_index: `shard` names the worker running it (the
/// slot of any per-worker state), `index` the item.
using IndexFn = std::function<void(std::size_t shard, std::size_t index)>;

/// Runs fn(shard, i) for every i in [0, count), each exactly once with
/// dynamic load balancing, and returns after all complete. `shard` is below
/// the pool's worker count. A null `pool` runs every index in order on the
/// calling thread as shard 0 and spawns no thread. The first exception
/// thrown by any index stops further indices from starting and is
/// re-thrown here.
void parallel_for_index(ThreadPool* pool, std::size_t count, const IndexFn& fn);

/// The same over a pool of min(workers, count) threads that lives for this
/// call only; `workers` <= 1 runs on the calling thread.
void parallel_for_index(std::size_t workers, std::size_t count,
                        const IndexFn& fn);

}  // namespace utilrisk::exp
