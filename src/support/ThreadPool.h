//===-- ThreadPool.h - Slice-batch parallel-for pool ------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pool behind the slice engine's batches, the only parallel work
/// left (the analysis stages run sequentially). It offers one
/// operation, parallelFor(): lanes take indices from one atomic
/// cursor, so imbalanced items self-balance. Workers are persistent:
/// they start the first time a call asks for more lanes than the pool
/// has, never per batch, and never go away before the pool does.
///
/// One batch runs at a time. A call that finds the pool busy — a
/// concurrent caller, or a nested call from inside an index — runs its
/// loop inline on its own thread, so there is no queue, no helping
/// wait and no way to deadlock.
///
/// Determinism contract: the pool itself makes no ordering promises —
/// slice batches stay byte-identical across thread counts because
/// each work item reads only the frozen SDG and writes only its own
/// result slot (see DESIGN.md section 11).
///
/// Budget governance is cooperative: parallelFor() takes an optional
/// SharedBudgetGate and stops handing out new indices once the gate
/// trips, so a deadline or step cap cancels the remaining indices
/// without interrupting an index mid-flight.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_THREADPOOL_H
#define THINSLICER_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tsl {

class SharedBudgetGate;

/// A parallel-for pool. The thread calling parallelFor() is always one
/// of the lanes; a pool that has only run inline has no workers.
class ThreadPool {
public:
  ThreadPool() = default;

  /// Joins the workers. Must not run concurrently with parallelFor().
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Worker threads started so far (0 until a call needed one).
  unsigned numWorkers() const { return NumWorkers.load(); }

  /// Runs Fn(0) .. Fn(N-1), each exactly once unless cancelled,
  /// blocking until every started index finished. Runs inline on the
  /// caller — no worker involved — when N <= 1, when one lane is
  /// asked for, or when the pool is already running a batch.
  ///
  /// \p MaxConcurrency caps the lanes used, the caller included
  /// (0 = std::thread::hardware_concurrency()); the pool starts
  /// workers up to that cap. \p Gate, when non-null, is checked
  /// between indices: once it is exhausted — or the budget it wraps
  /// was preemptively cancelled by the watchdog — no further index
  /// starts (indices already running finish). The first exception
  /// thrown by Fn cancels the remaining indices (through \p Gate too,
  /// reason "exception") and is rethrown here on the caller; the pool
  /// stays usable.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Fn,
                   unsigned MaxConcurrency = 0,
                   SharedBudgetGate *Gate = nullptr);

  /// Lanes run by pooled batches (one per lane, the caller's included;
  /// inline loops count none).
  uint64_t tasksExecuted() const {
    return TasksExecuted.load(std::memory_order_relaxed);
  }

private:
  struct Batch;

  void workerLoop();

  /// Set while a pooled batch runs; a call that finds it set runs
  /// inline.
  std::atomic<bool> Busy{false};

  std::atomic<unsigned> NumWorkers{0};
  std::atomic<uint64_t> TasksExecuted{0};

  std::mutex Mu; ///< Guards everything below.
  std::condition_variable WorkCV; ///< Lanes opened, or Stopping.
  std::condition_variable DoneCV; ///< The last running worker lane ended.
  Batch *Current = nullptr;
  unsigned OpenLanes = 0;    ///< Lanes of Current no worker took yet.
  unsigned RunningLanes = 0; ///< Worker lanes of Current still running.
  bool Stopping = false;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> Workers;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_THREADPOOL_H
