//===-- ThreadPool.cpp - Slice-batch parallel-for pool -------------------===//

#include "support/ThreadPool.h"

#include "support/Budget.h"

#include <exception>
#include <system_error>

using namespace tsl;

/// One pooled parallelFor() call, shared by its lanes. Lives on the
/// caller's stack; the caller waits for every worker lane that joined
/// before it returns.
struct ThreadPool::Batch {
  Batch(std::size_t N, const std::function<void(std::size_t)> &Fn,
        SharedBudgetGate *Gate)
      : N(N), Fn(Fn), Gate(Gate) {}

  /// Takes indices until the cursor runs out, the gate stops the
  /// batch, or some lane threw.
  void runLane() {
    for (std::size_t I;
         (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;) {
      if (Abort.load(std::memory_order_relaxed))
        return;
      // Index-boundary stop check: also observes the watchdog's
      // preemptive cancel flag, so a batch whose items never poll is
      // still cut off between indices.
      if (Gate && Gate->stop())
        return;
      try {
        Fn(I);
      } catch (...) {
        {
          std::lock_guard<std::mutex> L(ErrMu);
          if (!Err)
            Err = std::current_exception();
        }
        Abort.store(true, std::memory_order_relaxed);
        // The exception cancels the remaining indices through the
        // shared gate too, so any stage polling it stops at its next
        // check instead of burning work for a discarded result.
        if (Gate)
          Gate->cancel("exception");
        return;
      }
    }
  }

  const std::size_t N;
  const std::function<void(std::size_t)> &Fn;
  SharedBudgetGate *const Gate;
  std::atomic<std::size_t> Next{0};
  std::atomic<bool> Abort{false};
  std::mutex ErrMu;
  std::exception_ptr Err;
};

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    WorkCV.wait(L, [this] { return Stopping || OpenLanes != 0; });
    if (Stopping)
      return;
    --OpenLanes;
    ++RunningLanes;
    Batch *B = Current;
    L.unlock();
    B->runLane();
    TasksExecuted.fetch_add(1, std::memory_order_relaxed);
    L.lock();
    if (--RunningLanes == 0)
      DoneCV.notify_one();
  }
}

void ThreadPool::parallelFor(std::size_t N,
                             const std::function<void(std::size_t)> &Fn,
                             unsigned MaxConcurrency,
                             SharedBudgetGate *Gate) {
  if (N == 0)
    return;
  std::size_t Lanes =
      MaxConcurrency ? MaxConcurrency : std::thread::hardware_concurrency();
  if (N < Lanes)
    Lanes = N;

  if (Lanes <= 1 || Busy.exchange(true)) {
    // Inline: a plain loop on the caller, no worker, no
    // synchronization.
    for (std::size_t I = 0; I != N; ++I) {
      if (Gate && Gate->stop())
        return;
      Fn(I);
    }
    return;
  }

  Batch B(N, Fn, Gate);
  {
    std::lock_guard<std::mutex> L(Mu);
    try {
      while (Workers.size() + 1 < Lanes)
        Workers.emplace_back([this] { workerLoop(); });
    } catch (const std::system_error &) {
      // Out of threads: the workers that exist take the open lanes.
    }
    NumWorkers.store(static_cast<unsigned>(Workers.size()));
    Current = &B;
    OpenLanes = static_cast<unsigned>(Lanes - 1);
  }
  WorkCV.notify_all();
  B.runLane(); // The caller is one lane.
  TasksExecuted.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> L(Mu);
    // The caller's lane ends only once the batch hands out no more
    // indices, so lanes no worker took yet have nothing to do.
    OpenLanes = 0;
    DoneCV.wait(L, [this] { return RunningLanes == 0; });
    Current = nullptr;
  }
  Busy.store(false);

  if (B.Err)
    std::rethrow_exception(B.Err);
}
