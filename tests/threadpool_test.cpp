//===-- threadpool_test.cpp - Slice-batch pool tests ----------------------===//
//
// The pool contract the slice engine leans on: every index runs
// exactly once at any lane count, workers start only when a call needs
// them, a busy or nested call runs inline, the first exception reaches
// the caller and leaves the pool usable, and a tripped budget gate
// cancels the un-started remainder of a batch.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace tsl;

namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool;
  for (unsigned Lanes : {1u, 2u, 8u}) {
    constexpr std::size_t N = 1000;
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.parallelFor(
        N, [&](std::size_t I) { Hits[I].fetch_add(1); }, Lanes);
    for (std::size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "lanes " << Lanes << " index " << I;
  }
  // Workers persist and never shrink: the 8-lane batch left seven.
  EXPECT_EQ(Pool.numWorkers(), 7u);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineWithoutWorkers) {
  ThreadPool Pool;
  const std::thread::id Caller = std::this_thread::get_id();
  unsigned Count = 0, Elsewhere = 0;
  auto Count1 = [&](std::size_t) {
    ++Count;
    Elsewhere += std::this_thread::get_id() != Caller;
  };
  Pool.parallelFor(17, Count1, /*MaxConcurrency=*/1);
  Pool.parallelFor(1, Count1, /*MaxConcurrency=*/8); // One index: one lane.
  EXPECT_EQ(Count, 18u);
  EXPECT_EQ(Elsewhere, 0u);
  EXPECT_EQ(Pool.numWorkers(), 0u);
  EXPECT_EQ(Pool.tasksExecuted(), 0u);
}

// A call that finds the pool running a batch — here, from another
// thread while every lane of the first batch is parked — completes
// inline on its own thread instead of waiting for the pool.
TEST(ThreadPool, BusyPoolRunsAConcurrentCallInline) {
  ThreadPool Pool;
  std::atomic<unsigned> Parked{0};
  std::atomic<bool> Release{false};
  std::thread Outer([&] {
    Pool.parallelFor(
        2,
        [&](std::size_t) {
          Parked.fetch_add(1);
          while (!Release.load())
            std::this_thread::yield();
        },
        /*MaxConcurrency=*/2);
  });
  while (Parked.load() != 2)
    std::this_thread::yield();

  const std::thread::id Caller = std::this_thread::get_id();
  unsigned Count = 0, Elsewhere = 0;
  Pool.parallelFor(
      50,
      [&](std::size_t) {
        ++Count;
        Elsewhere += std::this_thread::get_id() != Caller;
      },
      /*MaxConcurrency=*/4);
  EXPECT_EQ(Count, 50u);
  EXPECT_EQ(Elsewhere, 0u);

  Release.store(true);
  Outer.join();
  EXPECT_EQ(Pool.numWorkers(), 1u);
}

// parallelFor from inside an index must not deadlock: the pool is
// busy, so the nested call runs inline on the lane that made it.
TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool Pool;
  std::atomic<unsigned> Inner{0};
  Pool.parallelFor(
      4,
      [&](std::size_t) {
        Pool.parallelFor(50, [&](std::size_t) { Inner.fetch_add(1); }, 4);
      },
      /*MaxConcurrency=*/4);
  EXPECT_EQ(Inner.load(), 200u);
}

// Crash isolation (runs under TSan via the "parallel" label): a lane
// throwing must not terminate a worker or wedge the batch — the first
// exception is rethrown on the caller, the remaining indices are
// cancelled through the gate (reason "exception"), and the SAME pool
// serves later batches completely.
TEST(ThreadPool, ParallelForRethrowsTheFirstExceptionOnTheCaller) {
  ThreadPool Pool;
  for (unsigned Round = 0; Round != 20; ++Round) {
    SharedBudgetGate Gate(nullptr, "test.pool", /*StepCap=*/0);
    EXPECT_THROW(Pool.parallelFor(
                     100,
                     [&](std::size_t I) {
                       if (I == 3)
                         throw std::logic_error("index 3");
                     },
                     /*MaxConcurrency=*/4, &Gate),
                 std::logic_error);
    EXPECT_TRUE(Gate.exhausted());
    EXPECT_EQ(Gate.reason(), "exception");

    std::atomic<unsigned> After{0};
    Pool.parallelFor(100, [&](std::size_t) { After.fetch_add(1); }, 4);
    EXPECT_EQ(After.load(), 100u);
  }
}

// Same isolation without a gate: the exception still cancels the rest
// of the batch and rethrows on the caller, and the pool stays usable.
TEST(ThreadPool, ThrowWithoutGateStillRethrowsAndPoolSurvives) {
  ThreadPool Pool;
  EXPECT_THROW(Pool.parallelFor(
                   32,
                   [&](std::size_t I) {
                     if (I == 0)
                       throw std::logic_error("first");
                   },
                   /*MaxConcurrency=*/3),
               std::logic_error);
  std::atomic<unsigned> After{0};
  Pool.parallelFor(64, [&](std::size_t) { After.fetch_add(1); }, 3);
  EXPECT_EQ(After.load(), 64u);
}

TEST(ThreadPool, BudgetGateCancelsRemainingParallelForIndices) {
  ThreadPool Pool;
  SharedBudgetGate Gate(nullptr, "test.pool", /*StepCap=*/10);
  std::atomic<unsigned> Ran{0};
  Pool.parallelFor(
      1000,
      [&](std::size_t) {
        Gate.spend();
        Ran.fetch_add(1);
      },
      /*MaxConcurrency=*/2, &Gate);
  EXPECT_TRUE(Gate.exhausted());
  // At least the indices that tripped the cap ran; the long tail of
  // the batch was cancelled.
  EXPECT_GE(Ran.load(), 10u);
  EXPECT_LT(Ran.load(), 1000u);
}

// The watchdog's preemptive cancel flag must stop a batch whose items
// never poll the gate: once the budget is cancelled, parallelFor hands
// out no further indices.
TEST(ThreadPool, CancelledBudgetStopsNonPollingBatch) {
  ThreadPool Pool;
  AnalysisBudget B;
  B.BudgetMs = 60'000;
  B.start();
  SharedBudgetGate Gate(&B, "test.pool", /*StepCap=*/0);
  std::atomic<unsigned> Ran{0};
  Pool.parallelFor(
      1000,
      [&](std::size_t I) {
        // Items never call Gate.spend(); only the index boundary can
        // observe the cancellation.
        if (I == 0)
          B.cancel();
        Ran.fetch_add(1);
      },
      /*MaxConcurrency=*/2, &Gate);
  EXPECT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.reason(), "watchdog");
  EXPECT_LT(Ran.load(), 1000u);
}

} // namespace
