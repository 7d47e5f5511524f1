//===-- bench_pta_solver.cpp - Reference vs. production Andersen solver ---------==//
//
// The pointer analysis dominates end-to-end slicing cost (paper
// Sec. 6.1 and bench_scalability), so this harness pits the naive
// reference solver (runPointsToReference: full sets, FIFO order, no
// cycle collapsing) against the production one (difference
// propagation + lazy cycle elimination + topological worklist) on
// solverStressWorkload at several pad sizes. SolverStats are exported
// as benchmark counters so propagation-count reductions are visible
// next to the wall-time speedup:
//
//   ./bench/bench_pta_solver
//   ./bench/bench_pta_solver --benchmark_out=BENCH_pta_solver.json
//                            --benchmark_out_format=json
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

using namespace tsl;

namespace {

/// Largest pad size benchmarked; the head-to-head summary in main()
/// runs on this one.
constexpr unsigned MAX_PAD = 24;

/// One compiled padded workload per pad size, shared by both solvers.
Program &programForPad(unsigned Pad) {
  static std::map<unsigned, std::unique_ptr<Program>> Cache;
  auto It = Cache.find(Pad);
  if (It == Cache.end()) {
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P =
        compileThinJ(solverStressWorkload(Pad).Source, Diag);
    It = Cache.emplace(Pad, std::move(P)).first;
  }
  return *It->second;
}

using SolverFn = std::unique_ptr<PointsToResult> (*)(Program &,
                                                     const PTAOptions &);

void reportCounters(benchmark::State &State, const SolverStats &S) {
  State.counters["nodes"] = static_cast<double>(S.NumNodes);
  State.counters["rep_nodes"] = static_cast<double>(S.NumRepNodes);
  State.counters["copy_edges"] = static_cast<double>(S.NumCopyEdges);
  State.counters["objects"] = static_cast<double>(S.NumObjects);
  State.counters["pops"] = static_cast<double>(S.WorklistPops);
  State.counters["propagations"] = static_cast<double>(S.Propagations);
  State.counters["nochange_props"] =
      static_cast<double>(S.NoChangePropagations);
  State.counters["delta_bits"] = static_cast<double>(S.DeltaBitsMoved);
  State.counters["cons_evals"] = static_cast<double>(S.ConstraintEvals);
  State.counters["cycles_collapsed"] = static_cast<double>(S.CyclesCollapsed);
  State.counters["nodes_merged"] = static_cast<double>(S.NodesMerged);
}

void runSolverBench(benchmark::State &State, SolverFn Solve) {
  Program &P = programForPad(static_cast<unsigned>(State.range(0)));
  SolverStats Last;
  for (auto _ : State) {
    std::unique_ptr<PointsToResult> R = Solve(P, PTAOptions());
    Last = R->stats();
    benchmark::DoNotOptimize(R);
  }
  reportCounters(State, Last);
}

void BM_SolverNaive(benchmark::State &State) {
  runSolverBench(State, runPointsToReference);
}
BENCHMARK(BM_SolverNaive)->Arg(0)->Arg(8)->Arg(16)->Arg(MAX_PAD)
    ->Unit(benchmark::kMillisecond);

void BM_SolverOptimized(benchmark::State &State) {
  runSolverBench(State, runPointsTo);
}
BENCHMARK(BM_SolverOptimized)->Arg(0)->Arg(8)->Arg(16)->Arg(MAX_PAD)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Andersen solver: reference vs. production ===\n\n");

  // Head-to-head on the largest padded workload, work counters
  // included (the benchmark timings below are the authoritative wall
  // times; this is the one-glance summary).
  Program &P = programForPad(MAX_PAD);
  SolverStats Naive, Opt;
  {
    std::unique_ptr<PointsToResult> R = runPointsToReference(P, PTAOptions());
    Naive = R->stats();
  }
  {
    std::unique_ptr<PointsToResult> R = runPointsTo(P);
    Opt = R->stats();
  }
  printf("reference (full-set, FIFO):\n%s\n", Naive.str().c_str());
  printf("production (delta + LCD + topo worklist):\n%s\n",
         Opt.str().c_str());
  if (Opt.SolveSeconds > 0 && Opt.Propagations > 0 && Opt.DeltaBitsMoved > 0)
    printf("speedup: %.2fx wall, %.2fx fewer propagations, "
           "%.2fx fewer delta bits moved\n\n",
           Naive.SolveSeconds / Opt.SolveSeconds,
           static_cast<double>(Naive.Propagations) / Opt.Propagations,
           static_cast<double>(Naive.DeltaBitsMoved) / Opt.DeltaBitsMoved);

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
