//===-- bench_parallel_pipeline.cpp - End-to-end cold pipeline ------------------==//
//
// The whole analysis pipeline — compile, points-to, mod-ref, SDG
// construction, and a 100-seed slice batch — on the largest
// scalability workload, one cold session per iteration. Every stage
// and the batch run sequentially on the calling thread. The
// BM_PipelineEndToEnd Args (1, 4, 8) are ignored: they once set a
// slice-pool size and are kept so the rows keep the names of the
// recorded BENCH_parallel_pipeline.json baseline.
//
//   ./bench/bench_parallel_pipeline
//   ./bench/bench_parallel_pipeline --benchmark_out=BENCH_parallel_pipeline.json
//                                   --benchmark_out_format=json
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace tsl;

namespace {

/// Largest pad size of the scalability sweep (bench_scalability).
constexpr unsigned PAD = 12;
constexpr unsigned NUM_SEEDS = 100;

const std::string &workloadSource() {
  static const std::string Source =
      padWorkload(debuggingCases().front().Prog, "PP", PAD, 6).Source;
  return Source;
}

/// One cold end-to-end pipeline run: everything a `thinslice --seeds`
/// invocation pays after argv parsing.
double pipelineMs() {
  auto T0 = std::chrono::steady_clock::now();
  AnalysisSession S(workloadSource());
  SliceEngine *E = S.engine();
  std::vector<const Instr *> Seeds =
      collectSliceSeeds(*S.program(), NUM_SEEDS);
  auto R = E->sliceBackwardBatch(Seeds);
  benchmark::DoNotOptimize(R);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Each iteration is a cold session: the pipeline stages all rerun,
/// nothing is served from a warm cache.
void BM_PipelineEndToEnd(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(pipelineMs());
  State.counters["seeds"] = NUM_SEEDS;
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Analysis pipeline: end-to-end ===\n\n");

  // One warm-up to pull the workload source and any lazy statics out
  // of the measurement, then a median of 5 (single cold runs are too
  // noisy to headline).
  (void)pipelineMs();
  std::vector<double> Ms;
  for (int I = 0; I != 5; ++I)
    Ms.push_back(pipelineMs());
  std::sort(Ms.begin(), Ms.end());
  printf("workload: nanoxml pad %u, %u seeds\n", PAD, NUM_SEEDS);
  printf("cold pipeline: %8.3f ms end-to-end (median of 5)\n\n",
         Ms[Ms.size() / 2]);

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
