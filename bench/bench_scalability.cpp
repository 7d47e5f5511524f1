//===-- bench_scalability.cpp - Sec. 6.1 scalability claims ---------------------==//
//
// Reproduces the scalability observations of paper Section 6.1:
//
//  - context-insensitive thin/traditional slicing is graph
//    reachability and costs microseconds — negligible next to the
//    prerequisite pointer analysis;
//  - the context-sensitive representation's heap parameters explode:
//    heap formal/actual nodes and summary edges grow super-linearly
//    with program size (the paper's full SDG exceeded 10M nodes and
//    exhausted memory on large benchmarks; a commercial slicer hits
//    the same wall).
//
// The sweep pads the nanoxml model with growing amounts of reachable
// library code and reports sizes and times per configuration. The
// BM_CsSdgBuild and BM_CsSummaries rows time the two context-sensitive
// layers alone at pads 8 and 12: a cold heap-parameter SDG build from
// cached points-to and mod-ref, and the traditional-mode summary
// computation of the table's summary-ms column.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>

using namespace tsl;

namespace {

/// One warm session for every benchmark in this binary; the raw
/// pointers borrow from it.
struct Built {
  std::unique_ptr<AnalysisSession> S;
  SDG *G = nullptr;
  const Instr *Seed = nullptr;
};

Built &builtOnce() {
  static Built B = [] {
    Built Out;
    WorkloadProgram W = padWorkload(debuggingCases().front().Prog, "SB", 8, 6);
    Out.S = std::make_unique<AnalysisSession>(W.Source);
    Out.G = Out.S->sdg();
    Out.Seed = instrAtLine(*Out.S->program(), W.markerLine("n1-seed"));
    return Out;
  }();
  return B;
}

void BM_ThinSlice(benchmark::State &State) {
  Built &B = builtOnce();
  for (auto _ : State) {
    SliceResult S = sliceBackward(*B.G, B.Seed, SliceMode::Thin);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_ThinSlice)->Unit(benchmark::kMicrosecond);

void BM_TraditionalSlice(benchmark::State &State) {
  Built &B = builtOnce();
  for (auto _ : State) {
    SliceResult S = sliceBackward(*B.G, B.Seed, SliceMode::Traditional);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_TraditionalSlice)->Unit(benchmark::kMicrosecond);

/// The padded nanoxml program of the scalability table at one pad,
/// with points-to, mod-ref and the context-sensitive SDG built once.
struct CsBuilt {
  std::unique_ptr<AnalysisSession> S;
  SDG *CS = nullptr;
};

CsBuilt &csBuilt(unsigned Pad) {
  static std::map<unsigned, CsBuilt> Cache;
  CsBuilt &B = Cache[Pad];
  if (!B.S) {
    WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "S", Pad, 6);
    B.S = std::make_unique<AnalysisSession>(W.Source);
    B.S->modRef();
    SDGOptions CSOpts;
    CSOpts.ContextSensitive = true;
    B.S->setSDGOptions(CSOpts);
    B.CS = B.S->sdg();
  }
  return B;
}

void BM_CsSdgBuild(benchmark::State &State) {
  CsBuilt &B = csBuilt(static_cast<unsigned>(State.range(0)));
  SDGOptions CSOpts;
  CSOpts.ContextSensitive = true;
  for (auto _ : State) {
    std::unique_ptr<SDG> G = buildSDG(*B.S->program(), *B.S->pointsTo(),
                                      B.S->modRef(), CSOpts);
    benchmark::DoNotOptimize(G->numEdges());
  }
  State.counters["heap_nodes"] = B.CS->numHeapParamNodes();
  State.counters["edges"] = B.CS->numEdges();
}
BENCHMARK(BM_CsSdgBuild)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_CsSummaries(benchmark::State &State) {
  CsBuilt &B = csBuilt(static_cast<unsigned>(State.range(0)));
  unsigned Summaries = 0;
  for (auto _ : State) {
    TabulationSlicer Tab(*B.CS, SliceMode::Traditional);
    Summaries = Tab.numSummaryEdges();
    benchmark::DoNotOptimize(Summaries);
  }
  State.counters["summary_edges"] = Summaries;
}
BENCHMARK(BM_CsSummaries)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Thin Slicing reproduction: scalability (Sec. 6.1) ===\n\n");
  auto Rows = runScalability({0, 2, 4, 8, 12});
  printf("%s\n", formatScalability(Rows).c_str());
  if (Rows.size() >= 2) {
    const ScalabilityRow &First = Rows.front();
    const ScalabilityRow &Last = Rows.back();
    double StmtGrowth =
        static_cast<double>(Last.SDGStmts) / First.SDGStmts;
    double HeapGrowth = static_cast<double>(Last.CSHeapParamNodes) /
                        First.CSHeapParamNodes;
    double SummaryGrowth =
        static_cast<double>(Last.SummaryEdges) / First.SummaryEdges;
    printf("growth %ux statements -> %.1fx CS heap-parameter nodes, "
           "%.1fx summary edges\n",
           static_cast<unsigned>(StmtGrowth), HeapGrowth, SummaryGrowth);
    printf("(the paper's Sec. 6.1 bottleneck: heap parameter passing "
           "explodes; CI thin slicing stays negligible)\n\n");
  }

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
