//===-- engine_test.cpp - Batched slice-engine tests ----------------------------==//
//
// Differential coverage for SliceEngine, the one query path: every
// query kind (backward and forward, chops, aliasing levels 0-3 and the
// fixpoint expansion) in every configuration (one seed and many,
// context-insensitive and -sensitive, summary cache cold and warm,
// both slice modes) must produce node-identical results
// to the reference slicers — the edge-record traversals and per-node
// expansion loop in tests/oracle for CI, TabulationSlicer::slice for
// CS — plus unit coverage of dedup, the condensation cache, epoch
// invalidation, and batch-wide budget degradation. These tests carry
// the "engine" ctest label, which the sanitizer trees run.

#include "eval/Experiments.h"
#include "eval/Generator.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include "oracle/SliceOracle.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace tsl;

namespace {

struct Compiled {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *CI = nullptr;
  SDG *CS = nullptr;
};

Compiled compile(const std::string &Source, bool WithCS = false) {
  Compiled C;
  C.S = std::make_unique<AnalysisSession>(Source);
  C.P = C.S->program();
  EXPECT_NE(C.P, nullptr) << C.S->diagnostics().str();
  if (!C.P)
    return C;
  C.PTA = C.S->pointsTo();
  C.CI = C.S->sdg();
  if (WithCS) {
    SDGOptions CSOpts;
    CSOpts.ContextSensitive = true;
    C.S->setSDGOptions(CSOpts);
    C.CS = C.S->sdg();
    C.S->setSDGOptions(SDGOptions());
  }
  return C;
}

/// Node- and statement-identity between a batch result and its
/// single-seed reference.
void expectIdentical(const SliceResult &Got, const SliceResult &Want,
                     const std::string &What) {
  EXPECT_TRUE(Got.nodeSet() == Want.nodeSet()) << What << ": node sets differ";
  EXPECT_TRUE(Got.statements() == Want.statements())
      << What << ": statement lists differ";
}

std::string tag(const char *Case, SliceMode Mode, std::size_t Seed) {
  return std::string(Case) + (Mode == SliceMode::Thin ? "/thin" : "/trad") +
         "/seed" + std::to_string(Seed);
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: eval cases
//===----------------------------------------------------------------------===//

// Every evaluation case's seed, batched per shared program graph, must
// match the legacy edge-record slicer seed by seed — both modes.
TEST(Engine, DifferentialEvalCases) {
  std::map<std::string, Compiled> Programs;
  std::map<std::string, std::vector<const Instr *>> SeedsOf;

  auto Add = [&](const WorkloadProgram &Prog, const std::string &Marker) {
    auto It = Programs.find(Prog.Name);
    if (It == Programs.end())
      It = Programs.emplace(Prog.Name, compile(Prog.Source)).first;
    if (!It->second.P)
      return;
    const Instr *Seed = instrAtLine(*It->second.P, Prog.markerLine(Marker));
    if (Seed)
      SeedsOf[Prog.Name].push_back(Seed);
  };
  for (const BugCase &Case : debuggingCases())
    Add(Case.Prog, Case.SeedMarker);
  for (const CastCase &Case : toughCastCases())
    Add(Case.Prog,
        Case.SeedMarker.empty() ? Case.CastMarker : Case.SeedMarker);
  ASSERT_FALSE(SeedsOf.empty());

  for (auto &[Name, Seeds] : SeedsOf) {
    const Compiled &C = Programs.at(Name);
    SliceEngine Engine(*C.CI);
    for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
      // Per-seed reference slices, computed once per mode.
      std::vector<SliceResult> Ref;
      for (const Instr *Seed : Seeds)
        Ref.push_back(sliceBackwardLegacy(*C.CI, Seed, Mode));
      BatchOptions Opts;
      Opts.Mode = Mode;
      std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
      ASSERT_EQ(Got.size(), Seeds.size());
      for (std::size_t I = 0; I != Seeds.size(); ++I)
        expectIdentical(Got[I], Ref[I], tag(Name.c_str(), Mode, I));
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: 50 generated seeds, context-insensitive
//===----------------------------------------------------------------------===//

TEST(Engine, DifferentialGeneratedSeedsCI) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "ET", /*PadClasses=*/4,
                  /*MethodsPerClass=*/4);
  Compiled C = compile(W.Source);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 50);
  ASSERT_EQ(Seeds.size(), 50u);

  SliceEngine Engine(*C.CI);
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    std::vector<SliceResult> Ref;
    for (const Instr *Seed : Seeds)
      Ref.push_back(sliceBackwardLegacy(*C.CI, Seed, Mode));
    BatchOptions Opts;
    Opts.Mode = Mode;
    std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
    ASSERT_EQ(Got.size(), Seeds.size());
    EXPECT_EQ(Engine.stats().Queries, 50u);
    for (std::size_t I = 0; I != Seeds.size(); ++I)
      expectIdentical(Got[I], Ref[I], tag("generated", Mode, I));
  }
}

//===----------------------------------------------------------------------===//
// Differential: context-sensitive, summary cache cold and warm
//===----------------------------------------------------------------------===//

TEST(Engine, DifferentialContextSensitive) {
  Compiled C = compile(debuggingCases().front().Prog.Source, /*WithCS=*/true);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 50);
  ASSERT_FALSE(Seeds.empty());

  SliceEngine Engine(*C.CS);
  SummaryCache Cache;
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    TabulationSlicer Ref(*C.CS, Mode);
    std::vector<SliceResult> Want;
    for (const Instr *Seed : Seeds)
      Want.push_back(Ref.slice(Seed));
    bool First = true; // First batch of this mode misses the cache.
    for (bool Warm : {false, true}) {
      BatchOptions Opts;
      Opts.Mode = Mode;
      Opts.ContextSensitive = true;
      Opts.Summaries = &Cache;
      std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
      ASSERT_EQ(Got.size(), Seeds.size());
      EXPECT_EQ(Engine.stats().SummariesReused, !First);
      First = false;
      for (std::size_t I = 0; I != Seeds.size(); ++I)
        expectIdentical(Got[I], Want[I],
                        tag(Warm ? "cs-warm" : "cs-cold", Mode, I));
    }
  }
  // Both modes' summary sets live in the cache and the warm batches
  // hit it.
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_GT(Cache.hits(), 0u);
}

//===----------------------------------------------------------------------===//
// Dedup
//===----------------------------------------------------------------------===//

TEST(Engine, DeduplicatesSeeds) {
  Compiled C = compile(R"(
def main() {
  var a = readInt();
  var b = a + 1;
  print(a);
  print(b);
}
)");
  ASSERT_NE(C.P, nullptr);
  const Instr *A = instrAtLine(*C.P, 5); // print(a)
  const Instr *B = instrAtLine(*C.P, 6); // print(b)
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);

  SliceEngine Engine(*C.CI);
  std::vector<const Instr *> Seeds{A, B, A, A, B};
  std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds);
  ASSERT_EQ(Got.size(), 5u);
  EXPECT_EQ(Engine.stats().Queries, 5u);
  EXPECT_EQ(Engine.stats().UniqueQueries, 2u);
  // Duplicate positions carry the unique query's result.
  EXPECT_TRUE(Got[0].nodeSet() == Got[2].nodeSet());
  EXPECT_TRUE(Got[0].nodeSet() == Got[3].nodeSet());
  EXPECT_TRUE(Got[1].nodeSet() == Got[4].nodeSet());
  for (std::size_t I = 0; I != Seeds.size(); ++I)
    expectIdentical(Got[I],
                    sliceBackwardLegacy(*C.CI, Seeds[I], SliceMode::Thin),
                    tag("dedup", SliceMode::Thin, I));
}

TEST(Engine, EmptyBatch) {
  Compiled C = compile("def main() { print(1); }");
  ASSERT_NE(C.P, nullptr);
  SliceEngine Engine(*C.CI);
  EXPECT_TRUE(Engine.sliceBackwardBatch({}).empty());
  EXPECT_EQ(Engine.stats().Queries, 0u);
  EXPECT_EQ(Engine.stats().UniqueQueries, 0u);
}

//===----------------------------------------------------------------------===//
// Condensation cache
//===----------------------------------------------------------------------===//

TEST(Engine, CondensationCachedPerModeAndEpoch) {
  Compiled C = compile(R"(
def main() {
  var a = readInt();
  var b = a * 2;
  print(b);
}
)");
  ASSERT_NE(C.P, nullptr);
  const Instr *Seed = instrAtLine(*C.P, 5);
  const Instr *Other = instrAtLine(*C.P, 4);
  ASSERT_NE(Seed, nullptr);
  ASSERT_NE(Other, nullptr);
  // Two distinct seeds: a single one runs the breadth-first kernel
  // and never condenses (see SingleSeedNeverCondenses).
  const std::vector<const Instr *> Seeds{Seed, Other};
  SliceEngine Engine(*C.CI);

  BatchOptions Thin;
  Engine.sliceBackwardBatch(Seeds, Thin);
  EXPECT_FALSE(Engine.stats().CondensationReused);
  Engine.sliceBackwardBatch(Seeds, Thin);
  EXPECT_TRUE(Engine.stats().CondensationReused);

  // A different mode masks a different subgraph: its first batch
  // builds, its second reuses.
  BatchOptions Trad;
  Trad.Mode = SliceMode::Traditional;
  Engine.sliceBackwardBatch(Seeds, Trad);
  EXPECT_FALSE(Engine.stats().CondensationReused);
  Engine.sliceBackwardBatch(Seeds, Trad);
  EXPECT_TRUE(Engine.stats().CondensationReused);

  // Forward queries sweep the same condensation in the other order.
  SliceQuery Fwd;
  Fwd.Direction = SliceDirection::Forward;
  Fwd.Seeds = Seeds;
  Engine.run(Fwd);
  EXPECT_TRUE(Engine.stats().CondensationReused);

  // Any graph mutation bumps the epoch and invalidates every cached
  // condensation. A Flow self-edge is semantically inert, so the
  // post-mutation batch must still match the reference slicer.
  bool Added = false;
  for (unsigned N = 0; N != C.CI->numNodes() && !Added; ++N)
    Added = C.CI->addEdge(N, N, SDGEdgeKind::Flow);
  ASSERT_TRUE(Added);
  std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Thin);
  EXPECT_FALSE(Engine.stats().CondensationReused);
  expectIdentical(Got.front(),
                  sliceBackwardLegacy(*C.CI, Seed, SliceMode::Thin),
                  "post-epoch-bump");
  Engine.sliceBackwardBatch(Seeds, Thin);
  EXPECT_TRUE(Engine.stats().CondensationReused);
}

// A one-seed query (what the CLI, the REPL and the daemon ask for one
// line) runs the breadth-first kernel: no condensation is built, so
// the first multi-seed batch afterwards still has to build one.
TEST(Engine, SingleSeedNeverCondenses) {
  Compiled C = compile(R"(
def main() {
  var a = readInt();
  var b = a * 2;
  print(b);
}
)");
  ASSERT_NE(C.P, nullptr);
  const Instr *Seed = instrAtLine(*C.P, 5);
  const Instr *Other = instrAtLine(*C.P, 4);
  SliceEngine Engine(*C.CI);
  for (SliceDirection Dir : {SliceDirection::Backward,
                             SliceDirection::Forward}) {
    SliceResult One = Engine.run(SliceQuery::of(Seed, SliceMode::Thin, Dir))
                          .front();
    EXPECT_FALSE(Engine.stats().CondensationReused);
    EXPECT_TRUE(One.complete());
  }
  // Duplicates of one seed are still one unique query.
  Engine.sliceBackwardBatch({Seed, Seed, Seed});
  EXPECT_EQ(Engine.stats().UniqueQueries, 1u);
  Engine.sliceBackwardBatch({Seed, Other});
  EXPECT_FALSE(Engine.stats().CondensationReused);
}

//===----------------------------------------------------------------------===//
// Batch-wide budget
//===----------------------------------------------------------------------===//

TEST(Engine, BatchBudgetDegradesSoundly) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "EB", /*PadClasses=*/2,
                  /*MethodsPerClass=*/4);
  Compiled C = compile(W.Source);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 20);
  ASSERT_FALSE(Seeds.empty());

  SliceEngine Engine(*C.CI);
  std::vector<SliceResult> Full = Engine.sliceBackwardBatch(Seeds);

  AnalysisBudget Budget;
  Budget.MaxSlicePops = 3; // Trips almost immediately.
  BatchOptions Opts;
  Opts.Budget = &Budget;
  std::vector<SliceResult> Capped = Engine.sliceBackwardBatch(Seeds, Opts);
  ASSERT_EQ(Capped.size(), Full.size());

  bool AnyDegraded = false;
  for (std::size_t I = 0; I != Capped.size(); ++I) {
    if (!Capped[I].complete()) {
      AnyDegraded = true;
      EXPECT_FALSE(Capped[I].degradedReason().empty());
    }
    // A capped slice is a subset of the uncapped one (sound
    // under-approximation).
    Capped[I].nodeSet().forEach([&](unsigned Node) {
      EXPECT_TRUE(Full[I].containsNode(Node))
          << "seed " << I << " node " << Node;
    });
  }
  EXPECT_TRUE(AnyDegraded);
}

//===----------------------------------------------------------------------===//
// Differential: every query kind against the oracle
//===----------------------------------------------------------------------===//

namespace {

/// Runs every context-insensitive query kind for \p Seeds on \p G — as
/// one batch, and seed by seed (the breadth-first path) — and compares
/// each result with the oracle's.
void expectEveryKindMatchesOracle(const SDG &G,
                                  const std::vector<const Instr *> &Seeds,
                                  const std::string &Name) {
  ASSERT_FALSE(Seeds.empty()) << Name;
  SliceEngine Engine(G);
  auto Check = [&](const SliceQuery &Q, const std::string &Kind,
                   auto Oracle) {
    std::vector<SliceResult> Want;
    for (const Instr *Seed : Q.Seeds)
      Want.push_back(Oracle(Seed));
    std::vector<SliceResult> Got = Engine.run(Q);
    ASSERT_EQ(Got.size(), Want.size());
    for (std::size_t I = 0; I != Got.size(); ++I) {
      EXPECT_TRUE(Got[I].complete()) << Got[I].degradedReason();
      expectIdentical(Got[I], Want[I],
                      Name + "/" + Kind + "/seed" + std::to_string(I));
    }
    SliceQuery One = Q;
    for (std::size_t I = 0; I != Q.Seeds.size(); ++I) {
      One.Seeds = {Q.Seeds[I]};
      expectIdentical(Engine.run(One).front(), Want[I],
                      Name + "/" + Kind + "/single" + std::to_string(I));
    }
  };

  const Instr *Sink = Seeds[Seeds.size() / 2];
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    const std::string M = Mode == SliceMode::Thin ? "thin" : "trad";
    SliceQuery Q;
    Q.Mode = Mode;
    Q.Seeds = Seeds;
    Check(Q, M + "/backward", [&](const Instr *S) {
      return sliceBackwardLegacy(G, S, Mode);
    });
    Q.Direction = SliceDirection::Forward;
    Check(Q, M + "/forward", [&](const Instr *S) {
      return sliceForwardLegacy(G, S, Mode);
    });
    Q.Direction = SliceDirection::Chop;
    Q.ChopSink = Sink;
    Check(Q, M + "/chop", [&](const Instr *S) {
      return chopLegacy(G, S, Sink, Mode);
    });
  }
  for (unsigned Depth : {0u, 1u, 2u, 3u, SliceQuery::ExpandToFixpoint}) {
    SliceQuery Q;
    Q.AliasDepth = Depth;
    Q.Seeds = Seeds;
    Check(Q, "alias" + std::to_string(Depth), [&](const Instr *S) {
      return expandLegacy(G, S, Depth);
    });
  }
}

} // namespace

TEST(Engine, EveryKindMatchesOracleOnEvalCases) {
  std::map<std::string, Compiled> Programs;
  std::map<std::string, std::vector<const Instr *>> SeedsOf;
  auto Add = [&](const WorkloadProgram &Prog, const std::string &Marker) {
    auto It = Programs.find(Prog.Name);
    if (It == Programs.end())
      It = Programs.emplace(Prog.Name, compile(Prog.Source)).first;
    if (!It->second.P)
      return;
    if (const Instr *Seed =
            instrAtLine(*It->second.P, Prog.markerLine(Marker)))
      SeedsOf[Prog.Name].push_back(Seed);
  };
  for (const BugCase &Case : debuggingCases())
    Add(Case.Prog, Case.SeedMarker);
  for (const CastCase &Case : toughCastCases())
    Add(Case.Prog,
        Case.SeedMarker.empty() ? Case.CastMarker : Case.SeedMarker);
  ASSERT_FALSE(SeedsOf.empty());
  for (const auto &[Name, Seeds] : SeedsOf)
    expectEveryKindMatchesOracle(*Programs.at(Name).CI, Seeds, Name);
}

class EngineGenerated : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineGenerated, EveryKindMatchesOracle) {
  Compiled C = compile(generateRandomProgram(GetParam()));
  ASSERT_NE(C.P, nullptr);
  expectEveryKindMatchesOracle(*C.CI, collectSliceSeeds(*C.P, 12),
                               "generated" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Programs, EngineGenerated,
                         ::testing::Range<uint64_t>(1, 41));

// Contradictory queries are refused, never half-answered.
TEST(Engine, ContradictoryQueriesComeBackDegraded) {
  Compiled C = compile("def main() { var a = readInt(); print(a); }");
  ASSERT_NE(C.P, nullptr);
  const Instr *Seed = instrAtLine(*C.P, 1);
  SliceEngine Engine(*C.CI);
  SliceQuery CSForward =
      SliceQuery::of(Seed, SliceMode::Thin, SliceDirection::Forward);
  CSForward.ContextSensitive = true;
  SliceQuery TradAlias = SliceQuery::of(Seed, SliceMode::Traditional);
  TradAlias.AliasDepth = 1;
  SliceQuery NoSink =
      SliceQuery::of(Seed, SliceMode::Thin, SliceDirection::Chop);
  for (const SliceQuery &Q : {CSForward, TradAlias, NoSink}) {
    std::vector<SliceResult> R = Engine.run(Q);
    ASSERT_EQ(R.size(), 1u);
    EXPECT_FALSE(R.front().complete());
    EXPECT_EQ(R.front().degradedReason().rfind("unsupported query: ", 0), 0u)
        << R.front().degradedReason();
    EXPECT_EQ(R.front().nodeSet().count(), 0u);
  }
}
