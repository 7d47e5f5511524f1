//===-- properties_test.cpp - Property-based invariant tests --------------------==//
//
// Parameterized sweeps over seeded random ThinJ programs checking the
// paper's semantic invariants end-to-end:
//
//  - every thin slice is a subset of the traditional slice (Sec. 3);
//  - the fully expanded thin slice equals the traditional slice
//    ("in the limit", Sec. 2);
//  - seeds belong to their own slices; slicing is deterministic;
//  - the dynamic thin slice observed by the interpreter is a subset of
//    the static thin slice, context-insensitive and context-sensitive,
//    with main() declared last (as generated) and first (the static
//    analysis is a sound over-approximation of dynamic producer flow
//    whatever the declaration order);
//  - generated programs compile, verify, and execute deterministically.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "eval/Generator.h"
#include "ir/Verifier.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <gtest/gtest.h>

#include <set>

using namespace tsl;

namespace {

struct Built {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *G = nullptr;
  std::vector<const Instr *> Seeds; ///< All print statements.
};

Built buildFromSource(const std::string &Source) {
  Built B;
  B.S = std::make_unique<AnalysisSession>(Source);
  B.P = B.S->program();
  EXPECT_NE(B.P, nullptr) << B.S->diagnostics().str();
  if (!B.P)
    return B;
  EXPECT_TRUE(verifyProgram(*B.P).empty());
  B.PTA = B.S->pointsTo();
  B.G = B.S->sdg();
  for (const auto &M : B.P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<PrintInstr>(I.get()))
          B.Seeds.push_back(I.get());
  return B;
}

Built build(uint64_t Seed) {
  return buildFromSource(generateRandomProgram(Seed));
}

/// \p Source with its `def main() {` block moved to the front, so main
/// is declared before every method it calls. The generator emits main
/// last, so the block runs to the end of the source.
std::string mainFirst(const std::string &Source) {
  const std::size_t At = Source.find("def main() {");
  EXPECT_NE(At, std::string::npos);
  return Source.substr(At) + "\n" + Source.substr(0, At);
}

class RandomProgramProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RandomProgramProperty, ThinIsSubsetOfTraditional) {
  Built B = build(GetParam());
  ASSERT_NE(B.P, nullptr);
  for (const Instr *Seed : B.Seeds) {
    SliceResult Thin = sliceBackward(*B.G, Seed, SliceMode::Thin);
    SliceResult Trad = sliceBackward(*B.G, Seed, SliceMode::Traditional);
    BitSet Extra = Thin.nodeSet();
    Extra.subtract(Trad.nodeSet());
    EXPECT_TRUE(Extra.empty());
    EXPECT_TRUE(Thin.contains(Seed));
    EXPECT_TRUE(Trad.contains(Seed));
  }
}

TEST_P(RandomProgramProperty, ExpansionReachesTraditional) {
  Built B = build(GetParam());
  ASSERT_NE(B.P, nullptr);
  SliceQuery Full;
  Full.AliasDepth = SliceQuery::ExpandToFixpoint;
  Full.Seeds = B.Seeds;
  std::vector<SliceResult> Expanded = SliceEngine(*B.G).run(Full);
  ASSERT_EQ(Expanded.size(), B.Seeds.size());
  for (std::size_t I = 0; I != B.Seeds.size(); ++I) {
    const Instr *Seed = B.Seeds[I];
    SliceResult Trad = sliceBackward(*B.G, Seed, SliceMode::Traditional);
    EXPECT_TRUE(Expanded[I].nodeSet() == Trad.nodeSet()) << "seed @ line "
        << Seed->loc().Line;
  }
}

TEST_P(RandomProgramProperty, SlicingIsDeterministic) {
  Built B1 = build(GetParam());
  Built B2 = build(GetParam());
  ASSERT_NE(B1.P, nullptr);
  ASSERT_EQ(B1.Seeds.size(), B2.Seeds.size());
  for (size_t I = 0; I != B1.Seeds.size(); ++I) {
    SliceResult S1 = sliceBackward(*B1.G, B1.Seeds[I], SliceMode::Thin);
    SliceResult S2 = sliceBackward(*B2.G, B2.Seeds[I], SliceMode::Thin);
    // Node ids may differ across builds; compare by source lines.
    auto L1 = S1.sourceLines();
    auto L2 = S2.sourceLines();
    ASSERT_EQ(L1.size(), L2.size());
    for (size_t J = 0; J != L1.size(); ++J)
      EXPECT_EQ(L1[J].Line, L2[J].Line);
  }
}

TEST_P(RandomProgramProperty, ExecutionIsDeterministic) {
  Built B = build(GetParam());
  ASSERT_NE(B.P, nullptr);
  InterpResult R1 = interpret(*B.P);
  InterpResult R2 = interpret(*B.P);
  EXPECT_EQ(R1.Completed, R2.Completed);
  EXPECT_EQ(R1.Output, R2.Output);
}

TEST_P(RandomProgramProperty, DynamicThinSliceWithinStatic) {
  // Soundness: every statement the interpreter observes producing the
  // seed's value must be in the static thin slice, on both the
  // context-insensitive and the context-sensitive (tabulation) route,
  // in both declaration orders.
  const std::string Generated = generateRandomProgram(GetParam());
  for (bool MainFirst : {false, true}) {
    const char *Order = MainFirst ? "main first" : "main last";
    Built B = buildFromSource(MainFirst ? mainFirst(Generated) : Generated);
    ASSERT_NE(B.P, nullptr) << Order;
    ModRefResult MR(*B.P, *B.PTA);
    SDGOptions CSOpts;
    CSOpts.ContextSensitive = true;
    std::unique_ptr<SDG> CS = buildSDG(*B.P, *B.PTA, &MR, CSOpts);
    TabulationSlicer Tab(*CS, SliceMode::Thin);
    InterpOptions Opts;
    Opts.TraceDeps = true;
    InterpResult R = interpret(*B.P, Opts);
    // Even on runtime errors the executed prefix is a valid witness.
    for (const Instr *Seed : B.Seeds) {
      auto DynStmts = R.Trace.dynamicThinSliceOfLast(Seed);
      if (DynStmts.empty())
        continue; // Seed never executed.
      SliceResult Static = sliceBackward(*B.G, Seed, SliceMode::Thin);
      SliceResult StaticCS = Tab.slice(Seed);
      for (const Instr *I : DynStmts) {
        EXPECT_TRUE(Static.contains(I))
            << Order << ": dynamic producer at line " << I->loc().Line
            << " missing from static thin slice of seed at line "
            << Seed->loc().Line;
        EXPECT_TRUE(StaticCS.contains(I))
            << Order << ": dynamic producer at line " << I->loc().Line
            << " missing from context-sensitive thin slice of seed at line "
            << Seed->loc().Line;
      }
    }
  }
}

TEST_P(RandomProgramProperty, TabulationWithinContextInsensitive) {
  // The context-sensitive slice never contains a source line the
  // context-insensitive slice lacks (CS only removes spurious flows).
  Built B = build(GetParam());
  ASSERT_NE(B.P, nullptr);
  ModRefResult MR(*B.P, *B.PTA);
  SDGOptions CSOpts;
  CSOpts.ContextSensitive = true;
  std::unique_ptr<SDG> CS = buildSDG(*B.P, *B.PTA, &MR, CSOpts);
  TabulationSlicer Tab(*CS, SliceMode::Thin);
  for (const Instr *Seed : B.Seeds) {
    SliceResult CSSlice = Tab.slice(Seed);
    SliceResult CISlice = sliceBackward(*B.G, Seed, SliceMode::Thin);
    std::set<unsigned> CILines;
    for (const SourceLine &L : CISlice.sourceLines())
      CILines.insert(L.Line);
    for (const SourceLine &L : CSSlice.sourceLines())
      EXPECT_TRUE(CILines.count(L.Line))
          << "CS-only line " << L.Line << " for seed at line "
          << Seed->loc().Line;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// The same invariants on the hand-written workload programs
//===----------------------------------------------------------------------===//

#include "eval/Workload.h"

namespace {

class WorkloadProperty : public ::testing::TestWithParam<int> {};

const WorkloadProgram &nthWorkload(int N) {
  static std::vector<WorkloadProgram> All = [] {
    std::vector<WorkloadProgram> Out;
    Out.push_back(makeFigure1());
    Out.push_back(makeFigure2());
    Out.push_back(makeFigure4());
    Out.push_back(makeFigure5());
    std::set<std::string> Seen;
    for (const BugCase &B : debuggingCases())
      if (Seen.insert(B.Prog.Name).second)
        Out.push_back(B.Prog);
    for (const CastCase &C : toughCastCases())
      if (Seen.insert(C.Prog.Name).second)
        Out.push_back(C.Prog);
    return Out;
  }();
  return All[static_cast<size_t>(N) % All.size()];
}

} // namespace

TEST_P(WorkloadProperty, ThinSubsetAndExpansionOnWorkloads) {
  const WorkloadProgram &W = nthWorkload(GetParam());
  Built B = buildFromSource(W.Source);
  ASSERT_NE(B.P, nullptr) << W.Name;
  SliceEngine Engine(*B.G);
  SliceQuery Full;
  Full.AliasDepth = SliceQuery::ExpandToFixpoint;
  // Sample a few seeds to keep runtime in check.
  size_t Step = std::max<size_t>(1, B.Seeds.size() / 4);
  for (size_t I = 0; I < B.Seeds.size(); I += Step) {
    const Instr *Seed = B.Seeds[I];
    SliceResult Thin = sliceBackward(*B.G, Seed, SliceMode::Thin);
    SliceResult Trad = sliceBackward(*B.G, Seed, SliceMode::Traditional);
    BitSet Extra = Thin.nodeSet();
    Extra.subtract(Trad.nodeSet());
    EXPECT_TRUE(Extra.empty()) << W.Name;
    Full.Seeds = {Seed};
    SliceResult Expanded = Engine.run(Full).front();
    EXPECT_TRUE(Expanded.nodeSet() == Trad.nodeSet()) << W.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadProperty,
                         ::testing::Range(0, 12));
