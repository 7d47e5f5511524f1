//===-- expansion_test.cpp - Thin-slice expansion unit tests --------------------==//

#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Expansion.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *G = nullptr;
  std::unique_ptr<ThinExpansion> Exp;

  explicit Fixture(const std::string &Source) {
    S = std::make_unique<AnalysisSession>(Source);
    P = S->program();
    EXPECT_NE(P, nullptr) << S->diagnostics().str();
    if (!P)
      return;
    PTA = S->pointsTo();
    G = S->sdg();
    Exp = std::make_unique<ThinExpansion>(*G, *PTA);
  }

  const Instr *lastAtLine(unsigned Line) {
    const Instr *Last = nullptr;
    for (const auto &M : P->methods())
      for (const auto &BB : M->blocks())
        for (const auto &I : BB->instrs())
          if (I->loc().Line == Line)
            Last = I.get();
    return Last;
  }

  bool hasLine(const SliceResult &S, unsigned Line) {
    for (const SourceLine &L : S.sourceLines())
      if (L.Line == Line)
        return true;
    return false;
  }
};

} // namespace

TEST(Expansion, AliasingExplanationFiltersIrrelevantObjects) {
  Fixture F(R"(
class C { var f: Object; }
def main() {
  var shared = new C();
  var other = new C();
  var w = shared;
  var r = shared;
  var noise = other;
  w.f = new Object();
  print(r.f == null);
  print(noise == null);
}
)");
  const Instr *Store = heapAccessAtLine(*F.P, 9);
  const Instr *Load = heapAccessAtLine(*F.P, 10);
  ASSERT_TRUE(Store && Load);
  SliceResult Aliasing = F.Exp->explainAliasing(Store, Load);
  EXPECT_TRUE(F.hasLine(Aliasing, 4));  // The shared allocation.
  EXPECT_TRUE(F.hasLine(Aliasing, 6));  // w = shared.
  EXPECT_TRUE(F.hasLine(Aliasing, 7));  // r = shared.
  // Filtering: 'other' flows to neither base.
  EXPECT_FALSE(F.hasLine(Aliasing, 5));
  EXPECT_FALSE(F.hasLine(Aliasing, 8));
}

TEST(Expansion, AliasingEmptyWhenNoHeapAccess) {
  Fixture F("def main() { var x = 1; print(x); }");
  const Instr *Print = F.lastAtLine(1);
  SliceResult S = F.Exp->explainAliasing(Print, Print);
  EXPECT_EQ(S.sizeStmts(), 0u);
}

TEST(Expansion, ControlExplainersAreTheGuards) {
  Fixture F(R"(
def main() {
  var c = readInt() > 0;
  if (c) {
    print("guarded");
  }
  print("free");
}
)");
  const Instr *Guarded = F.lastAtLine(5);
  const Instr *Free = F.lastAtLine(7);
  auto Controls = F.Exp->controlExplainers(Guarded);
  ASSERT_EQ(Controls.size(), 1u);
  EXPECT_TRUE(isa<BranchInstr>(Controls[0]));
  EXPECT_TRUE(F.Exp->controlExplainers(Free).empty());
}

TEST(Expansion, IndexExplanation) {
  Fixture F(R"(
def main() {
  var arr = new int[8];
  var wi = readInt();
  var ri = wi;
  arr[wi] = 7;
  print(arr[ri]);
}
)");
  const Instr *Write = heapAccessAtLine(*F.P, 6);
  const Instr *Read = heapAccessAtLine(*F.P, 7);
  ASSERT_TRUE(Write && Read);
  SliceResult Idx = F.Exp->explainIndices(Write, Read);
  EXPECT_TRUE(F.hasLine(Idx, 4)); // wi = readInt()
  EXPECT_TRUE(F.hasLine(Idx, 5)); // ri = wi
}

TEST(Expansion, FixpointEqualsTraditional) {
  // The paper's "in the limit" claim, on a program with heap flow,
  // aliasing, control, calls, and containers.
  Fixture F(R"(
class Holder { var item: Object; }
def stash(h: Holder, v: Object) {
  if (v != null) {
    h.item = v;
  }
}
def main() {
  var h = new Holder();
  var alias = h;
  stash(alias, new Object());
  var r = h.item;
  print(r == null);
}
)");
  const Instr *Seed = F.lastAtLine(12);
  SliceQuery Full = SliceQuery::of(Seed, SliceMode::Thin);
  Full.AliasDepth = SliceQuery::ExpandToFixpoint;
  SliceResult Expanded = SliceEngine(*F.G).run(Full).front();
  SliceResult Trad = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  EXPECT_TRUE(Expanded.nodeSet() == Trad.nodeSet())
      << "expanded:\n"
      << Expanded.str() << "\ntraditional:\n"
      << Trad.str();
}

TEST(Expansion, Figure4EndToEnd) {
  // The full Section 4 walkthrough on the actual Figure 4 program.
  WorkloadProgram W = makeFigure4();
  Fixture F(W.Source);
  const Instr *Store = heapAccessAtLine(*F.P, W.markerLine("openfield-false"));
  const Instr *Load = heapAccessAtLine(*F.P, W.markerLine("isopen"));
  ASSERT_TRUE(Store && Load);
  SliceResult Aliasing = F.Exp->explainAliasing(Store, Load);
  // The File allocation and the Vector round trip appear.
  EXPECT_TRUE(F.hasLine(Aliasing, W.markerLine("file-alloc")));
  EXPECT_TRUE(F.hasLine(Aliasing, W.markerLine("vec-get-1")));
  // Statements about the Vector object itself (not the File) do not.
  SliceResult Thin = sliceBackward(*F.G, F.lastAtLine(W.markerLine("seed")),
                                   SliceMode::Thin);
  (void)Thin;
}
