//===-- tabulation_test.cpp - Context-sensitive slicing tests -------------------==//

#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  ModRefResult *MR = nullptr;
  SDG *CS = nullptr;
  SDG *CI = nullptr;

  explicit Fixture(const std::string &Source) {
    S = std::make_unique<AnalysisSession>(Source);
    P = S->program();
    EXPECT_NE(P, nullptr) << S->diagnostics().str();
    if (!P)
      return;
    PTA = S->pointsTo();
    MR = S->modRef();
    SDGOptions CSOpts;
    CSOpts.ContextSensitive = true;
    S->setSDGOptions(CSOpts);
    CS = S->sdg();
    S->setSDGOptions(SDGOptions());
    CI = S->sdg();
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

  bool sliceHasLine(const SliceResult &S, unsigned Line) {
    for (const SourceLine &L : S.sourceLines())
      if (L.Line == Line)
        return true;
    return false;
  }
};

// The classic unrealizable-path example: two callers pass different
// values through the same identity function. A context-insensitive
// slice of one result drags in the other caller's argument; the
// tabulation slicer does not.
const char *TwoCallers = R"(
def id(x: int): int {
  return x;
}
def main() {
  var a = readInt();
  var b = readInt();
  var ra = id(a);
  var rb = id(b);
  print(ra);
  print(rb);
}
)";

} // namespace

TEST(Tabulation, ExcludesUnrealizablePaths) {
  Fixture F(TwoCallers);
  const Instr *Seed = F.lastAtLine(10); // print(ra)

  SliceResult CISlice = sliceBackward(*F.CI, Seed, SliceMode::Thin);
  // Context-insensitive: both inputs pollute the slice.
  EXPECT_TRUE(F.sliceHasLine(CISlice, 6));
  EXPECT_TRUE(F.sliceHasLine(CISlice, 7));

  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult CSSlice = Tab.slice(Seed);
  // Context-sensitive: only a's chain.
  EXPECT_TRUE(F.sliceHasLine(CSSlice, 6));
  EXPECT_FALSE(F.sliceHasLine(CSSlice, 7));
  EXPECT_TRUE(F.sliceHasLine(CSSlice, 3)); // id's return.
  EXPECT_TRUE(F.sliceHasLine(CSSlice, 8)); // The call.
}

TEST(Tabulation, SummaryEdgesExist) {
  Fixture F(TwoCallers);
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  EXPECT_GT(Tab.numSummaryEdges(), 0u);
}

TEST(Tabulation, DescendsIntoCallees) {
  Fixture F(R"(
def compute(): int {
  var inner = 21;
  return inner * 2;
}
def main() {
  print(compute());
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(7));
  EXPECT_TRUE(F.sliceHasLine(S, 3));
  EXPECT_TRUE(F.sliceHasLine(S, 4));
}

TEST(Tabulation, HeapFlowThroughCalleesMatched) {
  Fixture F(R"(
class Cell { var v: int; }
def store(c: Cell, x: int) {
  c.v = x;
}
def load(c: Cell): int {
  return c.v;
}
def main() {
  var c1 = new Cell();
  var c2 = new Cell();
  store(c1, readInt());
  store(c2, 5);
  print(load(c1));
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(14)); // print(load(c1))
  EXPECT_TRUE(F.sliceHasLine(S, 4));  // the store statement
  EXPECT_TRUE(F.sliceHasLine(S, 12)); // store(c1, readInt())
  EXPECT_TRUE(F.sliceHasLine(S, 7));  // the load
}

TEST(Tabulation, ThinStillSubsetOfTraditional) {
  Fixture F(TwoCallers);
  TabulationSlicer Thin(*F.CS, SliceMode::Thin);
  TabulationSlicer Trad(*F.CS, SliceMode::Traditional);
  const Instr *Seed = F.lastAtLine(10);
  BitSet Extra = Thin.slice(Seed).nodeSet();
  Extra.subtract(Trad.slice(Seed).nodeSet());
  EXPECT_TRUE(Extra.empty());
}

TEST(Tabulation, TraditionalFollowsControl) {
  Fixture F(R"(
def main() {
  var x = 0;
  if (readInt() > 0) {
    x = 1;
  }
  print(x);
}
)");
  TabulationSlicer Thin(*F.CS, SliceMode::Thin);
  TabulationSlicer Trad(*F.CS, SliceMode::Traditional);
  const Instr *Seed = F.lastAtLine(7);
  EXPECT_FALSE(F.sliceHasLine(Thin.slice(Seed), 4));
  EXPECT_TRUE(F.sliceHasLine(Trad.slice(Seed), 4));
}

TEST(Tabulation, RecursionTerminates) {
  Fixture F(R"(
def fact(n: int): int {
  if (n <= 1) {
    return 1;
  }
  return n * fact(n - 1);
}
def main() {
  print(fact(5));
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(9));
  EXPECT_TRUE(F.sliceHasLine(S, 4));
  EXPECT_TRUE(F.sliceHasLine(S, 6));
}

// Regression: callees declared after their caller. The context-
// sensitive SDG must create every method's heap formals before it
// wires any call site; when it created them on each method's own turn,
// the calls to store() and load() below got no heap parameter edges
// and the CS slice of the print lost the store `c.v = x` and the call
// that feeds it. Here the CS slice equals the CI one.
TEST(Tabulation, CalleesDeclaredAfterTheirCallerKeepHeapParameters) {
  const std::string Source = "class Cell { var v: int; }\n" // 1
                             "def main() {\n"               // 2
                             "  var c1 = new Cell();\n"     // 3
                             "  store(c1, readInt());\n"    // 4
                             "  print(load(c1));\n"         // 5
                             "}\n"                          // 6
                             "def store(c: Cell, x: int) {\n" // 7
                             "  c.v = x;\n"                 // 8
                             "}\n"                          // 9
                             "def load(c: Cell): int {\n"   // 10
                             "  return c.v;\n"              // 11
                             "}\n";                         // 12
  Fixture F(Source);
  ASSERT_NE(F.CS, nullptr);
  ASSERT_NE(F.CI, nullptr);
  const Instr *Print = F.lastAtLine(5);
  ASSERT_NE(Print, nullptr);
  auto Render = [&](const SliceResult &R) {
    std::string Out;
    for (const SourceLine &L : R.sourceLines())
      Out += L.M->qualifiedName(F.P->strings()) + ":" +
             std::to_string(L.Line) + " ";
    return Out;
  };
  const std::string Want = "main:4 main:5 store:7 store:8 load:11 ";
  EXPECT_EQ(Render(sliceBackward(*F.CI, Print, SliceMode::Thin)), Want);
  EXPECT_EQ(Render(TabulationSlicer(*F.CS, SliceMode::Thin).slice(Print)),
            Want);
}
