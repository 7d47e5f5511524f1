//===-- coverage_test.cpp - Edge-case coverage across modules -------------------==//

#include "cg/CallGraph.h"
#include "dyn/Interp.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "modref/ModRef.h"
#include "sdg/SDGDot.h"
#include "slicer/Inspection.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *G = nullptr;

  explicit Fixture(const std::string &Source) {
    S = std::make_unique<AnalysisSession>(Source);
    P = S->program();
    EXPECT_NE(P, nullptr) << S->diagnostics().str();
    if (!P)
      return;
    PTA = S->pointsTo();
    G = S->sdg();
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
};

InterpResult runSource(const std::string &Source, InterpOptions Opts = {}) {
  DiagnosticEngine Diag;
  auto P = compileThinJ(Source, Diag);
  EXPECT_NE(P, nullptr) << Diag.str();
  if (!P)
    return {};
  return interpret(*P, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Interpreter string edge cases
//===----------------------------------------------------------------------===//

TEST(Coverage, StringEdgeCases) {
  InterpResult R = runSource(R"(
def main() {
  var s = "needle in haystack";
  print(s.indexOf("missing"));
  print(s.indexOf(""));
  print(s.substring(0, 0));
  print("".length());
  print("".equals(""));
  print("a".equals("b"));
  var empty = "" + "";
  print(empty.length());
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"-1", "0", "", "0", "true",
                                                "false", "0"}));
}

TEST(Coverage, NegativeNumbersAndRemainders) {
  InterpResult R = runSource(R"(
def main() {
  print(-7 / 2);
  print(-7 % 2);
  print(0 - 2147483647);
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output,
            (std::vector<std::string>{"-3", "-1", "-2147483647"}));
}

TEST(Coverage, VirtualDispatchThreeLevels) {
  InterpResult R = runSource(R"(
class A { def who(): string { return "A"; } }
class B extends A { def who(): string { return "B"; } }
class C extends B { }
def main() {
  var objs = new Object[3];
  objs[0] = new A();
  objs[1] = new B();
  objs[2] = new C();
  for (var i = 0; i < 3; i = i + 1) {
    var a = (A) objs[i];
    print(a.who());
  }
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  // C inherits B's override.
  EXPECT_EQ(R.Output, (std::vector<std::string>{"A", "B", "B"}));
}

//===----------------------------------------------------------------------===//
// Call graph queries
//===----------------------------------------------------------------------===//

TEST(Coverage, CallersOfQuery) {
  Fixture F(R"(
def shared(): int { return 1; }
def a(): int { return shared(); }
def b(): int { return shared(); }
def main() { print(a() + b()); }
)");
  Method *Shared = nullptr;
  for (const auto &M : F.P->methods())
    if (M->qualifiedName(F.P->strings()) == "shared")
      Shared = M.get();
  ASSERT_NE(Shared, nullptr);
  auto Callers = F.PTA->callGraph().callersOf(Shared);
  EXPECT_EQ(Callers.size(), 2u);
}

TEST(Coverage, CalleeNodesOfVirtualSite) {
  Fixture F(R"(
class A { def m(): int { return 1; } }
class B extends A { def m(): int { return 2; } }
def main() {
  var objs = new A[2];
  objs[0] = new A();
  objs[1] = new B();
  var x = objs[0];
  print(x.m());
}
)");
  const CallInstr *Site = nullptr;
  for (const auto &M : F.P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (const auto *C = dyn_cast<CallInstr>(I.get()))
          if (C->isVirtual())
            Site = C;
  ASSERT_NE(Site, nullptr);
  // Both A.m and B.m are possible (array elements merge).
  EXPECT_EQ(F.PTA->callGraph().calleesOf(Site).size(), 2u);
  EXPECT_EQ(F.PTA->callGraph().calleeNodesOf(Site).size(), 2u);
}

//===----------------------------------------------------------------------===//
// Slicer API corners
//===----------------------------------------------------------------------===//

TEST(Coverage, SliceBackwardNodesSingleClone) {
  Fixture F(R"(
class Vector {
  var elems: Object[];
  var count: int;
  def init() { elems = new Object[4]; count = 0; }
  def add(p: Object) { elems[count] = p; count = count + 1; }
}
def main() {
  var v1 = new Vector();
  var v2 = new Vector();
  v1.add("a");
  v2.add(readLine());
}
)");
  // The array store in Vector.add has two clones; node-level slicing from
  // one clone must not include the other context's producers.
  const Instr *Store = nullptr;
  for (const auto &M : F.P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<ArrayStoreInstr>(I.get()))
          Store = I.get();
  ASSERT_NE(Store, nullptr);
  const auto &Clones = F.G->nodesFor(Store);
  ASSERT_EQ(Clones.size(), 2u);
  BudgetGate Gate(nullptr, "slice.pop", 0);
  SliceResult S0 = reachNodes(*F.G, {Clones[0]}, SliceMode::Thin,
                              SliceDirection::Backward, Gate);
  SliceResult S1 = reachNodes(*F.G, {Clones[1]}, SliceMode::Thin,
                              SliceDirection::Backward, Gate);
  // One clone's slice has the literal, the other the readLine; they
  // are not equal and their union equals the statement-level slice.
  EXPECT_TRUE(S0.nodeSet() != S1.nodeSet());
  SliceResult Both = sliceBackward(*F.G, Store, SliceMode::Thin);
  BitSet Union = S0.nodeSet();
  Union.unionWith(S1.nodeSet());
  EXPECT_TRUE(Union == Both.nodeSet());
}

TEST(Coverage, DfsInspectionFindsSameTargets) {
  Fixture F(R"(
def main() {
  var a = readInt();
  var b = a * 2;
  var c = b - a;
  print(c);
}
)");
  for (auto Strategy : {InspectionStrategy::BFS, InspectionStrategy::DFS}) {
    InspectionQuery Q;
    Q.Seed = F.lastAtLine(6);
    Q.Mode = SliceMode::Thin;
    Q.Strategy = Strategy;
    SourceLine Target{F.P->mainMethod(), 3};
    Q.Desired = {Target};
    InspectionResult R = simulateInspection(*F.G, Q);
    EXPECT_TRUE(R.FoundAll);
    EXPECT_GE(R.InspectedStatements, 2u);
  }
}

TEST(Coverage, InspectionOrderStartsAtSeedLine) {
  Fixture F(R"(
def main() {
  var a = 1;
  print(a);
}
)");
  InspectionResult R = simulateInspection(
      *F.G, F.lastAtLine(4), SliceMode::Thin,
      std::vector<SourceLine>{{F.P->mainMethod(), 3}});
  ASSERT_GE(R.Order.size(), 2u);
  EXPECT_EQ(R.Order[0].Line, 4u);
  EXPECT_EQ(R.Order[1].Line, 3u);
}

//===----------------------------------------------------------------------===//
// Dot export of the context-sensitive graph
//===----------------------------------------------------------------------===//

TEST(Coverage, DotShowsHeapParamsWhenAsked) {
  DiagnosticEngine Diag;
  auto P = compileThinJ(R"(
class Cell { var v: Object; }
def put(c: Cell) { c.v = new Object(); }
def main() {
  var c = new Cell();
  put(c);
  print(c.v == null);
}
)",
                        Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  auto PTA = runPointsTo(*P);
  ModRefResult MR(*P, *PTA);
  SDGOptions Opts;
  Opts.ContextSensitive = true;
  auto CS = buildSDG(*P, *PTA, &MR, Opts);
  DotOptions DO;
  DO.SourceStmtsOnly = false;
  std::string Dot = exportDot(*CS, DO);
  EXPECT_NE(Dot.find("heap param"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Dynamic trace corners
//===----------------------------------------------------------------------===//

TEST(Coverage, LastInstanceOfPicksTheLatest) {
  DiagnosticEngine Diag;
  auto P = compileThinJ(R"(
def main() {
  var x = 0;
  for (var i = 0; i < 3; i = i + 1) {
    x = i * 10;
  }
  print(x);
}
)",
                        Diag);
  ASSERT_NE(P, nullptr);
  InterpOptions Opts;
  Opts.TraceDeps = true;
  InterpResult R = interpret(*P, Opts);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Output.front(), "20");
  // The assignment executed three times; the dynamic slice of the
  // print uses the last instance (i == 2).
  const Instr *Print = nullptr;
  for (const auto &M : P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<PrintInstr>(I.get()))
          Print = I.get();
  auto Stmts = R.Trace.dynamicThinSliceOfLast(Print);
  EXPECT_FALSE(Stmts.empty());
}
