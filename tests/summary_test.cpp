//===-- summary_test.cpp - Summary-edge differential tests ----------------------==//
//
// The callee-first bit-parallel summary computation against the
// path-edge tabulation it replaced (tests/oracle/SummaryOracle): the
// summary sets must be identical edge for edge, with equal counts, in
// thin and traditional mode, on the debugging programs, nanoxml padded
// to pads 0-8, generated programs, and hand-written recursion (the only
// graphs that exercise the recursive-SCC worklist). Budget semantics:
// a capped set is a partial subset and never cached. These tests carry
// the "engine" ctest label, so the sanitizer trees run them.

#include "eval/Experiments.h"
#include "eval/Generator.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "sdg/SDG.h"
#include "slicer/Tabulation.h"

#include "oracle/SummaryOracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

using namespace tsl;

namespace {

/// A session holding the context-sensitive graph of one program.
struct CsProgram {
  std::unique_ptr<AnalysisSession> S;
  SDG *G = nullptr;

  explicit CsProgram(const std::string &Source)
      : S(std::make_unique<AnalysisSession>(Source)) {
    EXPECT_NE(S->program(), nullptr) << S->diagnostics().str();
    if (!S->program())
      return;
    SDGOptions CS;
    CS.ContextSensitive = true;
    S->setSDGOptions(CS);
    G = S->sdg();
  }
};

void expectMatchesOracle(const SDG &G, const std::string &What) {
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    const std::string Tag =
        What + (Mode == SliceMode::Thin ? "/thin" : "/trad");
    TabulationSlicer Tab(G, Mode);
    std::shared_ptr<const SummaryCache::Entry> Ref =
        computeSummariesReference(G, Mode);
    const SummaryCache::Entry &Got = Tab.summaries();
    EXPECT_TRUE(Tab.summariesComplete()) << Tag;
    EXPECT_EQ(Tab.numSummaryEdges(), Ref->NumSummaries) << Tag;
    EXPECT_EQ(Got.Src.size(), Ref->Src.size()) << Tag;
    EXPECT_TRUE(Got.Off == Ref->Off) << Tag << ": summary rows differ";
    EXPECT_TRUE(Got.Src == Ref->Src) << Tag << ": summary sources differ";
  }
}

/// Two methods recursing into each other through a heap field.
const char *TwoCycle = R"(
class Node { var val: int; var next: Node; }
def even(n: Node, k: int) {
  if (k > 0) {
    n.val = n.val + 1;
    odd(n.next, k - 1);
  }
}
def odd(n: Node, k: int) {
  if (k > 0) {
    var m = n.next;
    m.val = n.val;
    even(m, k - 1);
  }
}
def main() {
  var a = new Node();
  var b = new Node();
  a.next = b;
  b.next = a;
  a.val = readInt();
  even(a, 4);
  print(b.val);
}
)";

/// Three methods in one cycle, passing heap state and return values.
const char *ThreeCycle = R"(
class Acc { var sum: int; var log: int; }
def fa(x: Acc, k: int): int {
  if (k <= 0) {
    return x.sum;
  }
  x.sum = x.sum + k;
  return fb(x, k - 1);
}
def fb(x: Acc, k: int): int {
  x.log = x.sum;
  return fc(x, k - 1) + 1;
}
def fc(x: Acc, k: int): int {
  var t = fa(x, k);
  x.sum = t;
  return x.log;
}
def main() {
  var acc = new Acc();
  acc.sum = readInt();
  print(fa(acc, 6));
  print(acc.log);
}
)";

/// A self-recursive method called from a loop.
const char *RecursionInLoop = R"(
class Box { var v: int; }
def rec(b: Box, n: int): int {
  if (n <= 0) {
    return b.v;
  }
  b.v = b.v * 2;
  return rec(b, n - 1) + n;
}
def main() {
  var b = new Box();
  b.v = readInt();
  var total = 0;
  var i = 0;
  while (i < 5) {
    total = total + rec(b, i);
    i = i + 1;
  }
  print(total);
}
)";

} // namespace

TEST(Summaries, DebuggingProgramsMatchOracle) {
  for (const BugCase &Case : debuggingCases()) {
    CsProgram P(Case.Prog.Source);
    ASSERT_NE(P.G, nullptr) << Case.Id;
    expectMatchesOracle(*P.G, Case.Id);
  }
}

TEST(Summaries, PaddedNanoxmlMatchesOracle) {
  const WorkloadProgram Base = debuggingCases().front().Prog;
  for (unsigned Pad = 0; Pad <= 8; ++Pad) {
    CsProgram P(padWorkload(Base, "S", Pad, 6).Source);
    ASSERT_NE(P.G, nullptr) << Pad;
    expectMatchesOracle(*P.G, "nanoxml/pad" + std::to_string(Pad));
  }
}

class SummariesGenerated : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SummariesGenerated, MatchOracle) {
  CsProgram P(generateRandomProgram(GetParam()));
  ASSERT_NE(P.G, nullptr);
  expectMatchesOracle(*P.G, "generated" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Programs, SummariesGenerated,
                         ::testing::Range<uint64_t>(1, 41));

TEST(Summaries, MutualRecursionMatchesOracle) {
  for (const char *Source : {TwoCycle, ThreeCycle, RecursionInLoop}) {
    CsProgram P(Source);
    ASSERT_NE(P.G, nullptr);
    TabulationSlicer Tab(*P.G, SliceMode::Thin);
    EXPECT_GT(Tab.numSummaryEdges(), 0u); // Not vacuous.
    expectMatchesOracle(*P.G, "recursion");
  }
}

// A summary computed inside the cycle carries the heap value back to
// the caller: print(fa(acc, 6)) depends on the initial acc.sum only
// through fa's summary edge from the acc.sum actual-in to the call.
TEST(Summaries, RecursiveSummariesReachTheCallerArgument) {
  CsProgram P(ThreeCycle);
  ASSERT_NE(P.G, nullptr);
  TabulationSlicer Tab(*P.G, SliceMode::Thin);
  SliceResult S = Tab.slice(instrAtLine(*P.S->program(), 22));
  bool HasInit = false;
  for (const SourceLine &L : S.sourceLines())
    HasInit |= L.Line == 21;
  EXPECT_TRUE(HasInit);
}

// Under an exhausted heap-edge budget the CS graph wires heap flow
// through method-less coarse hub nodes, whose Flow edges join the
// methods they connect into one procedure: the summaries must still
// equal the oracle's. In SharedField, the hub joins A.m's store to
// B.m's load, and x.m(...) calls both, so the oracle finds a summary
// from the argument to the call through the hub.
TEST(Summaries, CoarseHubGraphMatchesOracle) {
  const char *SharedField = R"(
class Base {
  var f: int;
  def m(p: int): int { return 0; }
}
class A extends Base {
  def m(p: int): int { f = p; return 1; }
}
class B extends Base {
  def m(p: int): int { return f; }
}
def main() {
  var x: Base = new A();
  if (readInt() > 0) {
    x = new B();
  }
  print(x.m(readInt()));
}
)";
  const WorkloadProgram Base = debuggingCases().front().Prog;
  for (const std::string &Source :
       {std::string(SharedField), padWorkload(Base, "S", 2, 6).Source}) {
    AnalysisSession S(Source);
    ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
    AnalysisBudget B;
    B.MaxSdgEdges = 1;
    SDGOptions CS;
    CS.ContextSensitive = true;
    CS.Budget = &B;
    std::unique_ptr<SDG> G =
        buildSDG(*S.program(), *S.pointsTo(), S.modRef(), CS);
    ASSERT_TRUE(G->report().degraded());
    unsigned Hubs = 0;
    for (const SDGNode &N : G->nodes())
      Hubs += N.K == SDGNodeKind::HeapHub;
    EXPECT_GT(Hubs, 0u);
    expectMatchesOracle(*G, "coarse");
  }
}

// A MaxSlicePops cap stops the computation early: the summaries found
// so far are a subset of the full set, the set is marked Partial, and
// the cache never stores it.
TEST(Summaries, CappedSetIsPartialSubsetAndUncached) {
  const WorkloadProgram Base = debuggingCases().front().Prog;
  for (const std::string &Source :
       {padWorkload(Base, "S", 2, 6).Source, std::string(TwoCycle),
        std::string(ThreeCycle)}) {
    CsProgram P(Source);
    ASSERT_NE(P.G, nullptr);
    TabulationSlicer Full(*P.G, SliceMode::Traditional);
    ASSERT_TRUE(Full.summariesComplete());
    AnalysisBudget B;
    B.MaxSlicePops = 3;
    SummaryCache Cache;
    TabulationSlicer Capped(*P.G, SliceMode::Traditional, &B, &Cache);
    EXPECT_FALSE(Capped.summariesComplete());
    EXPECT_TRUE(Capped.summaries().Partial);
    EXPECT_EQ(Cache.size(), 0u);
    EXPECT_LT(Capped.numSummaryEdges(), Full.numSummaryEdges());
    const SummaryCache::Entry &C = Capped.summaries();
    const SummaryCache::Entry &F = Full.summaries();
    for (unsigned Ao = 0; Ao + 1 < C.Off.size(); ++Ao)
      for (unsigned Src : C.sourcesOf(Ao)) {
        IdRange Row = F.sourcesOf(Ao);
        EXPECT_TRUE(std::binary_search(Row.begin(), Row.end(), Src))
            << Src << " -> " << Ao;
      }
  }
}
