//===-- index_test.cpp - Dense-id indexes against whole-program references -===//
//
// Two lookups are answered from tables indexed by dense ids:
//
//  - Program's line table, behind seedAtLine and noStatementMessage,
//    checked against the whole-program scans in tests/oracle for every
//    line of generated programs: cold, after each step of an
//    incremental edit script (which inserts, rewrites and removes
//    lines), and decoded from a snapshot;
//  - the SDG statement index, behind nodesFor, checked against a cold
//    build: for every instruction, the same clones by context and in
//    the same order, on a graph patched until compact() ran and on a
//    snapshot-decoded graph.
//
// The suite carries the "incremental" and "snapshot" ctest labels, so
// the sanitizer trees run it too.
//
//===----------------------------------------------------------------------===//

#include "eval/Generator.h"
#include "eval/Runtime.h"
#include "ir/Instr.h"
#include "ir/Program.h"
#include "oracle/LineOracle.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace tsl;
namespace fs = std::filesystem;

namespace {

constexpr uint64_t NumPrograms = 20;

/// Lines of the container runtime every generated program starts with:
/// the LineOffset the tools pass for such a program.
unsigned runtimeLines() {
  const std::string &R = runtimeLibrarySource();
  return static_cast<unsigned>(std::count(R.begin(), R.end(), '\n'));
}

std::string replaced(std::string Src, const std::string &Old,
                     const std::string &New) {
  const std::size_t At = Src.find(Old);
  EXPECT_NE(At, std::string::npos) << Old;
  if (At != std::string::npos)
    Src.replace(At, Old.size(), New);
  return Src;
}

/// The first line in 0 .. last line + 2 where seedAtLine or
/// noStatementMessage (at offset 0 and at the runtime offset) differs
/// from the scan, or "" when none does. Instructions are compared by
/// address only: a stale table may hold retired ones.
std::string firstLineMismatch(const Program &P) {
  unsigned Last = 0;
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs())
      Last = std::max(Last, I->loc().Line);
  for (unsigned L = 0; L <= Last + 2; ++L) {
    if (seedAtLine(P, L) != seedAtLineScan(P, L))
      return "seedAtLine(" + std::to_string(L) + ")";
    for (unsigned Offset : {0u, runtimeLines()}) {
      const std::string Got = noStatementMessage(P, L, Offset);
      const std::string Want = noStatementMessageScan(P, L, Offset);
      if (Got != Want)
        return "noStatementMessage(" + std::to_string(L) + ", " +
               std::to_string(Offset) + "): '" + Got + "' != '" + Want + "'";
    }
  }
  return "";
}

/// Per instruction of \p P, in method then instruction order: the
/// contexts of its clones in \p G, as nodesFor lists them. Every
/// listed node must be a live statement node of that instruction.
std::vector<std::vector<unsigned>> cloneContexts(const SDG &G,
                                                 const Program &P) {
  std::vector<std::vector<unsigned>> Out;
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs()) {
      std::vector<unsigned> Ctxs;
      for (unsigned Id : G.nodesFor(I)) {
        const SDGNode &N = G.node(Id);
        EXPECT_TRUE(N.isStmt() && !N.Dead && N.I == I)
            << M->qualifiedName(P.strings()) << " instr " << I->id();
        Ctxs.push_back(N.Ctx);
      }
      Out.push_back(std::move(Ctxs));
    }
  return Out;
}

std::string snapshotPath(const std::string &Tag, uint64_t Seed) {
  return (fs::temp_directory_path() /
          ("tsl_index_" + Tag + "_" + std::to_string(Seed) + ".tslsnap"))
      .string();
}

/// Generated program \p Seed plus `churn`, an arithmetic function main
/// calls, in its \p K-th variant (odd variants one line longer), and
/// two Vectors main fills, which clone the container methods into two
/// contexts. Each edit between churn variants retires about a tenth of
/// the graph's nodes, so the tombstones pile up over a few patches
/// before one compacts. No allocation sits in churn, so the points-to
/// update never declines the edit.
std::string withChurn(uint64_t Seed, unsigned K) {
  std::string Fn = "def churn(n: int): int {\n  var x = n;\n";
  for (unsigned I = 0; I != 10; ++I)
    Fn += "  x = x * " + std::to_string(3 + K) + " + " + std::to_string(I) +
          ";\n";
  if (K % 2)
    Fn += "  x = x + 1;\n";
  Fn += "  return x;\n}\n";
  const std::string Main = "def main() {\n";
  return replaced(generateRandomProgram(Seed), Main,
                  Fn + Main +
                      "  var v1 = new Vector();\n  var v2 = new Vector();\n"
                      "  v1.add(v2);\n  v2.add(v1);\n  print(churn(2));\n");
}

/// True when some instruction has clones in several contexts, so the
/// order nodesFor lists them in is under test.
bool hasMultiContextInstr(const std::vector<std::vector<unsigned>> &Ctxs) {
  return std::any_of(Ctxs.begin(), Ctxs.end(),
                     [](const auto &C) { return C.size() > 1; });
}

} // namespace

TEST(LineTable, MatchesScanOnColdEditedAndLoadedPrograms) {
  for (uint64_t Seed = 0; Seed != NumPrograms; ++Seed) {
    const std::string Base = generateRandomProgram(Seed);
    AnalysisSession S{std::string(Base)};
    S.setIncremental(true);
    ASSERT_NE(S.sdg(), nullptr) << "seed " << Seed;
    EXPECT_EQ(firstLineMismatch(*S.program()), "") << "seed " << Seed;

    // Each step is a body-only edit the incremental front end applies:
    // a line inserted above most of the program, a same-line rewrite,
    // two lines inserted into main, and the first line removed again.
    const std::string Calc0 = "def calc0(a: int, b: int): int {\n";
    const std::string Main = "def main() {\n";
    std::vector<std::string> Steps;
    Steps.push_back(replaced(Base, Calc0, Calc0 + "  var y0 = a + 1;\n"));
    Steps.push_back(
        replaced(Steps.back(), "  var y0 = a + 1;", "  var y0 = b + 2;"));
    Steps.push_back(replaced(Steps.back(), Main,
                             Main + "  var w0 = 1;\n  print(w0);\n"));
    Steps.push_back(replaced(Steps.back(), "  var y0 = b + 2;\n", ""));
    for (std::size_t K = 0; K != Steps.size(); ++K) {
      const uint64_t Applied = S.incrementalStats().Applied;
      S.setSource(Steps[K]);
      ASSERT_EQ(S.incrementalStats().Applied, Applied + 1)
          << "seed " << Seed << " step " << K << ": "
          << S.incrementalStats().LastFallbackReason;
      ASSERT_NE(S.program(), nullptr);
      EXPECT_EQ(firstLineMismatch(*S.program()), "")
          << "seed " << Seed << " step " << K;
    }

    const std::string Snap = snapshotPath("lines", Seed);
    ASSERT_TRUE(S.saveSnapshot(Snap).isOk()) << S.lastError().str();
    AnalysisSession Warm{std::string(Steps.back())};
    ASSERT_TRUE(Warm.loadSnapshot(Snap).isOk()) << "seed " << Seed;
    EXPECT_EQ(Warm.snapshotStats().Loads, 1u);
    EXPECT_EQ(firstLineMismatch(*Warm.program()), "") << "seed " << Seed;
    fs::remove(Snap);
  }
}

TEST(SdgStatementIndex, PatchedGraphMatchesColdBuildThroughCompaction) {
  // Each edit of churn retires its clones; the tombstones pile up
  // until a patch compacts the graph, and the patches after that run
  // on the renumbered index. After every patch the index must list,
  // per instruction, the clones a cold build over the same points-to
  // result lists.
  AnalysisSession S{withChurn(7, 0)};
  S.setIncremental(true);
  ASSERT_NE(S.sdg(), nullptr);
  bool SawTombstones = false;
  unsigned PatchesAfterCompaction = 0;
  for (unsigned K = 1; K != 16 && PatchesAfterCompaction < 3; ++K) {
    const uint64_t Patches = S.incrementalStats().SdgPatches;
    S.setSource(withChurn(7, K));
    SDG *G = S.sdg();
    ASSERT_NE(G, nullptr);
    ASSERT_EQ(S.incrementalStats().SdgPatches, Patches + 1)
        << "edit " << K << ": " << S.incrementalStats().LastFallbackReason;
    if (PatchesAfterCompaction || (SawTombstones && !G->numDeadNodes()))
      ++PatchesAfterCompaction;
    SawTombstones = SawTombstones || G->numDeadNodes();
    std::unique_ptr<SDG> Cold = buildSDG(*S.program(), *S.pointsTo(), nullptr);
    const auto Want = cloneContexts(*Cold, *S.program());
    EXPECT_TRUE(hasMultiContextInstr(Want));
    EXPECT_EQ(cloneContexts(*G, *S.program()), Want) << "edit " << K;
    EXPECT_EQ(G->numStmtNodes(), Cold->numStmtNodes()) << "edit " << K;
  }
  EXPECT_EQ(PatchesAfterCompaction, 3u);
}

TEST(SdgStatementIndex, DecodedGraphMatchesColdBuild) {
  for (uint64_t Seed = 0; Seed != 4; ++Seed) {
    const std::string Source = withChurn(Seed, 0);
    const std::string Snap = snapshotPath("sdg", Seed);
    AnalysisSession Cold{std::string(Source)};
    ASSERT_NE(Cold.sdg(), nullptr);
    ASSERT_TRUE(Cold.saveSnapshot(Snap).isOk()) << Cold.lastError().str();
    AnalysisSession Warm{std::string(Source)};
    ASSERT_TRUE(Warm.loadSnapshot(Snap).isOk()) << "seed " << Seed;
    ASSERT_NE(Warm.sdg(), nullptr);
    const auto Want = cloneContexts(*Cold.sdg(), *Cold.program());
    EXPECT_TRUE(hasMultiContextInstr(Want));
    EXPECT_EQ(cloneContexts(*Warm.sdg(), *Warm.program()), Want)
        << "seed " << Seed;
    fs::remove(Snap);
  }
}
