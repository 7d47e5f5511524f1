//===-- fuzz_test.cpp - Deterministic seeded source fuzzing ---------------------==//
//
// A seeded random-source generator drives the FULL pipeline (compile
// -> points-to -> SDG -> slice) on 200 generated programs: mostly
// well-formed ThinJ drawn from a small grammar, a fraction mutated
// (truncated or byte-spliced) to stress the recovering parser. The
// contract under test is the fail-safe one, not correctness of any
// particular slice:
//
//   - no input crashes any stage;
//   - a failing compile produces at least one located diagnostic and
//     a structured Status from the checked boundary;
//   - a successful compile flows through every downstream stage
//     without an exception escaping a boundary.
//
// Every program is a pure function of its seed, so a failure
// reproduces from the seed alone. The suite carries the "chaos" ctest
// label and runs in the sanitizer trees.
//
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace tsl;

namespace {

/// splitmix64: deterministic across platforms (no libc rand).
struct Rng {
  uint64_t State;
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t operator()(uint64_t N) { return next() % N; }
};

/// A random expression over the in-scope int variables in \p Scope.
std::string genExpr(Rng &R, const std::vector<unsigned> &Scope,
                    unsigned Depth) {
  if (Depth == 0 || R(3) == 0) {
    if (!Scope.empty() && R(2)) {
      std::string Var = "v";
      Var += std::to_string(Scope[R(Scope.size())]);
      return Var;
    }
    return std::to_string(R(100));
  }
  const char *Ops[] = {" + ", " - ", " * "};
  // Right operand first, then the operator, then the left operand: the
  // draw order every seed's program was generated with.
  std::string Rhs = genExpr(R, Scope, Depth - 1);
  const char *Op = Ops[R(3)];
  std::string Out = "(";
  Out += genExpr(R, Scope, Depth - 1);
  Out += Op;
  Out += Rhs;
  Out += ')';
  return Out;
}

/// A random statement list. \p Scope is the list of variable names
/// visible here (nested blocks get a copy, so names declared inside a
/// block are never referenced after it closes); \p NextName is the
/// program-wide name counter (shared, so no name is declared twice).
std::string genStmts(Rng &R, std::vector<unsigned> &Scope, unsigned &NextName,
                     unsigned Budget, unsigned Indent) {
  std::string Pad(Indent, ' ');
  std::string Out;
  for (unsigned I = 0; I != Budget; ++I) {
    switch (R(6)) {
    case 0:
    case 1:
      Out += Pad + "var v" + std::to_string(NextName) + " = " +
             genExpr(R, Scope, 2) + ";\n";
      Scope.push_back(NextName++);
      break;
    case 2:
      if (!Scope.empty()) {
        Out += Pad + "v" + std::to_string(Scope[R(Scope.size())]) + " = " +
               genExpr(R, Scope, 2) + ";\n";
        break;
      }
      [[fallthrough]];
    case 3:
      Out += Pad + "print(\"s" + std::to_string(R(10)) + "\");\n";
      break;
    case 4:
      if (!Scope.empty()) {
        Out += Pad + "if (v" + std::to_string(Scope[R(Scope.size())]) +
               " < " + std::to_string(R(50)) + ") {\n";
        std::vector<unsigned> Inner = Scope;
        Out += genStmts(R, Inner, NextName, 1 + R(2), Indent + 2);
        Out += Pad + "}\n";
        break;
      }
      [[fallthrough]];
    default: {
      unsigned Loop = NextName++;
      Out += Pad + "var v" + std::to_string(Loop) + " = 0;\n";
      Scope.push_back(Loop);
      Out += Pad + "while (v" + std::to_string(Loop) + " < " +
             std::to_string(1 + R(4)) + ") {\n";
      std::vector<unsigned> Inner = Scope;
      Out += genStmts(R, Inner, NextName, 1 + R(2), Indent + 2);
      Out += Pad + "  v" + std::to_string(Loop) + " = v" +
             std::to_string(Loop) + " + 1;\n";
      Out += Pad + "}\n";
      break;
    }
    }
  }
  return Out;
}

/// One whole program: a class with an int field, a helper that stores
/// through it, and a main built from the random statement grammar.
std::string genProgram(Rng &R) {
  std::string Out;
  Out += "class Box { var f: int; }\n";
  Out += "def poke(b: Box, x: int) {\n  b.f = x;\n}\n";
  Out += "def main() {\n";
  Out += "  var b = new Box();\n";
  std::vector<unsigned> Scope;
  unsigned NextName = 0;
  Out += genStmts(R, Scope, NextName, 3 + R(5), 2);
  if (!Scope.empty())
    Out += "  poke(b, v" + std::to_string(Scope[R(Scope.size())]) + ");\n";
  Out += "  print(\"end\");\n";
  Out += "}\n";

  // A fraction of the corpus is mutated to exercise the recovering
  // parser: truncation or a spliced-in junk byte.
  switch (R(5)) {
  case 0:
    Out = Out.substr(0, R(Out.size()) + 1);
    break;
  case 1: {
    std::size_t Pos = R(Out.size());
    Out[Pos] = static_cast<char>(32 + R(95));
    break;
  }
  default:
    break;
  }
  return Out;
}

} // namespace

TEST(Fuzz, SeededSourcesDriveTheFullPipelineWithoutCrashing) {
  FaultInjector::instance().reset();
  unsigned Compiled = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Rng R{Seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull};
    const std::string Src = genProgram(R);
    SCOPED_TRACE("seed " + std::to_string(Seed));

    AnalysisSession S(Src);
    Program *P = S.program();
    if (!P) {
      // A rejected input must explain itself: a structured Status and
      // at least one diagnostic.
      EXPECT_FALSE(S.lastError().isOk());
      EXPECT_TRUE(S.diagnostics().hasErrors());
      ++Rejected;
      continue;
    }
    ++Compiled;

    // Drive every downstream stage; no input may crash any of them.
    ASSERT_NE(S.sdg(), nullptr) << S.lastError().str();
    const Instr *Seed2 = nullptr;
    for (const auto &M : P->methods())
      for (const auto &BB : M->blocks())
        for (const auto &I : BB->instrs())
          if (I->loc().Line)
            Seed2 = I.get();
    if (!Seed2)
      continue;
    const SliceResult *Slice = S.sliceBackwardCached(Seed2, SliceMode::Thin);
    ASSERT_NE(Slice, nullptr) << S.lastError().str();
    EXPECT_TRUE(Slice->complete());
  }
  // The generator must produce both healthy and broken inputs, or the
  // smoke test is vacuous.
  EXPECT_GT(Compiled, 50u);
  EXPECT_GT(Rejected, 10u);
}

TEST(Fuzz, RejectedSourcesCarryLocatedDiagnostics) {
  FaultInjector::instance().reset();
  unsigned Located = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Rng R{Seed * 0x2545F4914F6CDD1Dull + 1};
    const std::string Src = genProgram(R);
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(Src, Diag);
    if (P)
      continue;
    ++Rejected;
    EXPECT_TRUE(Diag.hasErrors()) << "seed " << Seed;
    for (const Diagnostic &D : Diag.diagnostics())
      if (D.Loc.Line)
        ++Located;
  }
  if (Rejected) {
    EXPECT_GT(Located, 0u);
  }
}
