//===-- LineOracle.cpp - Reference line lookups for differential tests ----===//

#include "oracle/LineOracle.h"

#include "ir/Instr.h"

#include <algorithm>

using namespace tsl;

const Instr *tsl::seedAtLineScan(const Program &P, unsigned Line) {
  const Instr *Last = nullptr;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line == Line)
          Last = I.get();
  return Last;
}

std::string tsl::noStatementMessageScan(const Program &P, unsigned UserLine,
                                        unsigned LineOffset) {
  unsigned AbsLine = UserLine + LineOffset;
  unsigned Below = 0, Above = ~0u;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs()) {
        unsigned L = I->loc().Line;
        if (L <= LineOffset) // Runtime-library prefix.
          continue;
        if (L < AbsLine)
          Below = std::max(Below, L);
        else if (L > AbsLine)
          Above = std::min(Above, L);
      }
  std::string Near;
  if (Below)
    Near += std::to_string(Below - LineOffset);
  if (Above != ~0u) {
    if (!Near.empty())
      Near += ", ";
    Near += std::to_string(Above - LineOffset);
  }
  std::string Msg = "no statement at line " + std::to_string(UserLine);
  if (!Near.empty())
    Msg += " (nearest statement lines: " + Near + ")";
  return Msg;
}
