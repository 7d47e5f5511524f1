//===-- LineOracle.h - Reference line lookups for differential tests -*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The obvious whole-program scans that seedAtLine and
/// noStatementMessage answer from Program's line table: every
/// instruction of every method visited once per call. The line-table
/// tests compare the table-backed lookups against these on cold,
/// incrementally edited and snapshot-loaded programs. Nothing under
/// src/ uses them.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_TESTS_ORACLE_LINEORACLE_H
#define THINSLICER_TESTS_ORACLE_LINEORACLE_H

#include "ir/Program.h"

#include <string>

namespace tsl {

/// The last instruction in program order on \p Line, or null.
const Instr *seedAtLineScan(const Program &P, unsigned Line);

/// "no statement at line N" with the nearest user-file statement lines
/// suggested, found by scanning every instruction.
std::string noStatementMessageScan(const Program &P, unsigned UserLine,
                                   unsigned LineOffset);

} // namespace tsl

#endif // THINSLICER_TESTS_ORACLE_LINEORACLE_H
