//===-- SummaryOracle.h - Reference summary computation ---------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The path-edge tabulation that computed summary edges before the
/// callee-first bit-parallel sweep (Horwitz-Reps-Binkley [11], paper
/// Section 5.3): one path edge per (formal-out, node) pair, a FIFO
/// worklist, and a summary edge emitted whenever a path edge reaches
/// a formal-in. The differential tests compare TabulationSlicer's
/// summary set against it edge for edge. Nothing under src/ uses it.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_TESTS_ORACLE_SUMMARYORACLE_H
#define THINSLICER_TESTS_ORACLE_SUMMARYORACLE_H

#include "slicer/Tabulation.h"

namespace tsl {

/// The summary edges of \p G for \p Mode, in the same CSR form
/// (ascending unique sources per actual-out) TabulationSlicer stores.
/// \p B caps path-edge pops with MaxSlicePops ("tabulation.summary").
std::shared_ptr<const SummaryCache::Entry>
computeSummariesReference(const SDG &G, SliceMode Mode,
                          const AnalysisBudget *B = nullptr);

} // namespace tsl

#endif // THINSLICER_TESTS_ORACLE_SUMMARYORACLE_H
