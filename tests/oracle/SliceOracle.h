//===-- SliceOracle.h - Reference slicers for differential tests -*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference implementations of every slice kind SliceEngine answers,
/// written the slow, obvious way: a breadth-first walk over the raw
/// edge records (an edge-id indirection and a per-edge kind test via
/// sliceFollowsEdge on every step) and, for the aliasing levels and
/// the fixpoint expansion, one separate traversal per explainer node.
/// The differential tests compare the engine against these, and
/// bench_slice_throughput measures the engine against
/// sliceBackwardLegacy. Nothing under src/ uses them.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_TESTS_ORACLE_SLICEORACLE_H
#define THINSLICER_TESTS_ORACLE_SLICEORACLE_H

#include "slicer/Slicer.h"

namespace tsl {

/// Backward slice from every clone of \p Seed over the edge records.
SliceResult sliceBackwardLegacy(const SDG &G, const Instr *Seed,
                                SliceMode Mode);

/// Forward slice from every clone of \p Seed over the edge records.
SliceResult sliceForwardLegacy(const SDG &G, const Instr *Seed,
                               SliceMode Mode);

/// The forward slice of \p Source intersected with the backward slice
/// of \p Sink.
SliceResult chopLegacy(const SDG &G, const Instr *Source, const Instr *Sink,
                       SliceMode Mode);

/// The thin slice of \p Seed grown by \p Depth aliasing levels, or to
/// the fixpoint for SliceQuery::ExpandToFixpoint, absorbing the thin
/// slice of each explainer node one at a time.
SliceResult expandLegacy(const SDG &G, const Instr *Seed, unsigned Depth);

} // namespace tsl

#endif // THINSLICER_TESTS_ORACLE_SLICEORACLE_H
