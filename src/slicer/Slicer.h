//===-- Slicer.h - Thin and traditional slicing ------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-insensitive thin and traditional slicing as graph
/// reachability over the SDG (paper Section 5.2). The only difference
/// between the two modes is the set of dependence edges followed
/// (Section 3): thin slices follow producer flow (Flow) and parameter
/// linkage; traditional slices additionally follow base-pointer flow
/// and control dependence.
///
/// Every slice kind is one SliceQuery answered by SliceEngine (see
/// Engine.h): backward, forward, chops, aliasing levels and the
/// fixpoint expansion. Traversals run on the finalized graph's
/// kind-partitioned CSR adjacency (see SDG.h): the mode is compiled
/// into an EdgeKindMask once per query and each visited node scans
/// contiguous neighbor runs, with no per-edge kind branch or
/// edge-record load.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_SLICER_H
#define THINSLICER_SLICER_SLICER_H

#include "sdg/SDG.h"
#include "support/BitSet.h"
#include "support/Budget.h"

#include <string>
#include <vector>

namespace tsl {

/// Which dependence-edge set a slice follows.
enum class SliceMode {
  Thin,        ///< Producer statements only (paper Section 2).
  Traditional, ///< All dependences (Weiser-style relevance).
};

/// True when a slice in \p Mode follows edges of kind \p K.
bool sliceFollowsEdge(SliceMode Mode, SDGEdgeKind K);

/// The CSR edge-kind mask a slice in \p Mode follows (Summary edges
/// are excluded; they belong to the tabulation slicer).
EdgeKindMask sliceEdgeMask(SliceMode Mode);

/// A (method, line) pair — the unit a human inspects.
struct SourceLine {
  const Method *M;
  unsigned Line;

  bool operator==(const SourceLine &RHS) const {
    return M == RHS.M && Line == RHS.Line;
  }
  // Ordered by the program-wide dense method id, NOT the Method
  // pointer: pointer order varies with heap layout, and sourceLines()
  // output must be byte-identical across sessions in one process (the
  // post-fault heal checks compare renderings against a fresh
  // session).
  bool operator<(const SourceLine &RHS) const {
    if (M == RHS.M)
      return Line < RHS.Line;
    if (!M || !RHS.M)
      return !M;
    return M->id() < RHS.M->id();
  }
};

/// The set of SDG nodes in a slice, with statement/line views. The
/// statement and line views are computed once on first use and cached
/// (mutation through unionWith invalidates them), so repeated
/// rendering/counting of one result is free. Not safe for concurrent
/// first-use from multiple threads.
class SliceResult {
public:
  SliceResult(const SDG *G, BitSet Nodes)
      : G(G), Nodes(std::move(Nodes)) {}

  const SDG &graph() const { return *G; }
  const BitSet &nodeSet() const { return Nodes; }

  bool containsNode(unsigned Node) const { return Nodes.test(Node); }
  bool contains(const Instr *I) const {
    int Node = G->nodeFor(I);
    return Node >= 0 && Nodes.test(static_cast<unsigned>(Node));
  }
  /// True when any statement of \p Line is in the slice.
  bool containsLine(const Method *M, unsigned Line) const;

  /// Statement nodes only, in node-id order. Cached after the first
  /// call; the reference stays valid until the result is mutated.
  const std::vector<const Instr *> &statements() const;

  /// Distinct source lines of the statements (sorted), skipping
  /// compiler-synthesized instructions without positions. Cached like
  /// statements().
  const std::vector<SourceLine> &sourceLines() const;

  /// Number of statement nodes in the slice (the paper's slice-size
  /// metric).
  unsigned sizeStmts() const;

  /// Merges \p Other into this slice (both must share the SDG). A
  /// degraded operand degrades the union.
  void unionWith(const SliceResult &Other) {
    Nodes.unionWith(Other.Nodes);
    StmtsValid = false;
    LinesValid = false;
    if (!Other.complete())
      markDegraded(Other.Reason);
  }

  /// Keeps only the nodes \p Other also holds (a chop); a degraded
  /// operand degrades the intersection.
  void intersectWith(const SliceResult &Other) {
    Nodes.intersectWith(Other.Nodes);
    StmtsValid = LinesValid = false;
    if (!Other.complete())
      markDegraded(Other.Reason);
  }

  //===------------------------------------------------------------------===//
  // Budget status
  //===------------------------------------------------------------------===//

  /// Complete, or Degraded when a budget stopped the traversal early.
  /// A degraded slice is a subset of the full slice from the same
  /// seeds on the same graph (the BFS only ever under-visits).
  StageStatus status() const { return Status; }
  bool complete() const { return Status == StageStatus::Complete; }
  const std::string &degradedReason() const { return Reason; }
  void markDegraded(const std::string &Why) {
    Status = StageStatus::Degraded;
    if (Reason.empty())
      Reason = Why;
  }

  /// Debug rendering: one "Class.method:line: text" entry per
  /// statement.
  std::string str() const;

private:
  const SDG *G;
  BitSet Nodes;
  StageStatus Status = StageStatus::Complete;
  std::string Reason;
  mutable std::vector<const Instr *> CachedStmts;
  mutable std::vector<SourceLine> CachedLines;
  mutable bool StmtsValid = false;
  mutable bool LinesValid = false;
};

/// Which way a query follows dependences.
enum class SliceDirection {
  Backward, ///< Statements the seed depends on.
  Forward,  ///< Statements depending on the seed.
  Chop,     ///< Forward from the seed intersected with backward from
            ///< the chop sink: the paths from one to the other.
};

/// One slice query: the single description every frontend builds and
/// SliceEngine::run() answers, one SliceResult per seed.
struct SliceQuery {
  /// AliasDepth value asking for the fixpoint expansion: aliasing and
  /// control explainers absorbed until nothing changes, which recovers
  /// the traditional slice (paper Sec. 2).
  static constexpr unsigned ExpandToFixpoint = ~0u;

  SliceDirection Direction = SliceDirection::Backward;
  SliceMode Mode = SliceMode::Thin;
  /// Context-sensitive tabulation (backward only; the SDG must have
  /// been built with SDGOptions::ContextSensitive).
  bool ContextSensitive = false;
  /// Levels of aliasing explanation layered on a thin backward slice
  /// (paper Sec. 4.1): each level absorbs the thin slices of the base
  /// pointers of the heap accesses in the slice so far. 0 is the plain
  /// slice; ExpandToFixpoint also absorbs control explainers.
  unsigned AliasDepth = 0;
  std::vector<const Instr *> Seeds;
  /// Chop only: the statement the paths lead to.
  const Instr *ChopSink = nullptr;

  /// A query with one seed.
  static SliceQuery of(const Instr *Seed, SliceMode Mode,
                       SliceDirection Dir = SliceDirection::Backward) {
    SliceQuery Q;
    Q.Direction = Dir;
    Q.Mode = Mode;
    Q.Seeds = {Seed};
    return Q;
  }

  /// Why these kind fields cannot be answered together ("" when they
  /// can): context sensitivity on anything but a plain backward slice,
  /// or expansion of a traditional slice or off the backward direction.
  /// The one owner of this rule (the CLI maps it onto flag names).
  std::string conflict() const;
};

/// Backward slice from \p Seed by context-insensitive reachability:
/// one single-seed SliceQuery. All slicing takes an optional
/// \p Budget; on exhaustion (MaxSlicePops or the deadline) the partial
/// slice is returned, marked Degraded.
SliceResult sliceBackward(const SDG &G, const Instr *Seed, SliceMode Mode,
                          const AnalysisBudget *Budget = nullptr);

} // namespace tsl

#endif // THINSLICER_SLICER_SLICER_H
