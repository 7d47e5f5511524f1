//===-- Tabulation.h - Context-sensitive slicing ----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-sensitive backward slicing as a partially balanced
/// parentheses problem (paper Section 5.3, following Reps [20] and
/// Horwitz-Reps-Binkley [11]): summary edges (actual-in -> actual-out
/// shortcuts for every same-level path through a callee) are computed
/// once per graph, then a slice is two phases of reachability — phase
/// 1 ascends into callers (never follows param-out), phase 2 descends
/// into callees (never follows param-in).
///
/// Summaries are computed callee-first, one procedure at a time: each
/// node carries a bit-vector over its own procedure's formal-outs, a
/// non-recursive procedure is one pull sweep over the condensation of
/// its same-level edges plus the summaries its callees emitted, and
/// only recursive procedure SCCs run a worklist (DESIGN.md section
/// 16).
///
/// Use with an SDG built with SDGOptions::ContextSensitive; on a
/// context-insensitive graph the direct interprocedural heap edges
/// would bypass the parenthesis matching.
///
/// Summary computation is the dominant cost and depends only on
/// (graph, mode) — not on the seed — so a SummaryCache can share one
/// summary set across every query of a batch (and across batches,
/// until the graph mutates: entries are keyed by the SDG's epoch).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_TABULATION_H
#define THINSLICER_SLICER_TABULATION_H

#include "slicer/Slicer.h"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>

namespace tsl {

/// Cross-query cache of tabulation summary sets, keyed by
/// (graph identity, graph epoch, slice mode). A mutation of the graph
/// bumps its epoch, so stale entries can never be served; they are
/// evicted when a fresh entry for the same graph is stored. Only
/// complete (non-degraded) summary sets are cached — a partial set is
/// an artifact of one query's budget, not of the graph. Thread-safe.
class SummaryCache {
public:
  /// One cached summary set: the summary adjacency as CSR over the
  /// graph's nodes (the summary sources of actual-out N are
  /// Src[Off[N] .. Off[N+1]), ascending and unique) plus its
  /// statistics.
  struct Entry {
    std::vector<unsigned> Off;
    std::vector<unsigned> Src;
    unsigned NumSummaries = 0;
    bool Partial = false;
    std::string PartialReason;

    IdRange sourcesOf(unsigned Node) const {
      return {Src.data() + Off[Node], Src.data() + Off[Node + 1]};
    }
  };

  /// Returns the cached entry for (\p G at its current epoch, \p Mode)
  /// or null on a miss.
  std::shared_ptr<const Entry> lookup(const SDG &G, SliceMode Mode);

  /// Publishes \p E for (\p G at its current epoch, \p Mode), evicting
  /// entries of older epochs of the same graph. Partial entries are
  /// ignored.
  void store(const SDG &G, SliceMode Mode, std::shared_ptr<const Entry> E);

  uint64_t hits() const;
  uint64_t misses() const;
  std::size_t size() const;
  void clear();

private:
  using Key = std::tuple<const SDG *, uint64_t, SliceMode>;

  mutable std::mutex Mu;
  std::map<Key, std::shared_ptr<const Entry>> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Context-sensitive slicer with cached summary edges for one SDG and
/// slice mode. Summary computation runs once in the constructor —
/// or is reused from a SummaryCache hit — mirroring the paper's
/// observation that the heap-parameter SDG (not the traversal) is the
/// scalability bottleneck. A constructed slicer is immutable; slice()
/// is const.
class TabulationSlicer {
public:
  /// Computes summary edges eagerly, consulting \p Cache first when
  /// given (and publishing the result to it). When \p Budget is
  /// exhausted mid-computation, the summary set stays partial — slices
  /// are then subsets of the full context-sensitive slice and are
  /// marked Degraded.
  TabulationSlicer(const SDG &G, SliceMode Mode,
                   const AnalysisBudget *Budget = nullptr,
                   SummaryCache *Cache = nullptr);

  /// Two-phase backward slice from \p Seed.
  SliceResult slice(const Instr *Seed) const;

  /// Two-phase backward slice from \p Seeds. With \p Gate set it
  /// polls that run-wide gate (see SliceEngine) instead of its own.
  SliceResult slice(const std::vector<const Instr *> &Seeds,
                    BudgetGate *Gate = nullptr) const;

  /// Number of summary edges discovered (a cost statistic).
  unsigned numSummaryEdges() const { return S->NumSummaries; }

  /// True when summary computation ran to its fixed point.
  bool summariesComplete() const { return !S->Partial; }

  /// True when the summary set was served from the cache instead of
  /// recomputed.
  bool summariesFromCache() const { return FromCache; }

  /// The summary set slices follow.
  const SummaryCache::Entry &summaries() const { return *S; }

private:
  /// Intraprocedural (same-level) edge kinds for \p Mode.
  static EdgeKindMask intraMask(SliceMode Mode) {
    EdgeKindMask Mask = edgeKindMask(SDGEdgeKind::Flow);
    if (Mode == SliceMode::Traditional)
      Mask |= edgeKindMask(SDGEdgeKind::BaseFlow) |
              edgeKindMask(SDGEdgeKind::Control);
    return Mask;
  }

  static std::shared_ptr<const SummaryCache::Entry>
  computeSummaries(const SDG &G, SliceMode Mode, const AnalysisBudget *B);

  const SDG &G;
  SliceMode Mode;
  const AnalysisBudget *B;
  std::shared_ptr<const SummaryCache::Entry> S;
  bool FromCache = false;
};

} // namespace tsl

#endif // THINSLICER_SLICER_TABULATION_H
