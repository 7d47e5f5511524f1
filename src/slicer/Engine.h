//===-- Engine.h - Batched slice-query engine -------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one query path: SliceEngine::run() answers every SliceQuery
/// kind over one finalized SDG — N seeds in, N SliceResults out, in
/// seed order, seeds with the same SDG node set answered once. One
/// unique context-insensitive seed (a one-line query) runs a
/// breadth-first CSR traversal (reachNodes); several run as
/// SCC-condensed bit-parallel label propagation, 64 queries per
/// machine word, backward or forward over one condensation cached per
/// graph epoch and edge mask. Chops intersect a forward run with the
/// sink's backward traversal; aliasing levels and the fixpoint
/// expansion grow a thin slice by one multi-source traversal per
/// level; context-sensitive queries run the tabulation slicer per
/// unique seed, sharing summaries through a SummaryCache. DESIGN.md
/// section 9 has the algorithms.
///
/// A run is one sequential loop over its work items (64-query chunks
/// when sweeping, unique seeds otherwise) on the calling thread. The
/// items share one BudgetGate, so an AnalysisBudget passed to a run
/// governs the sweeps' and tabulations' *total* slicing work; the
/// breadth-first traversals (one seed, each expansion seed, a chop's
/// sink) each poll their own gate. An engine is confined to one
/// thread; the finalized SDG it reads is immutable, so engines on
/// different threads may share one graph (the daemon's request-local
/// engines do).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_ENGINE_H
#define THINSLICER_SLICER_ENGINE_H

#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

namespace tsl {

/// How a query runs (SliceQuery says what it asks).
struct QueryOptions {
  /// Ignored: every run is sequential on the calling thread. Kept so
  /// that callers written for the former slice pool still compile.
  unsigned Jobs = 0;
  /// Optional run-wide budget (MaxSlicePops caps the *total* pops
  /// across all seeds of the run).
  const AnalysisBudget *Budget = nullptr;
  /// Optional cross-run summary cache for context-sensitive queries.
  SummaryCache *Summaries = nullptr;
};

/// A backward batch: the SliceQuery mode and flavor on top of the
/// run options, as sliceBackwardBatch() takes them.
struct BatchOptions : QueryOptions {
  SliceMode Mode = SliceMode::Thin;
  /// Use the context-sensitive tabulation slicer (the SDG must have
  /// been built with SDGOptions::ContextSensitive).
  bool ContextSensitive = false;
};

/// What the most recent run did, for reporting and tests.
struct BatchStats {
  unsigned Queries = 0;       ///< Seeds requested.
  unsigned UniqueQueries = 0; ///< Distinct seed node sets actually run.
  bool SummariesReused = false; ///< CS summary set came from the cache.
  bool CondensationReused = false; ///< CI condensation came from the cache.
};

/// The SCC condensation of one mode-masked SDG subgraph (defined in
/// slicer/Condense.h); cached per (epoch, mask) inside the engine.
struct SccCondensation;

/// The slice-query engine over one SDG. Construction finalizes the
/// graph if needed; run() may be called repeatedly (stats describe the
/// most recent run; the condensation cache carries over).
class SliceEngine {
public:
  /// The second parameter is ignored: it is where the former slice
  /// pool was passed, kept so that `SliceEngine(G, nullptr)` compiles.
  explicit SliceEngine(const SDG &G, std::nullptr_t = nullptr);
  ~SliceEngine();

  /// Answers \p Q: one SliceResult per seed, in seed order. Never
  /// throws: a query that cannot be answered (see
  /// SliceQuery::conflict(); a chop without a sink) or that dies
  /// mid-run comes back as empty Degraded results carrying the reason.
  std::vector<SliceResult> run(const SliceQuery &Q,
                               const QueryOptions &Opts = {});

  /// Backward-slices every seed: run() on a backward query.
  std::vector<SliceResult>
  sliceBackwardBatch(const std::vector<const Instr *> &Seeds,
                     const BatchOptions &Opts = {});

  const BatchStats &stats() const { return Stats; }

private:
  /// Condensation for \p Mask at the graph's current epoch, building
  /// and caching it on a miss. Stale-epoch entries are evicted.
  std::shared_ptr<const SccCondensation> condensationFor(EdgeKindMask Mask);

  const SDG &G;
  BatchStats Stats;
  std::map<std::pair<uint64_t, EdgeKindMask>,
           std::shared_ptr<const SccCondensation>>
      CondCache;
};

/// The engine's single-query kernel: breadth-first context-insensitive
/// reachability from \p SeedNodes (specific clones) in direction
/// \p Dir (Backward or Forward), charging one pop per visited node to
/// \p Gate. Stopping early only under-visits, so a tripped gate yields
/// a Degraded subset of the full result.
SliceResult reachNodes(const SDG &G, const std::vector<unsigned> &SeedNodes,
                       SliceMode Mode, SliceDirection Dir, BudgetGate &Gate);

} // namespace tsl

#endif // THINSLICER_SLICER_ENGINE_H
