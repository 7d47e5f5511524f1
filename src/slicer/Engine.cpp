//===-- Engine.cpp - Batched slice-query engine ------------------------------==//

#include "slicer/Engine.h"

#include "slicer/Condense.h"
#include "support/BitSet.h"

#include <algorithm>
#include <optional>

using namespace tsl;

namespace {

/// The condensation of the masked SDG subgraph the batch sweeps run
/// over.
SccCondensation condenseMasked(const SDG &G, const EdgeKindRuns &Runs) {
  return condense(
      G.numNodes(), Runs.NumRuns,
      [&](unsigned V, unsigned R) {
        return G.outNeighborRun(V, Runs.Runs[R].Begin, Runs.Runs[R].End);
      },
      [](unsigned Id) { return Id; });
}

/// One deduplicated query: the seed's expanded node set plus a
/// representative instruction (used by the tabulation path, which
/// seeds by instruction; seeds sharing a node set produce identical
/// slices either way).
struct UniqueQuery {
  std::vector<unsigned> Nodes;
  const Instr *Seed;
};

/// Queries per bit-parallel chunk: one label bit per query.
constexpr unsigned LanesPerChunk = 64;

/// Every clone of \p I.
std::vector<unsigned> nodesOf(const SDG &G, const Instr *I) {
  IdRange R = G.nodesFor(I);
  return {R.begin(), R.end()};
}

/// One sweep over the components for a chunk of labeled queries:
/// backward in increasing component id over in-neighbours (all of a
/// component's dependents finish first), forward in decreasing id over
/// out-neighbours. Every member of a component carries the same label
/// — mutually reachable nodes belong to exactly the same slices — and
/// ends up in the node set of each lane its label names.
template <bool Forward>
void sweepChunk(const SDG &G, const SccCondensation &C,
                const EdgeKindRuns &Runs, std::vector<uint64_t> &Label,
                std::vector<BitSet> &Out, BudgetGate &Gate) {
  const std::vector<unsigned> &MemberOff = C.MemberOff;
  const std::vector<unsigned> &Members = C.Members;
  for (unsigned Step = 0; Step != C.NumComps; ++Step) {
    const unsigned Cp = Forward ? C.NumComps - 1 - Step : Step;
    uint64_t Lb = 0;
    const unsigned B = MemberOff[Cp], E = MemberOff[Cp + 1];
    for (unsigned I = B; I != E; ++I)
      Lb |= Label[Members[I]];
    if (!Lb)
      continue;
    // One spend per labeled component — the batch analogue of the
    // single-seed traversal's per-pop poll.
    if (Gate.spend())
      break;
    for (unsigned I = B; I != E; ++I) {
      const unsigned X = Members[I];
      Label[X] = Lb;
      auto Propagate = [&](unsigned Y) { Label[Y] |= Lb; };
      if constexpr (Forward)
        G.forEachOutNeighbor(X, Runs, Propagate);
      else
        G.forEachInNeighbor(X, Runs, Propagate);
    }
    uint64_t T = Lb;
    while (T) {
      const unsigned L = static_cast<unsigned>(__builtin_ctzll(T));
      T &= T - 1;
      BitSet &R = Out[L];
      for (unsigned I = B; I != E; ++I)
        R.insert(Members[I]);
    }
  }
}

/// A "slice.pop" gate capped at \p B's MaxSlicePops.
BudgetGate localGate(const AnalysisBudget *B) {
  return BudgetGate(B, "slice.pop", B ? B->MaxSlicePops : 0);
}

/// True when \p I dereferences a base pointer (a heap access whose
/// aliasing an explanation level can expose).
bool dereferencesBase(const Instr *I) {
  for (unsigned Op = 0; Op != I->numOperands(); ++Op)
    if (I->operandRole(Op) == OperandRole::Base)
      return true;
  return false;
}

/// The thin slice of \p SeedNodes grown by \p Depth explanation levels
/// (paper Sec. 4.1), or to the fixpoint (Sec. 2) for ExpandToFixpoint:
/// each level absorbs the thin slice of every explainer node the slice
/// lacks as one multi-source traversal (DESIGN.md section 9). Node
/// level: explaining one clone must not pull in its other contexts.
SliceResult expand(const SDG &G, const std::vector<unsigned> &SeedNodes,
                   unsigned Depth, const AnalysisBudget *Budget,
                   BudgetGate &Gate) {
  BudgetGate Rounds(Budget, "expand.round",
                    Budget ? Budget->MaxExpansionRounds : 0);
  const bool Fixpoint = Depth == SliceQuery::ExpandToFixpoint;
  EdgeKindMask Mask = edgeKindMask(SDGEdgeKind::BaseFlow);
  if (Fixpoint)
    Mask |= edgeKindMask(SDGEdgeKind::Control);
  const EdgeKindRuns Explains = edgeKindRuns(Mask);
  SliceResult Acc = reachNodes(G, SeedNodes, SliceMode::Thin,
                               SliceDirection::Backward, Gate);
  for (unsigned Level = 0; Level != Depth && Acc.complete(); ++Level) {
    if (Rounds.spend()) {
      Acc.markDegraded(Rounds.reason());
      break;
    }
    std::vector<unsigned> Explainers;
    Acc.nodeSet().forEach([&](unsigned Node) {
      const SDGNode &N = G.node(Node);
      if (!Fixpoint && !(N.isStmt() && dereferencesBase(N.I)))
        return;
      G.forEachInNeighbor(Node, Explains, [&](unsigned From) {
        if (!Acc.containsNode(From))
          Explainers.push_back(From);
      });
    });
    if (Explainers.empty())
      break;
    Acc.unionWith(reachNodes(G, Explainers, SliceMode::Thin,
                             SliceDirection::Backward, Gate));
  }
  return Acc;
}

} // namespace

SliceResult tsl::reachNodes(const SDG &G,
                            const std::vector<unsigned> &SeedNodes,
                            SliceMode Mode, SliceDirection Dir,
                            BudgetGate &Gate) {
  const EdgeKindRuns Runs = edgeKindRuns(sliceEdgeMask(Mode));
  const bool Backward = Dir == SliceDirection::Backward;
  BitSet Visited(G.numNodes());
  // Flat BFS worklist (never popped elements are dropped all at once):
  // same visit order as a deque, one allocation per query.
  std::vector<unsigned> Queue;
  Queue.reserve(64);
  std::size_t Head = 0;
  for (unsigned Node : SeedNodes)
    if (Visited.insert(Node))
      Queue.push_back(Node);
  while (Head != Queue.size()) {
    if (Gate.spend())
      break;
    unsigned Node = Queue[Head++];
    auto Visit = [&](unsigned Next) {
      if (Visited.insert(Next))
        Queue.push_back(Next);
    };
    if (Backward)
      G.forEachInNeighbor(Node, Runs, Visit);
    else
      G.forEachOutNeighbor(Node, Runs, Visit);
  }
  SliceResult R(&G, std::move(Visited));
  if (Gate.exhausted())
    R.markDegraded(Gate.reason());
  return R;
}

//===----------------------------------------------------------------------===//
// SliceEngine
//===----------------------------------------------------------------------===//

SliceEngine::SliceEngine(const SDG &G, std::nullptr_t) : G(G) {
  G.ensureFinalized();
}

SliceEngine::~SliceEngine() = default;

std::shared_ptr<const SccCondensation>
SliceEngine::condensationFor(EdgeKindMask Mask) {
  const std::pair<uint64_t, EdgeKindMask> Key{G.epoch(), Mask};
  auto It = CondCache.find(Key);
  if (It != CondCache.end()) {
    Stats.CondensationReused = true;
    return It->second;
  }
  // Evict condensations of stale epochs before inserting.
  for (auto I = CondCache.begin(); I != CondCache.end();)
    I = I->first.first != G.epoch() ? CondCache.erase(I) : std::next(I);
  auto C = std::make_shared<const SccCondensation>(
      condenseMasked(G, edgeKindRuns(Mask)));
  CondCache.emplace(Key, C);
  return C;
}

std::vector<SliceResult>
SliceEngine::sliceBackwardBatch(const std::vector<const Instr *> &Seeds,
                                const BatchOptions &Opts) {
  SliceQuery Q;
  Q.Mode = Opts.Mode;
  Q.ContextSensitive = Opts.ContextSensitive;
  Q.Seeds = Seeds;
  return run(Q, Opts);
}

std::vector<SliceResult> SliceEngine::run(const SliceQuery &Q,
                                          const QueryOptions &Opts) {
  G.ensureFinalized();
  Stats = BatchStats();
  Stats.Queries = static_cast<unsigned>(Q.Seeds.size());

  // Deduplicate seeds by their expanded node set: textually different
  // seeds on the same statement (or several misses) collapse to one
  // query each.
  std::vector<UniqueQuery> Unique;
  std::vector<unsigned> QueryOf(Q.Seeds.size());
  std::map<std::vector<unsigned>, unsigned> Index;
  for (std::size_t I = 0; I != Q.Seeds.size(); ++I) {
    std::vector<unsigned> Nodes = nodesOf(G, Q.Seeds[I]);
    auto [It, New] =
        Index.emplace(Nodes, static_cast<unsigned>(Unique.size()));
    if (New)
      Unique.push_back({std::move(Nodes), Q.Seeds[I]});
    QueryOf[I] = It->second;
  }
  Stats.UniqueQueries = static_cast<unsigned>(Unique.size());

  // The run-wide gate every sweep chunk and tabulation shares.
  BudgetGate Gate = localGate(Opts.Budget);
  std::vector<std::optional<SliceResult>> UniqueResults(Unique.size());
  const SliceDirection Traverse = Q.Direction == SliceDirection::Backward
                                      ? SliceDirection::Backward
                                      : SliceDirection::Forward;
  // Several context-insensitive queries share one condensation sweep;
  // a single one (or an expansion, which re-seeds per level) runs the
  // breadth-first kernel instead.
  const bool Sweep =
      !Q.ContextSensitive && !Q.AliasDepth && Unique.size() > 1;

  // Crash isolation: nothing in this run throws across the engine
  // boundary. A query (or the shared setup) that dies — an injected
  // Throw fault, an internal error — cancels the gate with
  // "exception:<what>", so the queries after it stop at once, and
  // every query left without an answer comes back as an *empty
  // degraded* result carrying the gate's reason. An unanswerable
  // query fails the same way, before any work.
  std::optional<TabulationSlicer> Tab;
  std::shared_ptr<const SccCondensation> Cond;
  std::optional<SliceResult> ToSink;
  std::string Failure = Q.conflict();
  if (Failure.empty() && Q.Direction == SliceDirection::Chop && !Q.ChopSink)
    Failure = "a chop needs a sink";
  if (!Failure.empty())
    Failure = "unsupported query: " + Failure;
  else
    try {
      if (Q.ContextSensitive) {
        Tab.emplace(G, Q.Mode, Opts.Budget, Opts.Summaries);
        Stats.SummariesReused = Tab->summariesFromCache();
      } else if (Sweep) {
        Cond = condensationFor(sliceEdgeMask(Q.Mode));
      }
      if (Q.Direction == SliceDirection::Chop) {
        BudgetGate Sink = localGate(Opts.Budget);
        ToSink = reachNodes(G, nodesOf(G, Q.ChopSink), Q.Mode,
                            SliceDirection::Backward, Sink);
      }
    } catch (const std::exception &E) {
      Failure = std::string("exception:") + E.what();
    }
  if (!Failure.empty())
    Gate.cancel(Failure);

  // Work items: 64-query chunks when sweeping, unique queries
  // otherwise.
  const unsigned NumChunks =
      (static_cast<unsigned>(Unique.size()) + LanesPerChunk - 1) /
      LanesPerChunk;
  const std::size_t NumItems = !Failure.empty() ? 0
                               : Sweep ? NumChunks
                                       : Unique.size();

  // Sweep chunk: plant each lane's seed nodes, sweep the components
  // in the query's direction, then emit per-lane node sets.
  auto RunChunk = [&](unsigned Chunk) {
    const unsigned C0 = Chunk * LanesPerChunk;
    const unsigned Lanes = std::min(
        LanesPerChunk, static_cast<unsigned>(Unique.size()) - C0);
    const EdgeKindRuns Runs = edgeKindRuns(sliceEdgeMask(Q.Mode));
    std::vector<uint64_t> Label(G.numNodes(), 0);
    for (unsigned L = 0; L != Lanes; ++L)
      for (unsigned Node : Unique[C0 + L].Nodes)
        Label[Node] |= uint64_t(1) << L;
    std::vector<BitSet> Out;
    Out.reserve(Lanes);
    for (unsigned L = 0; L != Lanes; ++L)
      Out.emplace_back(G.numNodes());
    if (Traverse == SliceDirection::Forward)
      sweepChunk<true>(G, *Cond, Runs, Label, Out, Gate);
    else
      sweepChunk<false>(G, *Cond, Runs, Label, Out, Gate);
    const bool Degraded = Gate.exhausted();
    for (unsigned L = 0; L != Lanes; ++L) {
      UniqueResults[C0 + L].emplace(&G, std::move(Out[L]));
      if (Degraded)
        UniqueResults[C0 + L]->markDegraded(Gate.reason());
    }
  };

  auto RunItem = [&](unsigned Item) {
    try {
      if (Sweep)
        RunChunk(Item);
      else if (Tab)
        UniqueResults[Item].emplace(Tab->slice(
            std::vector<const Instr *>{Unique[Item].Seed}, &Gate));
      else {
        // A traversal (one seed, or an expansion) polls its own gate.
        BudgetGate Local = localGate(Opts.Budget);
        UniqueResults[Item].emplace(
            Q.AliasDepth ? expand(G, Unique[Item].Nodes, Q.AliasDepth,
                                  Opts.Budget, Local)
                         : reachNodes(G, Unique[Item].Nodes, Q.Mode,
                                      Traverse, Local));
      }
    } catch (const std::exception &E) {
      Gate.cancel(std::string("exception:") + E.what());
    }
  };

  // Every item runs, even after the gate trips: each must produce a
  // SliceResult (degraded once the gate is exhausted).
  for (unsigned Item = 0; Item != NumItems; ++Item)
    RunItem(Item);

  for (std::optional<SliceResult> &R : UniqueResults) {
    if (!R) {
      R.emplace(&G, BitSet(G.numNodes()));
      R->markDegraded(Gate.reason());
    } else if (ToSink) {
      R->intersectWith(*ToSink); // A chop: forward nodes reaching the sink.
    }
  }

  std::vector<SliceResult> Results;
  Results.reserve(Q.Seeds.size());
  for (std::size_t I = 0; I != Q.Seeds.size(); ++I)
    Results.push_back(*UniqueResults[QueryOf[I]]);
  return Results;
}
