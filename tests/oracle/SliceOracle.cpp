//===-- SliceOracle.cpp - Reference slicers for differential tests -------===//

#include "oracle/SliceOracle.h"

#include <deque>

using namespace tsl;

namespace {

/// Breadth-first reachability from \p Seeds over the edge records.
SliceResult legacyReach(const SDG &G, const std::vector<unsigned> &Seeds,
                        SliceMode Mode, bool Backward) {
  BitSet Visited(G.numNodes());
  std::deque<unsigned> Queue;
  for (unsigned Node : Seeds)
    if (Visited.insert(Node))
      Queue.push_back(Node);
  while (!Queue.empty()) {
    unsigned Node = Queue.front();
    Queue.pop_front();
    for (unsigned EdgeId : Backward ? G.inEdges(Node) : G.outEdges(Node)) {
      const SDGEdge &E = G.edge(EdgeId);
      if (!sliceFollowsEdge(Mode, E.K))
        continue;
      unsigned Next = Backward ? E.From : E.To;
      if (Visited.insert(Next))
        Queue.push_back(Next);
    }
  }
  return SliceResult(&G, std::move(Visited));
}

std::vector<unsigned> clonesOf(const SDG &G, const Instr *I) {
  std::vector<unsigned> Nodes;
  for (unsigned Node : G.nodesFor(I))
    Nodes.push_back(Node);
  return Nodes;
}

/// The base-pointer local of a heap access, or null.
const Local *basePointerOf(const Instr *I) {
  switch (I->kind()) {
  case InstrKind::Load:
    return cast<LoadInstr>(I)->base();
  case InstrKind::Store:
    return cast<StoreInstr>(I)->base();
  case InstrKind::ArrayLoad:
    return cast<ArrayLoadInstr>(I)->array();
  case InstrKind::ArrayStore:
    return cast<ArrayStoreInstr>(I)->array();
  case InstrKind::ArrayLen:
    return cast<ArrayLenInstr>(I)->array();
  default:
    return nullptr;
  }
}

} // namespace

SliceResult tsl::sliceBackwardLegacy(const SDG &G, const Instr *Seed,
                                     SliceMode Mode) {
  BitSet Visited(G.numNodes());
  std::deque<unsigned> Queue;
  for (unsigned Node : G.nodesFor(Seed))
    if (Visited.insert(Node))
      Queue.push_back(Node);
  while (!Queue.empty()) {
    unsigned Node = Queue.front();
    Queue.pop_front();
    for (unsigned EdgeId : G.inEdges(Node)) {
      const SDGEdge &E = G.edge(EdgeId);
      if (!sliceFollowsEdge(Mode, E.K))
        continue;
      if (Visited.insert(E.From))
        Queue.push_back(E.From);
    }
  }
  return SliceResult(&G, std::move(Visited));
}

SliceResult tsl::sliceForwardLegacy(const SDG &G, const Instr *Seed,
                                    SliceMode Mode) {
  return legacyReach(G, clonesOf(G, Seed), Mode, /*Backward=*/false);
}

SliceResult tsl::chopLegacy(const SDG &G, const Instr *Source,
                            const Instr *Sink, SliceMode Mode) {
  BitSet Nodes = sliceForwardLegacy(G, Source, Mode).nodeSet();
  Nodes.intersectWith(sliceBackwardLegacy(G, Sink, Mode).nodeSet());
  return SliceResult(&G, std::move(Nodes));
}

SliceResult tsl::expandLegacy(const SDG &G, const Instr *Seed,
                              unsigned Depth) {
  const bool Fixpoint = Depth == SliceQuery::ExpandToFixpoint;
  SliceResult Acc = sliceBackwardLegacy(G, Seed, SliceMode::Thin);
  for (unsigned Level = 0; Level != Depth; ++Level) {
    std::vector<unsigned> Explainers;
    Acc.nodeSet().forEach([&](unsigned Node) {
      const SDGNode &N = G.node(Node);
      if (!Fixpoint && !(N.isStmt() && basePointerOf(N.I)))
        return;
      for (unsigned EdgeId : G.inEdges(Node)) {
        const SDGEdge &E = G.edge(EdgeId);
        bool Explains = E.K == SDGEdgeKind::BaseFlow ||
                        (Fixpoint && E.K == SDGEdgeKind::Control);
        if (Explains && !Acc.containsNode(E.From))
          Explainers.push_back(E.From);
      }
    });
    if (Explainers.empty())
      break;
    for (unsigned Node : Explainers)
      if (!Acc.containsNode(Node))
        Acc.unionWith(
            legacyReach(G, {Node}, SliceMode::Thin, /*Backward=*/true));
  }
  return Acc;
}
