//===-- SummaryOracle.cpp - Reference summary computation ----------------------==//

#include "oracle/SummaryOracle.h"

#include "support/BitSet.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace tsl;

std::shared_ptr<const SummaryCache::Entry>
tsl::computeSummariesReference(const SDG &G, SliceMode Mode,
                               const AnalysisBudget *B) {
  G.ensureFinalized();
  // Path edges (FormalOut, Node): Node same-level-reaches FormalOut
  // within one procedure instance, using intraprocedural edges and
  // already-discovered summary edges. When a path edge reaches a
  // formal-in, a summary edge (actual source -> actual out) is emitted
  // at every matching call site.
  auto E = std::make_shared<SummaryCache::Entry>();
  std::unordered_map<unsigned, std::vector<unsigned>> SummaryIn;

  EdgeKindMask IntraMask = edgeKindMask(SDGEdgeKind::Flow);
  if (Mode == SliceMode::Traditional)
    IntraMask |= edgeKindMask(SDGEdgeKind::BaseFlow) |
                 edgeKindMask(SDGEdgeKind::Control);
  const EdgeKindRuns Intra = edgeKindRuns(IntraMask);

  // Index formal-out nodes densely.
  std::vector<unsigned> FormalOuts;
  for (const SDGNode &N : G.nodes())
    if (N.isFormalOut())
      FormalOuts.push_back(N.Id);

  // ParamOut map: (site, formal-out) -> actual-out node. Exact keys:
  // a collision would emit a summary edge to the wrong call.
  std::map<std::pair<const CallInstr *, unsigned>, unsigned> ActualOutOf;
  for (unsigned EdgeId = 0; EdgeId != G.numEdges(); ++EdgeId) {
    const SDGEdge &Ed = G.edge(EdgeId);
    if (Ed.K == SDGEdgeKind::ParamOut)
      ActualOutOf.emplace(std::make_pair(Ed.Site, Ed.From), Ed.To);
  }

  // Path-edge state: per formal-out, the set of same-level reaching
  // nodes.
  std::vector<BitSet> Reaches(FormalOuts.size());
  std::deque<std::pair<unsigned, unsigned>> WL; // (foIdx, node)

  auto Propagate = [&](unsigned FoIdx, unsigned Node) {
    if (Reaches[FoIdx].insert(Node))
      WL.emplace_back(FoIdx, Node);
  };

  // Per actual-out node, the path edges seen so far (for re-triggering
  // when a summary into that actual-out appears later).
  std::unordered_map<unsigned, std::vector<unsigned>> PathAtNode;

  for (unsigned FoIdx = 0; FoIdx != FormalOuts.size(); ++FoIdx)
    Propagate(FoIdx, FormalOuts[FoIdx]);

  std::unordered_set<uint64_t> SummaryDedup;
  BudgetGate Gate(B, "tabulation.summary", B ? B->MaxSlicePops : 0);

  while (!WL.empty()) {
    if (Gate.spend()) {
      E->Partial = true;
      E->PartialReason = Gate.reason();
      break;
    }
    auto [FoIdx, Node] = WL.front();
    WL.pop_front();
    PathAtNode[Node].push_back(FoIdx);

    G.forEachInNeighbor(Node, Intra,
                        [&](unsigned From) { Propagate(FoIdx, From); });
    auto SumIt = SummaryIn.find(Node);
    if (SumIt != SummaryIn.end())
      for (unsigned Src : SumIt->second)
        Propagate(FoIdx, Src);

    // Summary creation at formal-ins.
    const SDGNode &N = G.node(Node);
    if (!N.isFormalIn())
      continue;
    unsigned Fo = FormalOuts[FoIdx];
    for (unsigned EdgeId : G.inEdgesOfKind(Node, SDGEdgeKind::ParamIn)) {
      const SDGEdge &Ed = G.edge(EdgeId);
      auto AoIt = ActualOutOf.find(std::make_pair(Ed.Site, Fo));
      if (AoIt == ActualOutOf.end())
        continue; // This call site never receives Fo's value.
      unsigned Ao = AoIt->second;
      unsigned Src = Ed.From;
      uint64_t Key = (static_cast<uint64_t>(Src) << 32) | Ao;
      if (!SummaryDedup.insert(Key).second)
        continue;
      SummaryIn[Ao].push_back(Src);
      ++E->NumSummaries;
      // Re-trigger path edges already sitting at the actual-out.
      for (unsigned Fo2Idx : PathAtNode[Ao])
        Propagate(Fo2Idx, Src);
    }
  }

  // The CSR form: per actual-out, ascending unique sources.
  E->Off.assign(G.numNodes() + 1, 0);
  for (unsigned Node = 0; Node != G.numNodes(); ++Node) {
    auto It = SummaryIn.find(Node);
    if (It != SummaryIn.end()) {
      std::sort(It->second.begin(), It->second.end());
      E->Src.insert(E->Src.end(), It->second.begin(), It->second.end());
    }
    E->Off[Node + 1] = static_cast<unsigned>(E->Src.size());
  }
  return E;
}
