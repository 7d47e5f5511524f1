//===-- Expansion.cpp - Hierarchical thin-slice expansion ----------------------==//

#include "slicer/Expansion.h"

using namespace tsl;

const Local *ThinExpansion::basePointerOf(const Instr *I) {
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

const Local *ThinExpansion::indexOf(const Instr *I) {
  switch (I->kind()) {
  case InstrKind::ArrayLoad:
    return cast<ArrayLoadInstr>(I)->index();
  case InstrKind::ArrayStore:
    return cast<ArrayStoreInstr>(I)->index();
  default:
    return nullptr;
  }
}

SliceResult ThinExpansion::filteredThinSlice(const Local *L,
                                             const BitSet &Common) const {
  const Instr *Def = L->def();
  if (!Def)
    return SliceResult(&G, BitSet());
  SliceResult Full = sliceBackward(G, Def, SliceMode::Thin, B);

  // Keep statements that handle one of the common objects: their
  // defined value, the value they store, or — for parameter passing —
  // the actual argument may be such an object.
  BitSet Kept(G.numNodes());
  Full.nodeSet().forEach([&](unsigned Node) {
    const SDGNode &N = G.node(Node);
    if (!N.isSourceStmt())
      return;
    const Instr *I = N.I;
    const Local *Val = nullptr;
    if (N.K == SDGNodeKind::ScalarActualIn)
      Val = I->operand(N.Part);
    else if ((Val = I->dest()) == nullptr) {
      if (const auto *S = dyn_cast<StoreInstr>(I))
        Val = S->src();
      else if (const auto *AS = dyn_cast<ArrayStoreInstr>(I))
        Val = AS->src();
      else if (const auto *R = dyn_cast<RetInstr>(I))
        Val = R->src();
    }
    if (Val && Val->type()->isReference() &&
        PTA.pointsTo(Val).intersects(Common))
      Kept.insert(Node);
  });
  SliceResult Out(&G, std::move(Kept));
  if (!Full.complete())
    Out.markDegraded(Full.degradedReason());
  return Out;
}

SliceResult ThinExpansion::explainAliasing(const Instr *Write,
                                           const Instr *Read) const {
  const Local *WBase = basePointerOf(Write);
  const Local *RBase = basePointerOf(Read);
  if (!WBase || !RBase)
    return SliceResult(&G, BitSet());
  BitSet Common = PTA.commonObjects(WBase, RBase);
  SliceResult Out = filteredThinSlice(WBase, Common);
  Out.unionWith(filteredThinSlice(RBase, Common));
  return Out;
}

SliceResult ThinExpansion::explainIndices(const Instr *Write,
                                          const Instr *Read) const {
  BitSet Nodes(G.numNodes());
  SliceResult Out(&G, std::move(Nodes));
  for (const Instr *I : {Write, Read}) {
    const Local *Idx = indexOf(I);
    if (!Idx || !Idx->def())
      continue;
    Out.unionWith(sliceBackward(G, Idx->def(), SliceMode::Thin, B));
  }
  return Out;
}

std::vector<const Instr *>
ThinExpansion::controlExplainers(const Instr *S) const {
  std::vector<const Instr *> Out;
  int Node = G.nodeFor(S);
  if (Node < 0)
    return Out;
  for (unsigned EdgeId : G.inEdges(static_cast<unsigned>(Node))) {
    const SDGEdge &E = G.edge(EdgeId);
    if (E.K != SDGEdgeKind::Control)
      continue;
    const SDGNode &From = G.node(E.From);
    if (From.isStmt())
      Out.push_back(From.I);
  }
  return Out;
}
