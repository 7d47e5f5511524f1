//===-- SDG.cpp - System dependence graph ------------------------------------==//

#include "sdg/SDG.h"

#include "ir/ProgramIO.h"
#include "support/Casting.h"

#include <algorithm>

using namespace tsl;

const char *tsl::sdgEdgeKindName(SDGEdgeKind K) {
  switch (K) {
  case SDGEdgeKind::Flow:
    return "flow";
  case SDGEdgeKind::BaseFlow:
    return "base-flow";
  case SDGEdgeKind::Control:
    return "control";
  case SDGEdgeKind::ParamIn:
    return "param-in";
  case SDGEdgeKind::ParamOut:
    return "param-out";
  case SDGEdgeKind::Summary:
    return "summary";
  }
  return "?";
}

unsigned SDG::addStmtNode(const Instr *I, const Method *M, unsigned Ctx) {
  for (unsigned Id : nodesFor(I))
    if (Nodes[Id].Ctx == Ctx)
      return Id;
  unfinalize();
  ++Epoch;
  unsigned Id = static_cast<unsigned>(Nodes.size());
  Nodes.push_back({SDGNodeKind::Stmt, I, M, 0, Ctx, Id});
  clonesOf(I).push_back(Id);
  ++NumStmts;
  return Id;
}

std::vector<unsigned> &SDG::clonesOf(const Instr *I) {
  const Method *M = I->parent()->parent();
  if (M->id() >= InstrClones.size())
    InstrClones.resize(std::max<std::size_t>(M->id() + 1,
                                             P.methods().size()));
  std::vector<std::vector<unsigned>> &ByInstr = InstrClones[M->id()];
  if (I->id() >= ByInstr.size())
    ByInstr.resize(std::max<std::size_t>(I->id() + 1, M->numInstrs()));
  return ByInstr[I->id()];
}

int SDG::nodeFor(const Instr *I, unsigned Ctx) const {
  for (unsigned Id : nodesFor(I))
    if (Nodes[Id].Ctx == Ctx)
      return static_cast<int>(Id);
  return -1;
}

unsigned SDG::addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                          const Method *M, unsigned Part, unsigned Ctx) {
  ensureHeapIndex();
  auto [It, New] = HeapIndex.try_emplace(
      HeapKey{K, heapAnchorKey(CallOrNull, M), Part, Ctx}, 0);
  if (!New)
    return It->second;
  unfinalize();
  ++Epoch;
  unsigned Id = static_cast<unsigned>(Nodes.size());
  Nodes.push_back({K, CallOrNull, M, Part, Ctx, Id});
  It->second = Id;
  if (K == SDGNodeKind::ScalarActualIn)
    ++NumStmts; // Scalar parameter passing counts as a statement.
  return Id;
}

int SDG::heapNodeFor(SDGNodeKind K, const Method *M, unsigned Part,
                     unsigned Ctx) const {
  ensureHeapIndex();
  auto It = HeapIndex.find(HeapKey{K, heapAnchorKey(nullptr, M), Part, Ctx});
  return It == HeapIndex.end() ? -1 : static_cast<int>(It->second);
}

int SDG::heapNodeFor(SDGNodeKind K, const Instr *Call, unsigned Part,
                     unsigned Ctx) const {
  ensureHeapIndex();
  auto It = HeapIndex.find(HeapKey{K, heapAnchorKey(Call, nullptr), Part, Ctx});
  return It == HeapIndex.end() ? -1 : static_cast<int>(It->second);
}

void SDG::ensureEdgeDedup() {
  if (DedupValid)
    return;
  EdgeDedup.clear();
  EdgeDedup.reserve(Edges.size());
  for (const SDGEdge &E : Edges)
    EdgeDedup.insert(edgeKey(E));
  DedupValid = true;
}

void SDG::ensureHeapIndex() const {
  if (HeapIndexValid)
    return;
  // Only decode() invalidates, and a decoded graph has no tombstones,
  // but skip dead nodes anyway so the rebuild matches compact()'s.
  auto *Self = const_cast<SDG *>(this);
  Self->HeapIndex.clear();
  for (const SDGNode &N : Nodes)
    if (!N.Dead && N.K != SDGNodeKind::Stmt)
      Self->HeapIndex[heapKey(N)] = N.Id;
  Self->HeapIndexValid = true;
}

bool SDG::addEdge(unsigned From, unsigned To, SDGEdgeKind K,
                  const CallInstr *Site) {
  ensureEdgeDedup();
  if (!EdgeDedup.insert(EdgeKey{From, To, K, siteKey(Site)}).second)
    return false;
  unfinalize();
  ++Epoch;
  Edges.push_back({From, To, K, Site});
  return true;
}

void SDG::appendEdge(unsigned From, unsigned To, SDGEdgeKind K,
                     const CallInstr *Site) {
  unfinalize();
  ++Epoch;
  Edges.push_back({From, To, K, Site});
  DedupValid = false;
}

void SDG::removeDuplicateEdges() {
  // Equal edges share their To: bucket edge ids by To (a counting
  // sort keeps ascending ids per bucket), then, within a bucket, chain
  // the kept edges per From and compare kind and site along the chain.
  // Flat arrays only — no per-edge allocation.
  const std::size_t NN = Nodes.size(), NE = Edges.size();
  std::vector<unsigned> Off(NN + 1, 0), ById(NE);
  for (const SDGEdge &E : Edges)
    ++Off[E.To + 1];
  for (std::size_t I = 1; I <= NN; ++I)
    Off[I] += Off[I - 1];
  {
    std::vector<unsigned> Cur(Off.begin(), Off.end() - 1);
    for (std::size_t Id = 0; Id != NE; ++Id)
      ById[Cur[Edges[Id].To]++] = static_cast<unsigned>(Id);
  }
  constexpr unsigned None = ~0u;
  std::vector<unsigned> Stamp(NN, None), Head(NN), Next(NE);
  std::vector<char> Dup(NE, 0);
  unsigned NumDup = 0;
  for (std::size_t To = 0; To != NN; ++To) {
    for (unsigned I = Off[To]; I != Off[To + 1]; ++I) {
      const unsigned Id = ById[I];
      const SDGEdge &E = Edges[Id];
      if (Stamp[E.From] != To) {
        Stamp[E.From] = static_cast<unsigned>(To);
        Head[E.From] = None;
      }
      bool Seen = false;
      for (unsigned J = Head[E.From]; J != None && !Seen; J = Next[J])
        Seen = Edges[J].K == E.K && Edges[J].Site == E.Site;
      if (Seen) {
        Dup[Id] = 1;
        ++NumDup;
        continue;
      }
      Next[Id] = Head[E.From];
      Head[E.From] = Id;
    }
  }
  if (NumDup) {
    std::size_t Out = 0;
    for (std::size_t Id = 0; Id != NE; ++Id)
      if (!Dup[Id])
        Edges[Out++] = Edges[Id];
    Edges.resize(Out);
    Epoch -= NumDup; // addEdge bumps the epoch for new edges only.
  }
  DedupValid = false;
}

void SDG::killNode(unsigned Id) {
  SDGNode &N = Nodes[Id];
  if (N.Dead)
    return;
  unfinalize();
  ++Epoch;
  N.Dead = true;
  ++NumDead;
  if (N.K == SDGNodeKind::Stmt) {
    --NumStmts;
    std::vector<unsigned> &Clones = clonesOf(N.I);
    Clones.erase(std::remove(Clones.begin(), Clones.end(), Id), Clones.end());
  } else {
    if (N.K == SDGNodeKind::ScalarActualIn)
      --NumStmts;
    HeapIndex.erase(heapKey(N));
  }
}

unsigned SDG::removeEdgesIf(const std::function<bool(const SDGEdge &)> &Pred) {
  unfinalize();
  std::vector<SDGEdge> Kept;
  Kept.reserve(Edges.size());
  unsigned Removed = 0;
  for (const SDGEdge &E : Edges) {
    if (Pred(E)) {
      if (DedupValid)
        EdgeDedup.erase(edgeKey(E));
      ++Removed;
    } else {
      Kept.push_back(E);
    }
  }
  if (Removed) {
    Edges.swap(Kept);
    ++Epoch;
  }
  return Removed;
}

void SDG::compact() {
  if (!NumDead)
    return;
  unfinalize();
  ++Epoch;
  std::vector<unsigned> NewId(Nodes.size(), ~0u);
  std::vector<SDGNode> Live;
  Live.reserve(Nodes.size() - NumDead);
  for (SDGNode &N : Nodes) {
    if (N.Dead)
      continue;
    NewId[N.Id] = static_cast<unsigned>(Live.size());
    N.Id = NewId[N.Id];
    Live.push_back(N);
  }
  Nodes.swap(Live);
  NumDead = 0;
  std::vector<SDGEdge> Kept;
  Kept.reserve(Edges.size());
  for (SDGEdge &E : Edges) {
    if (NewId[E.From] == ~0u || NewId[E.To] == ~0u)
      continue; // Edge at a tombstone: dropped with its node.
    E.From = NewId[E.From];
    E.To = NewId[E.To];
    Kept.push_back(E);
  }
  Edges.swap(Kept);
  EdgeDedup.clear(); // Rebuilt by the next checked mutation.
  DedupValid = false;
  // killNode() already dropped dead ids from the statement index, and
  // renumbering keeps relative order, so each clone list is remapped
  // in place.
  for (auto &ByInstr : InstrClones)
    for (std::vector<unsigned> &Clones : ByInstr)
      for (unsigned &Id : Clones)
        Id = NewId[Id];
  HeapIndex.clear();
  for (const SDGNode &N : Nodes)
    if (N.K != SDGNodeKind::Stmt)
      HeapIndex[heapKey(N)] = N.Id;
  HeapIndexValid = true;
}

unsigned SDG::numEdgesOfKind(SDGEdgeKind K) const {
  unsigned N = 0;
  for (const SDGEdge &E : Edges)
    N += E.K == K;
  return N;
}

void SDG::finalize() {
  if (Finalized)
    return;
  const std::size_t NK = NumSDGEdgeKinds;
  const std::size_t Slots = Nodes.size() * NK;

  // Counting sort of the edge list into kind-partitioned CSR rows, in
  // both directions. Within one (node, kind) segment edges keep
  // ascending edge-id order, so the layout is deterministic.
  InOff.assign(Slots + 1, 0);
  OutOff.assign(Slots + 1, 0);
  for (const SDGEdge &E : Edges) {
    ++InOff[std::size_t(E.To) * NK + sdgKindSlot(E.K) + 1];
    ++OutOff[std::size_t(E.From) * NK + sdgKindSlot(E.K) + 1];
  }
  for (std::size_t I = 1; I <= Slots; ++I) {
    InOff[I] += InOff[I - 1];
    OutOff[I] += OutOff[I - 1];
  }
  InNbr.resize(Edges.size());
  InEdgeId.resize(Edges.size());
  OutNbr.resize(Edges.size());
  OutEdgeId.resize(Edges.size());
  // Scatter using the offset arrays themselves as cursors (classic
  // counting-sort trick: after the scatter InOff[s] is the END of
  // segment s, i.e. the start of s+1, so shifting restores offsets
  // without a cursor copy).
  for (std::size_t EdgeId = 0; EdgeId != Edges.size(); ++EdgeId) {
    const SDGEdge &E = Edges[EdgeId];
    unsigned InPos = InOff[std::size_t(E.To) * NK + sdgKindSlot(E.K)]++;
    InNbr[InPos] = E.From;
    InEdgeId[InPos] = static_cast<unsigned>(EdgeId);
    unsigned OutPos = OutOff[std::size_t(E.From) * NK + sdgKindSlot(E.K)]++;
    OutNbr[OutPos] = E.To;
    OutEdgeId[OutPos] = static_cast<unsigned>(EdgeId);
  }
  for (std::size_t I = Slots; I != 0; --I) {
    InOff[I] = InOff[I - 1];
    OutOff[I] = OutOff[I - 1];
  }
  InOff[0] = 0;
  OutOff[0] = 0;
  Finalized = true;
}


void SDG::unfinalize() {
  if (!Finalized)
    return;
  // Reopening for mutation needs the heap-node index, which a decoded
  // graph defers (see ensureHeapIndex).
  ensureHeapIndex();
  Finalized = false;
  // Only the CSR arrays are dropped. clear() keeps their capacity: a
  // patched graph refinalizes to (almost) the same sizes, so the
  // buffers recycle.
  InOff.clear();
  OutOff.clear();
  InNbr.clear();
  OutNbr.clear();
  InEdgeId.clear();
  OutEdgeId.clear();
}

//===----------------------------------------------------------------------===//
// Snapshot codec
//===----------------------------------------------------------------------===//

void SDG::encode(ByteWriter &W) const {
  putReport(W, Report);

  // Live nodes, remapped to sequential ids so a post-patch graph with
  // tombstones encodes as its compacted equivalent.
  std::vector<unsigned> NewId(Nodes.size(), ~0u);
  unsigned NumLive = 0;
  for (const SDGNode &N : Nodes)
    if (!N.Dead)
      NewId[N.Id] = NumLive++;
  W.vu64(NumLive);
  for (const SDGNode &N : Nodes) {
    if (N.Dead)
      continue;
    W.u8(static_cast<uint8_t>(N.K));
    W.vu64(N.I ? denseInstrKey(N.I) + 1 : 0);
    W.vu32(N.M ? N.M->id() + 1 : 0);
    W.vu32(N.Part);
    W.vu32(N.Ctx);
  }

  // Non-Summary edges with live endpoints. Summary edges are the
  // tabulation slicer's lazily re-derived cache, absent from a cold
  // build, so dropping them keeps decode byte-identical to cold.
  uint64_t NumKept = 0;
  for (const SDGEdge &E : Edges)
    if (E.K != SDGEdgeKind::Summary && NewId[E.From] != ~0u &&
        NewId[E.To] != ~0u)
      ++NumKept;
  W.vu64(NumKept);
  for (const SDGEdge &E : Edges) {
    if (E.K == SDGEdgeKind::Summary || NewId[E.From] == ~0u ||
        NewId[E.To] == ~0u)
      continue;
    W.vu32(NewId[E.From]);
    W.vu32(NewId[E.To]);
    W.u8(static_cast<uint8_t>(E.K));
    W.vu64(E.Site ? denseInstrKey(E.Site) + 1 : 0);
  }
}

std::unique_ptr<SDG> SDG::decode(ByteReader &R, const Program &P) {
  auto G = std::make_unique<SDG>(P);
  G->setReport(getReport(R));

  // Direct fill instead of mutation-API replay: the per-call
  // unfinalize/epoch bookkeeping and the edge-dedup set inserts were
  // the bulk of warm-start decode time. Ids are assigned sequentially
  // in encode order, exactly as a replay would, and every check the
  // mutation path performs (anchor shape, duplicate identity, edge
  // bounds) is kept.
  const uint64_t NumNodes = R.vu64();
  // Each node record is at least 5 bytes, so the payload size bounds
  // the count; reject before reserving against a hostile header.
  if (NumNodes > R.remaining())
    throw SerializeError("SDG node count exceeds payload");
  G->Nodes.reserve(NumNodes);
  // Statements fill the statement index directly, in stream order —
  // the clone order the mutation path's appends produce. Heap
  // identities go to a flat tuple collector instead of HeapIndex,
  // where duplicates surface as adjacent equals after one sort;
  // HeapIndex stays empty until a mutation calls ensureHeapIndex().
  std::vector<std::tuple<uint8_t, uint64_t, unsigned, unsigned>> HeapIds;
  for (uint64_t N = 0; N != NumNodes; ++N) {
    uint8_t K = R.u8();
    if (K > static_cast<uint8_t>(SDGNodeKind::HeapHub))
      throw SerializeError("unknown SDG node kind");
    uint64_t IKey = R.vu64();
    uint32_t MId = R.vu32();
    unsigned Part = R.vu32();
    unsigned Ctx = R.vu32();
    const Instr *I = IKey ? instrForKey(P, IKey - 1) : nullptr;
    const Method *M = MId ? methodForId(P, MId - 1) : nullptr;
    const unsigned Id = static_cast<unsigned>(N);
    if (static_cast<SDGNodeKind>(K) == SDGNodeKind::Stmt) {
      if (!I || !M)
        throw SerializeError("statement node without anchor");
      if (Part)
        throw SerializeError("statement node with partition");
      std::vector<unsigned> &Clones = G->clonesOf(I);
      for (unsigned Other : Clones)
        if (G->Nodes[Other].Ctx == Ctx)
          throw SerializeError("duplicate SDG node identity");
      Clones.push_back(Id);
      ++G->NumStmts;
    } else {
      HeapIds.emplace_back(K, heapAnchorKey(I, M), Part, Ctx);
      if (static_cast<SDGNodeKind>(K) == SDGNodeKind::ScalarActualIn)
        ++G->NumStmts;
    }
    G->Nodes.push_back({static_cast<SDGNodeKind>(K), I, M, Part, Ctx, Id});
  }

  // Batch duplicate-identity check over the heap nodes.
  std::sort(HeapIds.begin(), HeapIds.end());
  if (std::adjacent_find(HeapIds.begin(), HeapIds.end()) != HeapIds.end())
    throw SerializeError("duplicate SDG node identity");

  const uint64_t NumEdges = R.vu64();
  if (NumEdges > R.remaining())
    throw SerializeError("SDG edge count exceeds payload");
  G->Edges.reserve(NumEdges);
  for (uint64_t E = 0; E != NumEdges; ++E) {
    unsigned From = R.vu32();
    unsigned To = R.vu32();
    uint8_t K = R.u8();
    uint64_t SKey = R.vu64();
    if (From >= NumNodes || To >= NumNodes ||
        K > static_cast<uint8_t>(SDGEdgeKind::Summary))
      throw SerializeError("malformed SDG edge");
    const CallInstr *Site = nullptr;
    if (SKey) {
      Site = dyn_cast<CallInstr>(instrForKey(P, SKey - 1));
      if (!Site)
        throw SerializeError("SDG edge site is not a call");
    }
    G->Edges.push_back({From, To, static_cast<SDGEdgeKind>(K), Site});
  }
  // EdgeDedup and HeapIndex stay empty until the first mutation
  // rebuilds them; a warm-started session that only answers queries
  // never does.
  G->DedupValid = false;
  G->HeapIndexValid = false;
  G->Epoch = NumNodes + NumEdges;
  G->finalize();
  return G;
}
