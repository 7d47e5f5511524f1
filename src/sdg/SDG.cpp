//===-- SDG.cpp - System dependence graph ------------------------------------==//

#include "sdg/SDG.h"

#include "ir/ProgramIO.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <cstring>

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
  const uint64_t Key = denseInstrKey(I);
  auto [It, NewKey] = StmtIndex.try_emplace(Key);
  It->second.push_back(Id);
  if (NewKey)
    AddedStmtKeys.push_back(Key);
  ++NumStmts;
  return Id;
}

IdRange SDG::nodesFor(const Instr *I) const {
  const uint64_t Key = denseInstrKey(I);
  if (!Finalized) {
    auto It = StmtIndex.find(Key);
    if (It == StmtIndex.end())
      return {};
    const std::vector<unsigned> &Clones = It->second;
    return {Clones.data(), Clones.data() + Clones.size()};
  }
  auto It = std::lower_bound(StmtKeys.begin(), StmtKeys.end(), Key);
  if (It == StmtKeys.end() || *It != Key)
    return {};
  std::size_t Idx = static_cast<std::size_t>(It - StmtKeys.begin());
  return {StmtClones.data() + StmtCloneOff[Idx],
          StmtClones.data() + StmtCloneOff[Idx + 1]};
}

int SDG::nodeFor(const Instr *I, unsigned Ctx) const {
  for (unsigned Id : nodesFor(I))
    if (Nodes[Id].Ctx == Ctx)
      return static_cast<int>(Id);
  return -1;
}

unsigned SDG::addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                          const Method *M, unsigned Part, unsigned Ctx) {
  ensureIndexes();
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
  ensureIndexes();
  auto It = HeapIndex.find(HeapKey{K, heapAnchorKey(nullptr, M), Part, Ctx});
  return It == HeapIndex.end() ? -1 : static_cast<int>(It->second);
}

int SDG::heapNodeFor(SDGNodeKind K, const Instr *Call, unsigned Part,
                     unsigned Ctx) const {
  ensureIndexes();
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

void SDG::ensureIndexes() const {
  if (IndexesValid)
    return;
  // Only decode() invalidates, and a decoded graph has no tombstones,
  // but skip dead nodes anyway so the rebuild matches compact()'s.
  auto *Self = const_cast<SDG *>(this);
  Self->StmtIndex.clear();
  Self->HeapIndex.clear();
  for (const SDGNode &N : Nodes) {
    if (N.Dead)
      continue;
    if (N.K == SDGNodeKind::Stmt)
      Self->StmtIndex[denseInstrKey(N.I)].push_back(N.Id);
    else
      Self->HeapIndex[heapKey(N)] = N.Id;
  }
  Self->IndexesValid = true;
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
    const uint64_t Key = denseInstrKey(N.I);
    auto It = StmtIndex.find(Key);
    if (It != StmtIndex.end()) {
      auto &Clones = It->second;
      Clones.erase(std::remove(Clones.begin(), Clones.end(), Id),
                   Clones.end());
      if (Clones.empty()) {
        RemovedStmtKeys.push_back(Key);
        StmtIndex.erase(It);
      }
    }
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
  keyChurnReset(); // Wholesale rebuild: the churn log is meaningless.
  StmtIndex.clear();
  HeapIndex.clear();
  for (const SDGNode &N : Nodes) {
    if (N.K == SDGNodeKind::Stmt) {
      StmtIndex[denseInstrKey(N.I)].push_back(N.Id);
    } else {
      HeapIndex[heapKey(N)] = N.Id;
    }
  }
  IndexesValid = true;
}

unsigned SDG::numEdgesOfKind(SDGEdgeKind K) const {
  unsigned N = 0;
  for (const SDGEdge &E : Edges)
    N += E.K == K;
  return N;
}

void SDG::buildCSR() {
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
}

void SDG::finalize() {
  if (Finalized)
    return;
  buildCSR();

  // Compact the statement index into sorted arrays. The hash map
  // stays live alongside them: incremental patches flip the graph
  // back to construction form, and rebuilding the map there costs
  // more than the map's footprint is worth. Clone order within one
  // instruction is preserved (insertion order = context order;
  // nodeFor() returns the first clone).
  //
  // The sorted key view itself is maintained incrementally: a patch
  // touches a handful of keys, so the previous SortedStmt plus the
  // churn log replays in one linear merge instead of a full gather
  // and sort. The mapped clone vectors are referenced by pointer —
  // stable across unordered_map insert/erase of other keys — so an
  // entry whose clone list merely changed needs no fixup at all.
  auto PairLess = [](const auto &A, const auto &B) {
    return A.first < B.first;
  };
  if (SortedStmt.empty()) {
    SortedStmt.reserve(StmtIndex.size());
    for (const auto &KV : StmtIndex)
      SortedStmt.emplace_back(KV.first, &KV.second);
    std::sort(SortedStmt.begin(), SortedStmt.end(), PairLess);
  } else if (!AddedStmtKeys.empty() || !RemovedStmtKeys.empty()) {
    std::sort(AddedStmtKeys.begin(), AddedStmtKeys.end());
    AddedStmtKeys.erase(
        std::unique(AddedStmtKeys.begin(), AddedStmtKeys.end()),
        AddedStmtKeys.end());
    std::sort(RemovedStmtKeys.begin(), RemovedStmtKeys.end());
    RemovedStmtKeys.erase(
        std::unique(RemovedStmtKeys.begin(), RemovedStmtKeys.end()),
        RemovedStmtKeys.end());
    // Final membership decides keys that churned both ways: a key
    // killed and re-created is skipped from the old view (it is in
    // the removed log) and re-enters through the add list with its
    // fresh clone-vector address; an added key that died again is
    // simply dropped here.
    std::vector<std::pair<uint64_t, const std::vector<unsigned> *>> Adds;
    Adds.reserve(AddedStmtKeys.size());
    for (uint64_t K : AddedStmtKeys) {
      auto It = StmtIndex.find(K);
      if (It != StmtIndex.end())
        Adds.emplace_back(K, &It->second);
    }
    std::vector<std::pair<uint64_t, const std::vector<unsigned> *>> NewSorted;
    NewSorted.reserve(SortedStmt.size() + Adds.size());
    auto AI = Adds.begin();
    auto RI = RemovedStmtKeys.begin();
    for (const auto &KV : SortedStmt) {
      while (AI != Adds.end() && AI->first < KV.first)
        NewSorted.push_back(*AI++);
      while (RI != RemovedStmtKeys.end() && *RI < KV.first)
        ++RI;
      if (RI != RemovedStmtKeys.end() && *RI == KV.first)
        continue;
      NewSorted.push_back(KV);
    }
    while (AI != Adds.end())
      NewSorted.push_back(*AI++);
    SortedStmt.swap(NewSorted);
  }
  AddedStmtKeys.clear();
  RemovedStmtKeys.clear();
  assert(SortedStmt.size() == StmtIndex.size() &&
         "sorted statement view out of sync with the index");
  StmtKeys.clear();
  StmtKeys.reserve(SortedStmt.size());
  StmtCloneOff.assign(SortedStmt.size() + 1, 0);
  StmtClones.clear();
  for (std::size_t I = 0; I != SortedStmt.size(); ++I) {
    StmtKeys.push_back(SortedStmt[I].first);
    StmtClones.insert(StmtClones.end(), SortedStmt[I].second->begin(),
                      SortedStmt[I].second->end());
    StmtCloneOff[I + 1] = static_cast<unsigned>(StmtClones.size());
  }

  Finalized = true;
}

void SDG::unfinalize() {
  if (!Finalized)
    return;
  // Reopening for mutation needs the construction-form indexes,
  // which a decoded graph defers (see ensureIndexes).
  ensureIndexes();
  Finalized = false;
  // The construction-time statement index stayed live through
  // finalize(), so only the query-form arrays are dropped. clear()
  // keeps their capacity: a patched graph refinalizes to (almost)
  // the same sizes, so the buffers recycle.
  StmtKeys.clear();
  StmtCloneOff.clear();
  StmtClones.clear();
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
  // Flat (key, id) / identity-tuple collectors instead of the
  // construction-form maps: the sorted statement arrays build from
  // one stable sort below, duplicate identities surface as adjacent
  // equals, and StmtIndex/HeapIndex stay empty until a mutation
  // calls ensureIndexes().
  std::vector<std::pair<uint64_t, unsigned>> StmtPairs;
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
      StmtPairs.emplace_back(denseInstrKey(I), Id);
      ++G->NumStmts;
    } else {
      HeapIds.emplace_back(K, heapAnchorKey(I, M), Part, Ctx);
      if (static_cast<SDGNodeKind>(K) == SDGNodeKind::ScalarActualIn)
        ++G->NumStmts;
    }
    G->Nodes.push_back({static_cast<SDGNodeKind>(K), I, M, Part, Ctx, Id});
  }

  // Batch duplicate-identity checks.
  std::sort(HeapIds.begin(), HeapIds.end());
  if (std::adjacent_find(HeapIds.begin(), HeapIds.end()) != HeapIds.end())
    throw SerializeError("duplicate SDG node identity");
  // Stable by key: ids within one key keep stream order — the same
  // clone order the mutation path's insertion-ordered lists produce.
  std::stable_sort(
      StmtPairs.begin(), StmtPairs.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });
  G->StmtKeys.reserve(StmtPairs.size());
  G->StmtClones.reserve(StmtPairs.size());
  G->StmtCloneOff.push_back(0);
  for (std::size_t I = 0; I != StmtPairs.size();) {
    std::size_t J = I;
    while (J != StmtPairs.size() && StmtPairs[J].first == StmtPairs[I].first)
      ++J;
    for (std::size_t A = I; A != J; ++A)
      for (std::size_t B = A + 1; B != J; ++B)
        if (G->Nodes[StmtPairs[A].second].Ctx ==
            G->Nodes[StmtPairs[B].second].Ctx)
          throw SerializeError("duplicate SDG node identity");
    G->StmtKeys.push_back(StmtPairs[I].first);
    for (std::size_t A = I; A != J; ++A)
      G->StmtClones.push_back(StmtPairs[A].second);
    G->StmtCloneOff.push_back(static_cast<unsigned>(G->StmtClones.size()));
    I = J;
  }

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
  // The construction-form indexes stay empty until the first
  // mutation rebuilds them; a warm-started session that only answers
  // queries never does. The statement arrays above plus the CSR
  // adjacency ARE the finalized form, so finalize() itself (which
  // would gather from the empty StmtIndex) must not run.
  G->DedupValid = false;
  G->IndexesValid = false;
  G->Epoch = NumNodes + NumEdges;
  G->buildCSR();
  G->Finalized = true;
  return G;
}
