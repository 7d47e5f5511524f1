//===-- Tabulation.cpp - Context-sensitive slicing ------------------------------==//

#include "slicer/Tabulation.h"

#include "slicer/Condense.h"
#include "support/BitSet.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace tsl;

//===----------------------------------------------------------------------===//
// SummaryCache
//===----------------------------------------------------------------------===//

std::shared_ptr<const SummaryCache::Entry>
SummaryCache::lookup(const SDG &G, SliceMode Mode) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key{&G, G.epoch(), Mode});
  if (It == Map.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  return It->second;
}

void SummaryCache::store(const SDG &G, SliceMode Mode,
                         std::shared_ptr<const Entry> E) {
  if (!E || E->Partial)
    return; // A partial set reflects one query's budget, not the graph.
  std::lock_guard<std::mutex> L(Mu);
  // Evict entries of older epochs of the same graph: they can never be
  // served again (epochs only grow).
  for (auto It = Map.begin(); It != Map.end();) {
    if (std::get<0>(It->first) == &G && std::get<1>(It->first) != G.epoch())
      It = Map.erase(It);
    else
      ++It;
  }
  Map[Key{&G, G.epoch(), Mode}] = std::move(E);
}

uint64_t SummaryCache::hits() const {
  std::lock_guard<std::mutex> L(Mu);
  return Hits;
}

uint64_t SummaryCache::misses() const {
  std::lock_guard<std::mutex> L(Mu);
  return Misses;
}

std::size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

void SummaryCache::clear() {
  std::lock_guard<std::mutex> L(Mu);
  Map.clear();
  Hits = Misses = 0;
}

//===----------------------------------------------------------------------===//
// Summary computation
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned None = ~0u;

/// Calls \p F(Bit) for every set bit of the \p W-word vector \p L.
template <typename Fn>
void forEachBit(const uint64_t *L, unsigned W, Fn F) {
  for (unsigned Wd = 0; Wd != W; ++Wd)
    for (uint64_t T = L[Wd]; T; T &= T - 1)
      F(Wd * 64 + static_cast<unsigned>(__builtin_ctzll(T)));
}

/// The summary edges of one (graph, mode), computed callee-first
/// (DESIGN.md section 16). A summary edge A -> Ao exists when some
/// formal-in Fi same-level-reaches a formal-out Fo (over same-level
/// edges and summaries), A -> Fi is a param-in edge of call site C,
/// and Fo -> Ao is C's param-out edge for Fo.
///
/// Procedures: every node starts in its method's procedure (a
/// method-less coarse heap hub in one of its own); procedures joined
/// by a same-level edge, or holding both ends of one call site's
/// linkage, merge. On a complete heap-parameter graph neither happens,
/// so procedures are methods; a budget-degraded graph's hubs join the
/// methods they connect, and the site rule keeps a graph decoded from
/// a snapshot well-defined whatever its linkage. Same-level
/// reachability then never leaves a procedure, and each node's label
/// is a bit-vector over its own procedure's formal-outs, 64 per word.
class SummarySweep {
public:
  SummarySweep(const SDG &G, EdgeKindMask IntraMask, const AnalysisBudget *B)
      : G(G), NN(G.numNodes()), Intra(edgeKindRuns(IntraMask)),
        Gate(B, "tabulation.summary", B ? B->MaxSlicePops : 0) {}

  std::shared_ptr<SummaryCache::Entry> run();

private:
  void partition();
  void indexProcedures();
  void buildRows();
  SccCondensation condenseCalls();
  bool sweep(unsigned U);
  bool iterate(const std::vector<unsigned> &Procs, unsigned Comp,
               const SccCondensation &Calls);
  /// Emits the summaries of param-in edge \p EdgeId into a formal-in of
  /// procedure \p U for the formal-out bits \p L (\p W words), calling
  /// \p Added(Src, Ao) for each.
  template <typename Fn>
  void emit(unsigned EdgeId, unsigned U, const uint64_t *L, unsigned W,
            Fn Added);
  void addSummary(unsigned Src, unsigned Ao);
  std::shared_ptr<SummaryCache::Entry> finish();

  const SDG &G;
  const unsigned NN;
  const EdgeKindRuns Intra;
  BudgetGate Gate;

  unsigned NumProcs = 0;
  std::vector<unsigned> ProcOf;              ///< Node -> procedure.
  std::vector<unsigned> ProcOff, ProcNodes;  ///< Procedure -> nodes.
  std::vector<unsigned> LocalOf;             ///< Node -> index in procedure.
  std::vector<unsigned> FoBit;               ///< Node -> formal-out bit.
  std::vector<unsigned> NumFo;               ///< Procedure -> formal-outs.
  std::vector<char> IsFormalIn;

  /// Dense actual-out rows: for call site C and callee procedure U,
  /// Rows[RowOf[(C, U)] + Bit] is C's actual-out for U's formal-out
  /// Bit, or None.
  struct SiteHash {
    std::size_t operator()(const std::pair<const CallInstr *, unsigned> &K)
        const {
      return std::hash<const void *>()(K.first) ^
             (std::size_t(K.second) * 0x9E3779B97F4A7C15ull);
    }
  };
  std::unordered_map<std::pair<const CallInstr *, unsigned>, unsigned,
                     SiteHash>
      RowOf;
  std::vector<unsigned> Rows;

  /// Emitted summaries Src -> Ao, chained per procedure of Src.
  std::vector<unsigned> SumSrc, SumAo, SumNext, SumHead;
  bool Partial = false;
};

/// Union-find root with path halving.
unsigned findRoot(std::vector<unsigned> &Parent, unsigned X) {
  while (Parent[X] != X)
    X = Parent[X] = Parent[Parent[X]];
  return X;
}

void SummarySweep::partition() {
  // Slots: one per method id, then one per method-less node, then the
  // slot of site-less linkage.
  unsigned NumMethodSlots = 0;
  for (const SDGNode &N : G.nodes())
    if (N.M)
      NumMethodSlots = std::max(NumMethodSlots, N.M->id() + 1);
  const unsigned NullSite = NumMethodSlots + NN;
  std::vector<unsigned> Slot(NN);
  for (unsigned V = 0; V != NN; ++V) {
    const SDGNode &N = G.node(V);
    Slot[V] = N.M ? N.M->id() : NumMethodSlots + V;
  }
  std::vector<unsigned> Parent(NullSite + 1);
  for (unsigned I = 0; I != Parent.size(); ++I)
    Parent[I] = I;
  auto Union = [&](unsigned A, unsigned B) {
    A = findRoot(Parent, A);
    B = findRoot(Parent, B);
    if (A != B)
      Parent[std::max(A, B)] = std::min(A, B);
  };
  auto SiteSlot = [&](const CallInstr *C) {
    return C ? C->parent()->parent()->id() : NullSite;
  };
  for (unsigned V = 0; V != NN; ++V) {
    G.forEachOutNeighbor(V, Intra, [&](unsigned W) {
      if (Slot[W] != Slot[V])
        Union(Slot[W], Slot[V]);
    });
    for (unsigned EdgeId : G.outEdgesOfKind(V, SDGEdgeKind::ParamIn)) {
      const unsigned S = SiteSlot(G.edge(EdgeId).Site);
      if (S != Slot[V])
        Union(S, Slot[V]);
    }
    for (unsigned EdgeId : G.inEdgesOfKind(V, SDGEdgeKind::ParamOut)) {
      const unsigned S = SiteSlot(G.edge(EdgeId).Site);
      if (S != Slot[V])
        Union(S, Slot[V]);
    }
  }
  std::vector<unsigned> Dense(Parent.size(), None);
  ProcOf.resize(NN);
  for (unsigned V = 0; V != NN; ++V) {
    unsigned &D = Dense[findRoot(Parent, Slot[V])];
    if (D == None)
      D = NumProcs++;
    ProcOf[V] = D;
  }
}

void SummarySweep::indexProcedures() {
  ProcOff.assign(NumProcs + 1, 0);
  for (unsigned V = 0; V != NN; ++V)
    ++ProcOff[ProcOf[V] + 1];
  for (unsigned U = 1; U <= NumProcs; ++U)
    ProcOff[U] += ProcOff[U - 1];
  ProcNodes.resize(NN);
  LocalOf.resize(NN);
  FoBit.assign(NN, None);
  IsFormalIn.assign(NN, 0);
  NumFo.assign(NumProcs, 0);
  std::vector<unsigned> Cur(ProcOff.begin(), ProcOff.end() - 1);
  for (unsigned V = 0; V != NN; ++V) {
    const unsigned U = ProcOf[V];
    LocalOf[V] = Cur[U] - ProcOff[U];
    ProcNodes[Cur[U]++] = V;
    const SDGNode &N = G.node(V);
    if (N.isFormalOut())
      FoBit[V] = NumFo[U]++;
    IsFormalIn[V] = N.isFormalIn();
  }
  SumHead.assign(NumProcs, None);
}

void SummarySweep::buildRows() {
  // Param-out edges of one formal-out sit in ascending edge-id order,
  // so the first edge per (site, formal-out) wins.
  for (unsigned V = 0; V != NN; ++V) {
    if (FoBit[V] == None)
      continue;
    const unsigned U = ProcOf[V];
    for (unsigned EdgeId : G.outEdgesOfKind(V, SDGEdgeKind::ParamOut)) {
      const SDGEdge &E = G.edge(EdgeId);
      auto [It, New] = RowOf.try_emplace(std::make_pair(E.Site, U),
                                         static_cast<unsigned>(Rows.size()));
      if (New)
        Rows.resize(Rows.size() + NumFo[U], None);
      unsigned &Ao = Rows[It->second + FoBit[V]];
      if (Ao == None)
        Ao = E.To;
    }
  }
}

SccCondensation SummarySweep::condenseCalls() {
  // Caller -> callee procedure edges, one per param-in edge into a
  // formal-in. Callees without formal-outs emit nothing, so edges into
  // them are left out (they can only add false recursion).
  std::vector<unsigned> Off(NumProcs + 1, 0), Callees;
  auto ForEachCall = [&](auto F) {
    for (unsigned V = 0; V != NN; ++V) {
      if (!IsFormalIn[V] || !NumFo[ProcOf[V]])
        continue;
      const unsigned Slot = sdgKindSlot(SDGEdgeKind::ParamIn);
      for (unsigned A : G.inNeighborRun(V, Slot, Slot + 1))
        F(ProcOf[A], ProcOf[V]);
    }
  };
  ForEachCall([&](unsigned Caller, unsigned) { ++Off[Caller + 1]; });
  for (unsigned U = 1; U <= NumProcs; ++U)
    Off[U] += Off[U - 1];
  Callees.resize(Off[NumProcs]);
  std::vector<unsigned> Cur(Off.begin(), Off.end() - 1);
  ForEachCall([&](unsigned Caller, unsigned Callee) {
    Callees[Cur[Caller]++] = Callee;
  });
  return condense(
      NumProcs, 1,
      [&](unsigned U, unsigned) {
        return IdRange(Callees.data() + Off[U], Callees.data() + Off[U + 1]);
      },
      [](unsigned U) { return U; });
}

void SummarySweep::addSummary(unsigned Src, unsigned Ao) {
  const unsigned U = ProcOf[Src];
  SumSrc.push_back(Src);
  SumAo.push_back(Ao);
  SumNext.push_back(SumHead[U]);
  SumHead[U] = static_cast<unsigned>(SumSrc.size() - 1);
}

template <typename Fn>
void SummarySweep::emit(unsigned EdgeId, unsigned U, const uint64_t *L,
                        unsigned W, Fn Added) {
  const SDGEdge &E = G.edge(EdgeId);
  auto It = RowOf.find(std::make_pair(E.Site, U));
  if (It == RowOf.end())
    return; // The site receives none of the callee's formal-outs.
  const unsigned *Row = Rows.data() + It->second;
  forEachBit(L, W, [&](unsigned Bit) {
    if (Row[Bit] != None) {
      addSummary(E.From, Row[Bit]);
      Added(E.From, Row[Bit]);
    }
  });
}

/// One non-recursive procedure: every summary into its actual-outs is
/// final, so one pull sweep over the condensation of its same-level
/// and summary edges (successors first) labels every node exactly.
bool SummarySweep::sweep(unsigned U) {
  const unsigned K = ProcOff[U + 1] - ProcOff[U];
  const unsigned *Nodes = ProcNodes.data() + ProcOff[U];
  const unsigned W = (NumFo[U] + 63) / 64;

  // The summary out-edges of this procedure's nodes as a local CSR.
  std::vector<unsigned> SOff(K + 1, 0), SAdj;
  for (unsigned S = SumHead[U]; S != None; S = SumNext[S])
    ++SOff[LocalOf[SumSrc[S]] + 1];
  for (unsigned I = 1; I <= K; ++I)
    SOff[I] += SOff[I - 1];
  SAdj.resize(SOff[K]);
  {
    std::vector<unsigned> Cur(SOff.begin(), SOff.end() - 1);
    for (unsigned S = SumHead[U]; S != None; S = SumNext[S])
      SAdj[Cur[LocalOf[SumSrc[S]]]++] = SumAo[S];
  }
  const unsigned NumRuns = Intra.NumRuns + 1;
  auto Run = [&](unsigned V, unsigned R) {
    if (R == Intra.NumRuns)
      return IdRange(SAdj.data() + SOff[V], SAdj.data() + SOff[V + 1]);
    return G.outNeighborRun(Nodes[V], Intra.Runs[R].Begin, Intra.Runs[R].End);
  };
  const SccCondensation C =
      condense(K, NumRuns, Run, [&](unsigned Id) { return LocalOf[Id]; });

  std::vector<uint64_t> Label(std::size_t(K) * W, 0), Lb(W);
  for (unsigned Cp = 0; Cp != C.NumComps; ++Cp) {
    std::fill(Lb.begin(), Lb.end(), 0);
    bool Any = false;
    for (unsigned I = C.MemberOff[Cp]; I != C.MemberOff[Cp + 1]; ++I) {
      const unsigned V = C.Members[I];
      if (FoBit[Nodes[V]] != None) {
        Lb[FoBit[Nodes[V]] / 64] |= uint64_t(1) << (FoBit[Nodes[V]] % 64);
        Any = true;
      }
      for (unsigned R = 0; R != NumRuns; ++R)
        for (unsigned Succ : Run(V, R)) {
          const uint64_t *Ls = Label.data() + std::size_t(LocalOf[Succ]) * W;
          for (unsigned Wd = 0; Wd != W; ++Wd) {
            Lb[Wd] |= Ls[Wd];
            Any |= Ls[Wd] != 0;
          }
        }
    }
    if (!Any)
      continue;
    // One spend per labeled component.
    if (Gate.spend())
      return false;
    for (unsigned I = C.MemberOff[Cp]; I != C.MemberOff[Cp + 1]; ++I)
      std::copy(Lb.begin(), Lb.end(),
                Label.begin() + std::size_t(C.Members[I]) * W);
  }

  for (unsigned V = 0; V != K; ++V) {
    if (!IsFormalIn[Nodes[V]])
      continue;
    const uint64_t *L = Label.data() + std::size_t(V) * W;
    for (unsigned EdgeId : G.inEdgesOfKind(Nodes[V], SDGEdgeKind::ParamIn))
      emit(EdgeId, U, L, W, [](unsigned, unsigned) {});
  }
  return true;
}

/// A recursive procedure SCC: labels grow by worklist until no label
/// and no summary changes. Summaries between members feed back into
/// the members' labels as they appear; summaries into callers wait for
/// the callers' turn.
bool SummarySweep::iterate(const std::vector<unsigned> &Procs, unsigned Comp,
                           const SccCondensation &Calls) {
  // Comp-local numbering: procedure U's nodes start at Start[U], its
  // labels at word Base[U].
  std::vector<unsigned> Start(NumProcs, 0);
  std::vector<std::size_t> Base(NumProcs, 0);
  unsigned NumLocal = 0;
  std::size_t NumWords = 0;
  for (unsigned U : Procs) {
    Start[U] = NumLocal;
    Base[U] = NumWords;
    const unsigned K = ProcOff[U + 1] - ProcOff[U];
    NumLocal += K;
    NumWords += std::size_t(K) * ((NumFo[U] + 63) / 64);
  }
  auto WordsOf = [&](unsigned Node) { return (NumFo[ProcOf[Node]] + 63) / 64; };
  auto Local = [&](unsigned Node) {
    return Start[ProcOf[Node]] + LocalOf[Node];
  };
  std::vector<uint64_t> Label(NumWords, 0), Done(NumWords, 0);
  auto LabelOf = [&](std::vector<uint64_t> &Vec, unsigned Node) {
    return Vec.data() + Base[ProcOf[Node]] +
           std::size_t(LocalOf[Node]) * WordsOf(Node);
  };
  std::vector<char> Queued(NumLocal, 0);
  std::vector<unsigned> Work;
  std::vector<std::vector<unsigned>> SumIn(NumLocal);
  auto Push = [&](unsigned Node) {
    char &Q = Queued[Local(Node)];
    if (!Q) {
      Q = 1;
      Work.push_back(Node);
    }
  };
  // Label(To) flows into Label(From); From is queued when it grew.
  auto Pull = [&](unsigned From, unsigned To) {
    uint64_t *Lf = LabelOf(Label, From);
    const uint64_t *Lt = LabelOf(Label, To);
    bool Grew = false;
    for (unsigned Wd = 0, W = WordsOf(To); Wd != W; ++Wd) {
      Grew |= (Lt[Wd] & ~Lf[Wd]) != 0;
      Lf[Wd] |= Lt[Wd];
    }
    if (Grew)
      Push(From);
  };

  for (unsigned U : Procs) {
    for (unsigned S = SumHead[U]; S != None; S = SumNext[S])
      SumIn[Local(SumAo[S])].push_back(SumSrc[S]);
    for (unsigned I = ProcOff[U]; I != ProcOff[U + 1]; ++I) {
      const unsigned V = ProcNodes[I];
      if (FoBit[V] == None)
        continue;
      LabelOf(Label, V)[FoBit[V] / 64] |= uint64_t(1) << (FoBit[V] % 64);
      Push(V);
    }
  }

  std::vector<uint64_t> New;
  while (!Work.empty()) {
    if (Gate.spend())
      return false;
    const unsigned N = Work.back();
    Work.pop_back();
    Queued[Local(N)] = 0;
    G.forEachInNeighbor(N, Intra, [&](unsigned From) { Pull(From, N); });
    for (unsigned From : SumIn[Local(N)])
      Pull(From, N);
    if (!IsFormalIn[N])
      continue;
    // Summaries for the formal-out bits this formal-in gained since
    // its last visit.
    const unsigned W = WordsOf(N);
    uint64_t *L = LabelOf(Label, N), *D = LabelOf(Done, N);
    New.assign(W, 0);
    bool Any = false;
    for (unsigned Wd = 0; Wd != W; ++Wd) {
      New[Wd] = L[Wd] & ~D[Wd];
      D[Wd] |= New[Wd];
      Any |= New[Wd] != 0;
    }
    if (!Any)
      continue;
    for (unsigned EdgeId : G.inEdgesOfKind(N, SDGEdgeKind::ParamIn))
      emit(EdgeId, ProcOf[N], New.data(), W, [&](unsigned Src, unsigned Ao) {
        if (Calls.Comp[ProcOf[Src]] != Comp)
          return; // A caller outside the SCC: it runs later.
        SumIn[Local(Ao)].push_back(Src);
        Pull(Src, Ao);
      });
  }
  return true;
}

std::shared_ptr<SummaryCache::Entry> SummarySweep::finish() {
  auto E = std::make_shared<SummaryCache::Entry>();
  E->Off.assign(NN + 1, 0);
  for (unsigned Ao : SumAo)
    ++E->Off[Ao + 1];
  for (unsigned V = 1; V <= NN; ++V)
    E->Off[V] += E->Off[V - 1];
  E->Src.resize(SumSrc.size());
  std::vector<unsigned> Cur(E->Off.begin(), E->Off.end() - 1);
  for (std::size_t S = 0; S != SumSrc.size(); ++S)
    E->Src[Cur[SumAo[S]]++] = SumSrc[S];
  // Sort-unique each row in place, compacting as we go.
  unsigned Out = 0;
  for (unsigned V = 0; V != NN; ++V) {
    auto B = E->Src.begin() + E->Off[V], End = E->Src.begin() + E->Off[V + 1];
    std::sort(B, End);
    End = std::unique(B, End);
    E->Off[V] = Out;
    Out = static_cast<unsigned>(std::copy(B, End, E->Src.begin() + Out) -
                                E->Src.begin());
  }
  E->Off[NN] = Out;
  E->Src.resize(Out);
  E->Src.shrink_to_fit();
  E->NumSummaries = Out;
  E->Partial = Partial;
  if (Partial)
    E->PartialReason = Gate.reason();
  return E;
}

std::shared_ptr<SummaryCache::Entry> SummarySweep::run() {
  partition();
  indexProcedures();
  buildRows();
  const SccCondensation Calls = condenseCalls();
  // Component ids put callees first (a call edge's callee has the
  // smaller id).
  std::vector<unsigned> Procs;
  for (unsigned Cp = 0; Cp != Calls.NumComps && !Partial; ++Cp) {
    Procs.assign(Calls.Members.begin() + Calls.MemberOff[Cp],
                 Calls.Members.begin() + Calls.MemberOff[Cp + 1]);
    Procs.erase(std::remove_if(Procs.begin(), Procs.end(),
                               [&](unsigned U) { return !NumFo[U]; }),
                Procs.end());
    if (Procs.empty())
      continue;
    bool Recursive = Procs.size() > 1;
    if (!Recursive) {
      // A single procedure is recursive when it calls itself.
      const unsigned U = Procs.front();
      const unsigned Slot = sdgKindSlot(SDGEdgeKind::ParamIn);
      for (unsigned I = ProcOff[U]; I != ProcOff[U + 1] && !Recursive; ++I)
        if (IsFormalIn[ProcNodes[I]])
          for (unsigned A : G.inNeighborRun(ProcNodes[I], Slot, Slot + 1))
            Recursive |= ProcOf[A] == U;
    }
    Partial = Recursive ? !iterate(Procs, Cp, Calls) : !sweep(Procs.front());
  }
  return finish();
}

} // namespace

//===----------------------------------------------------------------------===//
// TabulationSlicer
//===----------------------------------------------------------------------===//

TabulationSlicer::TabulationSlicer(const SDG &G, SliceMode Mode,
                                   const AnalysisBudget *Budget,
                                   SummaryCache *Cache)
    : G(G), Mode(Mode), B(Budget) {
  G.ensureFinalized();
  if (Cache)
    if ((S = Cache->lookup(G, Mode))) {
      FromCache = true;
      return;
    }
  S = computeSummaries(G, Mode, B);
  if (Cache)
    Cache->store(G, Mode, S);
}

std::shared_ptr<const SummaryCache::Entry>
TabulationSlicer::computeSummaries(const SDG &G, SliceMode Mode,
                                   const AnalysisBudget *B) {
  // A budget caps labeled components and worklist pops. Stopping early
  // leaves the summary set partial: slices then miss some summary
  // shortcuts and under-approximate the full context-sensitive slice
  // (sound for thin slicing's subset claim; marked Degraded on every
  // slice).
  return SummarySweep(G, intraMask(Mode), B).run();
}

SliceResult TabulationSlicer::slice(const Instr *Seed) const {
  return slice(std::vector<const Instr *>{Seed});
}

SliceResult TabulationSlicer::slice(const std::vector<const Instr *> &Seeds,
                                    BudgetGate *Gate) const {
  std::optional<BudgetGate> Local;
  if (!Gate)
    Gate = &Local.emplace(B, "slice.pop", B ? B->MaxSlicePops : 0);

  const EdgeKindMask Intra = intraMask(Mode);
  const EdgeKindRuns Ascend =
      edgeKindRuns(Intra | edgeKindMask(SDGEdgeKind::ParamIn));
  const EdgeKindRuns Descend =
      edgeKindRuns(Intra | edgeKindMask(SDGEdgeKind::ParamOut));

  BitSet Visited(G.numNodes());
  // Flat FIFO worklist, reset between the phases.
  std::vector<unsigned> Queue;
  std::size_t Head = 0;
  auto Enqueue = [&](unsigned Node) {
    if (Visited.insert(Node))
      Queue.push_back(Node);
  };
  auto FollowSummaries = [&](unsigned Node) {
    for (unsigned Src : S->sourcesOf(Node))
      Enqueue(Src);
  };

  // Phase 1: ascend — intraprocedural edges, summaries, and param-in
  // (into callers); never param-out.
  BitSet Phase1(G.numNodes());
  for (const Instr *Seed : Seeds)
    for (unsigned Node : G.nodesFor(Seed))
      Enqueue(Node);
  while (Head != Queue.size()) {
    if (Gate->spend())
      break;
    unsigned Node = Queue[Head++];
    Phase1.insert(Node);
    G.forEachInNeighbor(Node, Ascend, Enqueue);
    FollowSummaries(Node);
  }

  // Phase 2: descend — intraprocedural edges, summaries, and param-out
  // (into callees); never param-in.
  Queue.clear();
  Head = 0;
  Phase1.forEach([&](unsigned Node) { Queue.push_back(Node); });
  while (Head != Queue.size()) {
    if (Gate->spend())
      break;
    unsigned Node = Queue[Head++];
    G.forEachInNeighbor(Node, Descend, Enqueue);
    FollowSummaries(Node);
  }

  SliceResult R(&G, std::move(Visited));
  if (S->Partial)
    R.markDegraded(S->PartialReason);
  if (Gate->exhausted())
    R.markDegraded(Gate->reason());
  return R;
}
