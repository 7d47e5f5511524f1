//===-- SDGBuilder.cpp - Dependence graph construction -------------------------==//
//
// Builds the two SDG variants of paper Section 5. Shared parts:
// SSA-based local flow dependences labeled by operand role, control
// dependences, virtual-dispatch control edges, and scalar parameter /
// return linkage. The variants differ in heap value flow and cloning:
//
//  - context-insensitive (Sec. 5.2): statements are cloned per
//    call-graph context (as in WALA, so object-sensitive container
//    precision reaches the graph), heap value flow is one direct Flow
//    edge from each may-aliased write clone to each read clone, and
//    there are no heap parameters;
//  - context-sensitive (Sec. 5.3): one clone per method; heap
//    formal-in/out nodes per (method, partition) from mod-ref,
//    actual-in/out nodes per call site, with Flow kept intraprocedural
//    and ParamIn/ParamOut edges crossing procedure boundaries for the
//    tabulation slicer.
//
//===----------------------------------------------------------------------===//

#include "ir/ControlDep.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>
#include <unordered_map>

using namespace tsl;

namespace {

/// One analyzed clone of a method.
struct Clone {
  const Method *M;
  unsigned Ctx;
};

/// One heap access of a clone (see buildHeapCI / buildHeapCoarse).
struct Access {
  const Instr *I;
  unsigned Ctx;
  const Local *Base; ///< Null for statics.
  const Local *Src;  ///< Stores only.
  /// Points-to set of Base under the clone's aliasing regime (merged
  /// sets when clones were context-merged), resolved once here so the
  /// pairwise wiring loops do no per-pair hash lookups. Null for
  /// statics.
  const BitSet *BasePts;
};

/// All heap accesses of the collected clones, bucketed the way the
/// heap-edge wiring consumes them. Keyed by dense Field::id() in an
/// ordered map: the wiring loops iterate these, and their iteration
/// order decides edge insertion order AND — under a budget gate that
/// can trip mid-loop — which pairs get precise edges before the
/// coarse fallback takes over. Pointer-keyed unordered iteration
/// would make both depend on allocator state, breaking the
/// byte-identical-artifacts guarantee.
struct HeapAccesses {
  std::map<unsigned, std::vector<Access>> FieldStores, FieldLoads,
      StaticStores, StaticLoads;
  std::vector<Access> ArrStores, ArrLoads;
};

class Builder {
public:
  Builder(const Program &P, const PointsToResult &PTA,
          const ModRefResult *MR, const SDGOptions &Opts)
      : PTA(PTA), MR(MR), Opts(Opts), Owned(std::make_unique<SDG>(P)),
        G(Owned.get()) {
    (void)P;
  }

  /// Patch mode: adopts an existing graph instead of building one.
  Builder(SDG &Existing, const PointsToResult &PTA, const SDGOptions &Opts)
      : PTA(PTA), MR(nullptr), Opts(Opts), G(&Existing) {}

  std::unique_ptr<SDG> run(const Program &P);
  bool patch(const Program &P, const SDGPatchRequest &Req);

private:
  void collectClones(const Program &P, BudgetGate &Gate);
  void addIntraNodes(const Clone &C);
  void addIntraEdges(const Clone &C);
  void buildIntra();
  void buildScalarCallsCI();
  void buildHeapCI(BudgetGate &Gate);
  void buildScalarCallsCS(const Clone &C);
  void buildHeapCS(const Clone &C, BudgetGate &Gate);
  HeapAccesses collectHeapAccesses() const;
  void buildHeapCoarse();

  void wireCallEdge(const CallInstr *Call, unsigned CallerCtx,
                    const Method *Target, unsigned CalleeCtx);

  /// Adds one edge: appended unchecked on a cold build (run()
  /// removes duplicates once at the end), checked against the live
  /// graph in patch mode.
  void edge(unsigned From, unsigned To, SDGEdgeKind K,
            const CallInstr *Site = nullptr) {
    if (Owned)
      G->appendEdge(From, To, K, Site);
    else
      G->addEdge(From, To, K, Site);
  }

  const Instr *formalInstr(const Method *M, unsigned Idx) const;
  std::vector<const Instr *> returnInstrs(const Method *M) const;
  const ControlDeps &controlDeps(const Method *M);

  const PointsToResult &PTA;
  const ModRefResult *MR;
  SDGOptions Opts;
  /// Owning handle in build mode; null in patch mode.
  std::unique_ptr<SDG> Owned;
  SDG *G;
  std::vector<Clone> Clones;
  std::unordered_map<const Method *, std::unique_ptr<ControlDeps>> CDCache;
  /// Partition -> dense slot in buildHeapCS's actual-in table; all
  /// None between calls.
  std::vector<unsigned> PartSlot;
  /// Node-cap degradation: one clone per method instead of one per
  /// call-graph context; aliasing then uses context-merged points-to
  /// sets (a superset of every per-context set, so still sound).
  bool MergedClones = false;
};

} // namespace

const Instr *Builder::formalInstr(const Method *M, unsigned Idx) const {
  if (!M->entry())
    return nullptr;
  for (const auto &I : M->entry()->instrs())
    if (const auto *PI = dyn_cast<ParamInstr>(I.get()))
      if (PI->index() == Idx)
        return PI;
  return nullptr;
}

std::vector<const Instr *> Builder::returnInstrs(const Method *M) const {
  std::vector<const Instr *> Out;
  for (const auto &BB : M->blocks())
    if (Instr *Term = BB->terminator())
      if (isa<RetInstr>(Term) && Term->numOperands())
        Out.push_back(Term);
  return Out;
}

const ControlDeps &Builder::controlDeps(const Method *M) {
  auto It = CDCache.find(M);
  if (It == CDCache.end())
    It = CDCache.emplace(M, std::make_unique<ControlDeps>(*M)).first;
  return *It->second;
}

void Builder::collectClones(const Program &P, BudgetGate &Gate) {
  const CallGraph &CG = PTA.callGraph();
  if (Opts.ContextSensitive) {
    // One clone per reachable method; the tabulation models contexts.
    for (const auto &M : P.methods())
      if (M->entry() && CG.isReachable(M.get()))
        Clones.push_back({M.get(), 0});
    return;
  }
  // One clone per call-graph node, plus a context-0 clone for bodies
  // the analysis never reached (so any statement can seed a slice).
  for (const MethodCtx &MC : CG.nodes())
    if (MC.M->entry())
      Clones.push_back({MC.M, MC.Ctx});
  if (Opts.IncludeUnreachable)
    for (const auto &M : P.methods())
      if (M->entry() && !CG.isReachable(M.get()))
        Clones.push_back({M.get(), 0});

  // Node cap: when the per-context clones would exceed the budget,
  // fall back to one context-0 clone per method. Scalar calls are
  // then wired method-level and aliasing context-merged (both
  // over-approximate the per-context graph projected to statements).
  uint64_t EstimatedNodes = 0;
  for (const Clone &C : Clones)
    EstimatedNodes += C.M->instrs().size();
  if (Gate.poll(EstimatedNodes)) {
    MergedClones = true;
    Clones.clear();
    for (const auto &M : P.methods())
      if (M->entry() &&
          (Opts.IncludeUnreachable || CG.isReachable(M.get())))
        Clones.push_back({M.get(), 0});
  }
}

void Builder::addIntraNodes(const Clone &C) {
  for (const auto &BB : C.M->blocks())
    for (const auto &I : BB->instrs())
      G->addStmtNode(I.get(), C.M, C.Ctx);
}

/// Flow, base-flow and control edges inside clone \p C. Every endpoint
/// is a statement node of the same clone, so the clone's nodes must
/// exist already.
void Builder::addIntraEdges(const Clone &C) {
  const Method *M = C.M;
  unsigned Ctx = C.Ctx;
  auto Node = [&](const Instr *I) {
    return static_cast<unsigned>(G->nodeFor(I, Ctx));
  };

  // SSA flow dependences, classified by operand role. Call operands
  // are wired through parameter edges instead (paper Sec. 5.1), with
  // the receiver of a virtual call contributing a dispatch (control)
  // dependence.
  for (const auto &BB : M->blocks()) {
    for (const auto &I : BB->instrs()) {
      unsigned To = Node(I.get());
      if (const auto *Call = dyn_cast<CallInstr>(I.get())) {
        if (Call->isVirtual())
          if (const Instr *RecvDef = Call->receiver()->def())
            edge(Node(RecvDef), To, SDGEdgeKind::Control);
        continue;
      }
      for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx) {
        const Instr *Def = I->operand(OpIdx)->def();
        if (!Def)
          continue;
        SDGEdgeKind K = I->operandRole(OpIdx) == OperandRole::Value
                            ? SDGEdgeKind::Flow
                            : SDGEdgeKind::BaseFlow;
        edge(Node(Def), To, K);
      }
    }
  }

  // Control dependences: every statement depends on the terminators of
  // its controlling blocks.
  const ControlDeps &CD = controlDeps(M);
  for (const auto &BB : M->blocks()) {
    std::vector<const Instr *> Branches;
    for (unsigned Controller : CD.controllers(BB->id()))
      if (Instr *Term = M->blocks()[Controller]->terminator())
        Branches.push_back(Term);
    if (Branches.empty())
      continue;
    for (const auto &I : BB->instrs()) {
      unsigned To = Node(I.get());
      for (const Instr *Br : Branches)
        edge(Node(Br), To, SDGEdgeKind::Control);
    }
  }
}

/// Statement nodes and intraprocedural edges for every clone: all
/// nodes first, in clone order, then each clone's edges.
void Builder::buildIntra() {
  for (const Clone &C : Clones)
    addIntraNodes(C);
  for (const Clone &C : Clones)
    addIntraEdges(C);
}

void Builder::wireCallEdge(const CallInstr *Call, unsigned CallerCtx,
                           const Method *Target, unsigned CalleeCtx) {
  const Method *Caller = Call->parent()->parent();
  unsigned CallNode =
      static_cast<unsigned>(G->nodeFor(Call, CallerCtx));

  // Actual -> actual-in node (at the call's line) -> formal.
  for (unsigned OpIdx = 0; OpIdx != Call->numOperands(); ++OpIdx) {
    const Instr *Formal =
        formalInstr(Target, Call->formalIndexOfOperand(OpIdx));
    const Instr *ActualDef = Call->operand(OpIdx)->def();
    if (!Formal || !ActualDef)
      continue;
    int FormalNode = G->nodeFor(Formal, CalleeCtx);
    int ActualNode = G->nodeFor(ActualDef, CallerCtx);
    if (FormalNode < 0 || ActualNode < 0)
      continue;
    unsigned AI = G->addHeapNode(SDGNodeKind::ScalarActualIn, Call, Caller,
                                 OpIdx, CallerCtx);
    edge(static_cast<unsigned>(ActualNode), AI, SDGEdgeKind::Flow);
    edge(AI, static_cast<unsigned>(FormalNode), SDGEdgeKind::ParamIn,
         Call);
  }
  // Return -> call result.
  if (Call->dest() && !Target->returnType()->isVoid()) {
    for (const Instr *Ret : returnInstrs(Target)) {
      int RetNode = G->nodeFor(Ret, CalleeCtx);
      if (RetNode >= 0)
        edge(static_cast<unsigned>(RetNode), CallNode,
             SDGEdgeKind::ParamOut, Call);
    }
  }
}

void Builder::buildScalarCallsCI() {
  // Context-level call edges from the on-the-fly call graph.
  const CallGraph &CG = PTA.callGraph();
  for (const CallEdge &E : CG.edges()) {
    const MethodCtx &Caller = CG.node(E.CallerNode);
    const MethodCtx &Callee = CG.node(E.CalleeNode);
    wireCallEdge(E.Site, Caller.Ctx, Callee.M, Callee.Ctx);
  }
}

void Builder::buildScalarCallsCS(const Clone &C) {
  const CallGraph &CG = PTA.callGraph();
  for (const auto &BB : C.M->blocks()) {
    for (const auto &I : BB->instrs()) {
      const auto *Call = dyn_cast<CallInstr>(I.get());
      if (!Call)
        continue;
      for (Method *Target : CG.calleesOf(Call))
        if (Target->entry())
          wireCallEdge(Call, 0, Target, 0);
    }
  }
}

HeapAccesses Builder::collectHeapAccesses() const {
  HeapAccesses A;
  // In merged-clone degradation mode the per-context sets of the
  // unanalyzed context-0 clones would be empty (unsound), so aliasing
  // uses the context-merged supersets instead.
  auto Pts = [&](const Local *Base, unsigned Ctx) -> const BitSet * {
    if (!Base)
      return nullptr;
    return MergedClones ? &PTA.pointsTo(Base) : &PTA.pointsTo(Base, Ctx);
  };
  for (const Clone &C : Clones) {
    for (const auto &BB : C.M->blocks()) {
      for (const auto &I : BB->instrs()) {
        if (const auto *S = dyn_cast<StoreInstr>(I.get())) {
          auto &Bucket = (S->isStaticAccess() ? A.StaticStores
                                              : A.FieldStores)[S->field()->id()];
          Bucket.push_back(
              {S, C.Ctx, S->base(), S->src(), Pts(S->base(), C.Ctx)});
        } else if (const auto *L = dyn_cast<LoadInstr>(I.get())) {
          auto &Bucket = (L->isStaticAccess() ? A.StaticLoads
                                              : A.FieldLoads)[L->field()->id()];
          Bucket.push_back(
              {L, C.Ctx, L->base(), nullptr, Pts(L->base(), C.Ctx)});
        } else if (const auto *AS = dyn_cast<ArrayStoreInstr>(I.get())) {
          A.ArrStores.push_back(
              {AS, C.Ctx, AS->array(), AS->src(), Pts(AS->array(), C.Ctx)});
        } else if (const auto *AL = dyn_cast<ArrayLoadInstr>(I.get())) {
          A.ArrLoads.push_back(
              {AL, C.Ctx, AL->array(), nullptr, Pts(AL->array(), C.Ctx)});
        }
      }
    }
  }
  return A;
}

void Builder::buildHeapCI(BudgetGate &Gate) {
  // Direct write -> read edges keyed by field / array / static field,
  // guarded by may-alias of the base pointers *in the respective
  // contexts* (paper Sec. 5.2 with the object-sensitive points-to of
  // Sec. 6.1). In merged-clone degradation mode the per-context sets
  // of the unanalyzed context-0 clones would be empty (unsound), so
  // aliasing uses the context-merged supersets instead.
  HeapAccesses A = collectHeapAccesses();

  // Base points-to sets were resolved once per access at collection
  // time; the quadratic pairwise loops below are pure BitSet
  // intersections with no hash lookups.
  auto MayAlias = [&](const Access &S, const Access &L) {
    return S.BasePts->intersects(*L.BasePts);
  };
  auto Connect = [&](const Access &S, const Access &L) {
    edge(static_cast<unsigned>(G->nodeFor(S.I, S.Ctx)),
         static_cast<unsigned>(G->nodeFor(L.I, L.Ctx)),
         SDGEdgeKind::Flow);
  };

  // Each pairwise check spends one budget step; on exhaustion run()
  // falls back to coarse hub wiring, which subsumes any pair not yet
  // connected.
  for (const auto &[F, Loads] : A.FieldLoads) {
    auto It = A.FieldStores.find(F);
    if (It == A.FieldStores.end())
      continue;
    for (const Access &L : Loads)
      for (const Access &S : It->second) {
        if (Gate.spend())
          return;
        if (MayAlias(S, L))
          Connect(S, L);
      }
  }
  for (const auto &[F, Loads] : A.StaticLoads) {
    auto It = A.StaticStores.find(F);
    if (It == A.StaticStores.end())
      continue;
    for (const Access &L : Loads)
      for (const Access &S : It->second) {
        if (Gate.spend())
          return;
        Connect(S, L);
      }
  }
  for (const Access &L : A.ArrLoads)
    for (const Access &S : A.ArrStores) {
      if (Gate.spend())
        return;
      if (MayAlias(S, L))
        Connect(S, L);
    }
}

/// Coarse heap fallback for both variants: one HeapHub node per field
/// / static field / array-element class, Flow-wired store -> hub ->
/// load. Any precise write-read edge (same bucket) is subsumed by the
/// two-hop hub path, so slices over the hub graph over-approximate
/// slices over the precise graph. O(stores + loads) edges total.
void Builder::buildHeapCoarse() {
  HeapAccesses A = collectHeapAccesses();

  auto Wire = [&](unsigned Part, const std::vector<Access> &Stores,
                  const std::vector<Access> &Loads) {
    if (Stores.empty() || Loads.empty())
      return;
    unsigned Hub =
        G->addHeapNode(SDGNodeKind::HeapHub, nullptr, nullptr, Part);
    for (const Access &S : Stores)
      edge(static_cast<unsigned>(G->nodeFor(S.I, S.Ctx)), Hub,
           SDGEdgeKind::Flow);
    for (const Access &L : Loads)
      edge(Hub, static_cast<unsigned>(G->nodeFor(L.I, L.Ctx)),
           SDGEdgeKind::Flow);
  };

  for (const auto &[F, Loads] : A.FieldLoads) {
    auto It = A.FieldStores.find(F);
    if (It != A.FieldStores.end())
      Wire(F, It->second, Loads);
  }
  for (const auto &[F, Loads] : A.StaticLoads) {
    auto It = A.StaticStores.find(F);
    if (It != A.StaticStores.end())
      Wire(F, It->second, Loads);
  }
  Wire(~0u, A.ArrStores, A.ArrLoads);
}

void Builder::buildHeapCS(const Clone &C, BudgetGate &Gate) {
  assert(MR && "context-sensitive SDG requires mod-ref");
  if (Gate.exhausted())
    return;
  const Method *M = C.M;
  const CallGraph &CG = PTA.callGraph();

  // Group this method's heap accesses and calls by partition.
  // Ordered by partition id: iteration below inserts edges and can
  // trip the gate mid-loop, so its order must be deterministic.
  std::map<unsigned, std::vector<const Instr *>> LoadsByPart, StoresByPart;
  std::vector<const CallInstr *> Calls;
  for (const auto &BB : M->blocks()) {
    for (const auto &I : BB->instrs()) {
      switch (I->kind()) {
      case InstrKind::Load:
      case InstrKind::ArrayLoad:
        MR->partitionsOf(I.get()).forEach(
            [&](unsigned Part) { LoadsByPart[Part].push_back(I.get()); });
        break;
      case InstrKind::Store:
      case InstrKind::ArrayStore:
        MR->partitionsOf(I.get()).forEach(
            [&](unsigned Part) { StoresByPart[Part].push_back(I.get()); });
        break;
      case InstrKind::Call:
        Calls.push_back(cast<CallInstr>(I.get()));
        break;
      default:
        break;
      }
    }
  }

  auto FormalIn = [&](unsigned Part) {
    return G->heapNodeFor(SDGNodeKind::HeapFormalIn, M, Part);
  };
  auto FormalOut = [&](unsigned Part) {
    return G->heapNodeFor(SDGNodeKind::HeapFormalOut, M, Part);
  };

  // Loads draw from the incoming heap state and intraprocedural
  // stores; stores feed the outgoing heap state. Flow-insensitive, as
  // in the paper's representation.
  for (const auto &[Part, Loads] : LoadsByPart) {
    int FI = FormalIn(Part);
    for (const Instr *L : Loads) {
      if (Gate.spend())
        return;
      unsigned LN = static_cast<unsigned>(G->nodeFor(L, 0));
      if (FI >= 0)
        edge(static_cast<unsigned>(FI), LN, SDGEdgeKind::Flow);
      auto It = StoresByPart.find(Part);
      if (It != StoresByPart.end())
        for (const Instr *S : It->second)
          edge(static_cast<unsigned>(G->nodeFor(S, 0)), LN,
               SDGEdgeKind::Flow);
    }
  }
  for (const auto &[Part, Stores] : StoresByPart) {
    int FO = FormalOut(Part);
    if (FO < 0)
      continue;
    for (const Instr *S : Stores) {
      if (Gate.spend())
        return;
      edge(static_cast<unsigned>(G->nodeFor(S, 0)),
           static_cast<unsigned>(FO), SDGEdgeKind::Flow);
    }
  }

  // Call sites: heap actual-in/out nodes and their linkage. Each
  // call's targets and the actual nodes it creates are recorded per
  // partition (ascending) for the actual-out -> actual-in wiring
  // below.
  struct SiteParts {
    std::vector<Method *> Targets;
    std::vector<std::pair<unsigned, unsigned>> Ins, Outs; ///< (part, node)
  };
  std::vector<SiteParts> Sites(Calls.size());
  for (std::size_t CI = 0; CI != Calls.size(); ++CI) {
    if (Gate.spend())
      return;
    const CallInstr *Call = Calls[CI];
    SiteParts &SP = Sites[CI];
    SP.Targets = CG.calleesOf(Call);
    BitSet RefUnion, ModUnion;
    for (const Method *T : SP.Targets) {
      RefUnion.unionWith(MR->refOf(T));
      ModUnion.unionWith(MR->modOf(T));
    }

    RefUnion.forEach([&](unsigned Part) {
      unsigned AI = G->addHeapNode(SDGNodeKind::HeapActualIn, Call, M, Part);
      SP.Ins.emplace_back(Part, AI);
      int FI = FormalIn(Part);
      if (FI >= 0)
        edge(static_cast<unsigned>(FI), AI, SDGEdgeKind::Flow);
      auto It = StoresByPart.find(Part);
      if (It != StoresByPart.end())
        for (const Instr *S : It->second)
          edge(static_cast<unsigned>(G->nodeFor(S, 0)), AI, SDGEdgeKind::Flow);
      for (const Method *T : SP.Targets) {
        if (!MR->refOf(T).test(Part))
          continue;
        int TFI = G->heapNodeFor(SDGNodeKind::HeapFormalIn, T, Part);
        if (TFI >= 0)
          edge(AI, static_cast<unsigned>(TFI), SDGEdgeKind::ParamIn, Call);
      }
    });

    ModUnion.forEach([&](unsigned Part) {
      unsigned AO =
          G->addHeapNode(SDGNodeKind::HeapActualOut, Call, M, Part);
      SP.Outs.emplace_back(Part, AO);
      for (const Method *T : SP.Targets) {
        if (!MR->modOf(T).test(Part))
          continue;
        int TFO = G->heapNodeFor(SDGNodeKind::HeapFormalOut, T, Part);
        if (TFO >= 0)
          edge(static_cast<unsigned>(TFO), AO, SDGEdgeKind::ParamOut, Call);
      }
      // The modified state reaches this method's loads and outgoing
      // heap state.
      auto It = LoadsByPart.find(Part);
      if (It != LoadsByPart.end())
        for (const Instr *L : It->second)
          edge(AO, static_cast<unsigned>(G->nodeFor(L, 0)), SDGEdgeKind::Flow);
      int FO = FormalOut(Part);
      if (FO >= 0)
        edge(AO, static_cast<unsigned>(FO), SDGEdgeKind::Flow);
    });
  }

  // Actual-out -> actual-in edges between calls in this method (the
  // heap state written by one call may be read by another, including
  // the same call in a loop). The actual-in nodes sit in one dense
  // (call, partition slot) table; per C1, the partitions its targets
  // modify are listed once, in target order, with C1's actual-out.
  constexpr unsigned None = ~0u;
  std::vector<unsigned> SlotParts;
  for (const SiteParts &SP : Sites)
    for (auto [Part, Node] : SP.Ins)
      if (PartSlot[Part] == None) {
        PartSlot[Part] = static_cast<unsigned>(SlotParts.size());
        SlotParts.push_back(Part);
      }
  const std::size_t NumSlots = SlotParts.size();
  std::vector<unsigned> InAt(Sites.size() * NumSlots, None);
  for (std::size_t CI = 0; CI != Sites.size(); ++CI)
    for (auto [Part, Node] : Sites[CI].Ins)
      InAt[CI * NumSlots + PartSlot[Part]] = Node;
  std::vector<std::pair<unsigned, unsigned>> OutSlots; // (slot, actual-out)
  for (const SiteParts &S1 : Sites) {
    OutSlots.clear();
    for (const Method *T1 : S1.Targets)
      MR->modOf(T1).forEach([&](unsigned Part) {
        if (PartSlot[Part] == None)
          return; // No call reads it: no edge below.
        auto It = std::lower_bound(
            S1.Outs.begin(), S1.Outs.end(), std::make_pair(Part, 0u));
        OutSlots.emplace_back(PartSlot[Part], It->second);
      });
    for (std::size_t C2 = 0; C2 != Sites.size(); ++C2) {
      if (Gate.spend())
        break;
      const unsigned *Row = InAt.data() + C2 * NumSlots;
      for (auto [Slot, AO] : OutSlots)
        if (Row[Slot] != None)
          edge(AO, Row[Slot], SDGEdgeKind::Flow);
    }
    if (Gate.exhausted())
      break;
  }
  for (unsigned Part : SlotParts)
    PartSlot[Part] = None;
}

std::unique_ptr<SDG> Builder::run(const Program &P) {
  auto T0 = std::chrono::steady_clock::now();
  const AnalysisBudget *B = Opts.Budget;
  BudgetGate CloneGate(B, "sdg.clones", B ? B->MaxSdgNodes : 0);
  BudgetGate HeapGate(B, "sdg.heap", B ? B->MaxSdgEdges : 0);

  collectClones(P, CloneGate);
  buildIntra();
  if (Opts.ContextSensitive) {
    PartSlot.assign(MR->numPartitions(), ~0u);
    for (const Clone &C : Clones)
      buildScalarCallsCS(C);
    // Every method's heap formals exist before any call site is wired,
    // so a call to a method declared later still finds them.
    for (const Clone &C : Clones) {
      MR->refOf(C.M).forEach([&](unsigned Part) {
        G->addHeapNode(SDGNodeKind::HeapFormalIn, nullptr, C.M, Part);
      });
      MR->modOf(C.M).forEach([&](unsigned Part) {
        G->addHeapNode(SDGNodeKind::HeapFormalOut, nullptr, C.M, Part);
      });
    }
    for (const Clone &C : Clones) {
      buildHeapCS(C, HeapGate);
      if (HeapGate.exhausted())
        break;
    }
    if (HeapGate.exhausted())
      buildHeapCoarse();
  } else {
    if (MergedClones)
      // Context-level call-graph edges name contexts the merged graph
      // has no clones for; wire calls method-level instead (the CS
      // wiring works on any clone set and over-approximates the
      // context-level edges projected to statements).
      for (const Clone &C : Clones)
        buildScalarCallsCS(C);
    else
      buildScalarCallsCI();
    buildHeapCI(HeapGate);
    if (HeapGate.exhausted())
      buildHeapCoarse();
  }
  G->removeDuplicateEdges();

  StageReport R{"sdg", StageStatus::Complete, "", "", HeapGate.used(),
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count()};
  if (MergedClones || HeapGate.exhausted()) {
    R.Status = StageStatus::Degraded;
    std::string Reason, Fallback;
    if (MergedClones) {
      Reason = CloneGate.reason();
      Fallback = "context-merged clones";
    }
    if (HeapGate.exhausted()) {
      if (!Reason.empty())
        Reason += "; ";
      Reason += HeapGate.reason();
      if (!Fallback.empty())
        Fallback += " + ";
      Fallback += "coarse heap hubs";
    }
    R.Reason = std::move(Reason);
    R.Fallback = std::move(Fallback);
  }
  G->setReport(std::move(R));
  return std::move(Owned);
}

/// Incremental patch of a complete context-insensitive graph — see
/// patchSDGIncremental() for the contract. The plan: tombstone
/// everything an affected method owns, drop the dangling half of the
/// edge set, then re-run exactly the cold construction steps
/// restricted to affected clones / call edges / heap pairs. Every
/// add*() call is idempotent against the surviving graph, so the
/// result is the cold graph as a set of logical nodes and edges.
bool Builder::patch(const Program &P, const SDGPatchRequest &Req) {
  auto T0 = std::chrono::steady_clock::now();
  if (Opts.ContextSensitive || G->report().degraded())
    return false;
  const CallGraph &CG = PTA.callGraph();
  std::unordered_set<const Method *> AM(Req.AffectedMethods.begin(),
                                        Req.AffectedMethods.end());
  BudgetGate Gate(nullptr, "sdg.patch", 0);

  // 1. Tombstone every node of an affected method (statement clones
  // and scalar actual-in nodes alike) and every node at a retired
  // instruction. Affected-but-structurally-unchanged methods get
  // their statements rebuilt below; that is redundant work but keeps
  // one uniform invariant: no node of an affected method survives
  // with stale wiring.
  std::vector<unsigned> Kill;
  for (const SDGNode &N : G->nodes()) {
    if (N.Dead)
      continue;
    if ((N.I && Req.DeadInstrs.count(N.I)) || (N.M && AM.count(N.M)))
      Kill.push_back(N.Id);
  }
  for (unsigned Id : Kill)
    G->killNode(Id);

  // 2. Drop every edge at a tombstone and every Summary edge (the
  // tabulation slicer re-derives summaries lazily; a cold graph has
  // none at build time).
  G->removeEdgesIf([&](const SDGEdge &E) {
    return E.K == SDGEdgeKind::Summary || G->node(E.From).Dead ||
           G->node(E.To).Dead;
  });
  if (Gate.spend())
    return false;

  // 3. Affected clones, in cold collectClones order: per current
  // call-graph node, then unreachable bodies at context 0. A method
  // that gained a context shows up as a new clone here; one that
  // became unreachable gets exactly its context-0 clone back.
  Clones.clear();
  for (const MethodCtx &MC : CG.nodes())
    if (MC.M->entry() && AM.count(MC.M))
      Clones.push_back({MC.M, MC.Ctx});
  if (Opts.IncludeUnreachable)
    for (const auto &M : P.methods())
      if (M->entry() && !CG.isReachable(M.get()) && AM.count(M.get()))
        Clones.push_back({M.get(), 0});

  // 4. Statements and intraprocedural edges of the affected clones.
  for (const Clone &C : Clones)
    addIntraNodes(C);
  for (const Clone &C : Clones) {
    if (Gate.spend())
      return false;
    addIntraEdges(C);
  }

  // 5. Scalar call wiring for every call edge with an affected
  // endpoint. Wiring between two unaffected methods survived step 2
  // untouched; a call edge that disappeared implies a call-graph
  // delta, which put its caller in the affected set — so no stale
  // actual-in machinery can survive either.
  for (const CallEdge &E : CG.edges()) {
    const MethodCtx &Caller = CG.node(E.CallerNode);
    const MethodCtx &Callee = CG.node(E.CalleeNode);
    if (!AM.count(Caller.M) && !AM.count(Callee.M))
      continue;
    if (Gate.spend())
      return false;
    wireCallEdge(E.Site, Caller.Ctx, Callee.M, Callee.Ctx);
  }

  // 6. Heap wiring for pairs with an affected side. The affected set
  // covers every method whose per-context points-to facts changed, so
  // an unaffected-unaffected pair's alias verdict — and its edge — is
  // unchanged from the pre-edit graph.
  Clones.clear();
  for (const MethodCtx &MC : CG.nodes())
    if (MC.M->entry())
      Clones.push_back({MC.M, MC.Ctx});
  if (Opts.IncludeUnreachable)
    for (const auto &M : P.methods())
      if (M->entry() && !CG.isReachable(M.get()))
        Clones.push_back({M.get(), 0});
  HeapAccesses A = collectHeapAccesses();
  auto InAM = [&](const Access &X) {
    return AM.count(X.I->parent()->parent()) != 0;
  };
  auto MayAlias = [&](const Access &S, const Access &L) {
    return S.BasePts->intersects(*L.BasePts);
  };
  auto Connect = [&](const Access &S, const Access &L) {
    edge(static_cast<unsigned>(G->nodeFor(S.I, S.Ctx)),
         static_cast<unsigned>(G->nodeFor(L.I, L.Ctx)),
         SDGEdgeKind::Flow);
  };
  for (const auto &[F, Loads] : A.FieldLoads) {
    auto It = A.FieldStores.find(F);
    if (It == A.FieldStores.end())
      continue;
    for (const Access &L : Loads)
      for (const Access &S : It->second) {
        if (!InAM(S) && !InAM(L))
          continue;
        if (Gate.spend())
          return false;
        if (MayAlias(S, L))
          Connect(S, L);
      }
  }
  for (const auto &[F, Loads] : A.StaticLoads) {
    auto It = A.StaticStores.find(F);
    if (It == A.StaticStores.end())
      continue;
    for (const Access &L : Loads)
      for (const Access &S : It->second) {
        if (!InAM(S) && !InAM(L))
          continue;
        if (Gate.spend())
          return false;
        Connect(S, L);
      }
  }
  for (const Access &L : A.ArrLoads)
    for (const Access &S : A.ArrStores) {
      if (!InAM(S) && !InAM(L))
        continue;
      if (Gate.spend())
        return false;
      if (MayAlias(S, L))
        Connect(S, L);
    }

  // 7. Bound tombstone garbage, then re-compact into the query form.
  if (G->numDeadNodes() * 4 > G->numNodes())
    G->compact();
  G->finalize();
  StageReport R = G->report();
  R.StepsUsed += Gate.used();
  R.Seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  G->setReport(std::move(R));
  return true;
}

std::unique_ptr<SDG> tsl::buildSDG(const Program &P,
                                   const PointsToResult &PTA,
                                   const ModRefResult *ModRef,
                                   const SDGOptions &Options) {
  assert((!Options.ContextSensitive || ModRef) &&
         "context-sensitive SDG requires mod-ref results");
  std::unique_ptr<SDG> G = Builder(P, PTA, ModRef, Options).run(P);
  // Compact into the CSR query form before handing the graph to
  // slicers (queries self-heal via ensureFinalized, but doing it here
  // keeps the finalization cost out of the first slice's timing).
  G->finalize();
  return G;
}

bool tsl::patchSDGIncremental(SDG &G, const PointsToResult &PTA,
                              const SDGPatchRequest &Req,
                              const SDGOptions &Options) {
  if (Options.ContextSensitive || G.report().degraded())
    return false;
  Builder B(G, PTA, Options);
  return B.patch(G.program(), Req);
}
