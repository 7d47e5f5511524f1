//===-- SDG.h - System dependence graph --------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system dependence graph (Horwitz-Reps-Binkley [11]) variant used
/// by both slicers (paper Section 5). Nodes are statements plus — in
/// the context-sensitive variant only — heap formal/actual parameter
/// nodes derived from mod-ref (Section 5.3). Edges carry the kind
/// distinctions thin slicing is built on:
///
///  - Flow:     producer flow dependence (value use) — the only
///              intraprocedural kind thin slices follow;
///  - BaseFlow: flow into a base pointer or array index (explainer);
///  - Control:  control dependence, including virtual-dispatch
///              dependence of a call on its receiver (explainer);
///  - ParamIn / ParamOut: interprocedural parameter/return linkage,
///              annotated with the call site for context-sensitive
///              matching;
///  - Summary:  actual-in -> actual-out shortcuts added by the
///              tabulation slicer.
///
/// Edges are stored in dependence direction: an edge From -> To means
/// "To depends on From"; backward slicing walks inEdges.
///
/// The graph has two phases. During construction it is mutable and
/// keeps hash indexes for heap-node and edge identity. finalize()
/// compacts the edges into an immutable, query-optimized form: CSR
/// (compressed sparse row) in/out adjacency *partitioned by edge
/// kind*, so a slicer following a set of kinds iterates contiguous
/// neighbor runs with no per-edge branch or edge-record load. The
/// statement index has one form in both phases: a table indexed by
/// (method id, method-local instruction id). buildSDG() returns
/// finalized graphs; a mutation after finalize() transparently reopens
/// the graph (and bumps the epoch that keys cross-query caches such as
/// the tabulation SummaryCache).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SDG_SDG_H
#define THINSLICER_SDG_SDG_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "support/Budget.h"
#include "support/Serialize.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tsl {

class ModRefResult;
class PointsToResult;

enum class SDGNodeKind {
  Stmt,
  /// Scalar actual-in: one per (call, operand). Renders at the call's
  /// source line — parameter passing is a producer statement (the
  /// paper's Figure 1 thin slice includes the call line 17).
  ScalarActualIn,
  HeapFormalIn,
  HeapFormalOut,
  HeapActualIn,
  HeapActualOut,
  /// Coarse heap fallback node (budget degradation): one hub per
  /// field / static field / array-element class, with Flow edges
  /// store -> hub -> load. The hub path over-approximates every
  /// precise pairwise write-read edge in O(stores + loads) edges.
  HeapHub,
};

enum class SDGEdgeKind {
  Flow,
  BaseFlow,
  Control,
  ParamIn,
  ParamOut,
  Summary,
};

/// Number of edge kinds — the CSR adjacency partition count.
constexpr unsigned NumSDGEdgeKinds = 6;

/// Bit mask over SDGEdgeKind values; the unit slicers select their
/// followed-edge set with.
using EdgeKindMask = unsigned;

constexpr EdgeKindMask edgeKindMask(SDGEdgeKind K) {
  return 1u << static_cast<unsigned>(K);
}

/// CSR partition slot of each edge kind. Slots order the kinds so the
/// unit slicers' masks select one contiguous run per node: Flow,
/// ParamIn, ParamOut first (the thin mask is slots [0,3)), then
/// BaseFlow, Control (traditional is [0,5)), then Summary.
constexpr unsigned sdgKindSlot(SDGEdgeKind K) {
  constexpr unsigned Slot[NumSDGEdgeKinds] = {
      /*Flow*/ 0, /*BaseFlow*/ 3, /*Control*/ 4,
      /*ParamIn*/ 1, /*ParamOut*/ 2, /*Summary*/ 5};
  return Slot[static_cast<unsigned>(K)];
}

/// The contiguous slot runs a kind mask selects, precomputed once per
/// traversal so the per-node cost of a masked neighbor scan is two
/// offset loads per run (both slicing masks are a single run).
struct EdgeKindRuns {
  struct Run {
    unsigned Begin, End; ///< Slot interval [Begin, End).
  };
  Run Runs[NumSDGEdgeKinds];
  unsigned NumRuns = 0;
};

inline EdgeKindRuns edgeKindRuns(EdgeKindMask Mask) {
  bool Sel[NumSDGEdgeKinds] = {};
  for (unsigned K = 0; K != NumSDGEdgeKinds; ++K)
    if (Mask & (1u << K))
      Sel[sdgKindSlot(static_cast<SDGEdgeKind>(K))] = true;
  EdgeKindRuns R;
  for (unsigned S = 0; S != NumSDGEdgeKinds; ++S) {
    if (!Sel[S])
      continue;
    unsigned B = S;
    while (S + 1 != NumSDGEdgeKinds && Sel[S + 1])
      ++S;
    R.Runs[R.NumRuns++] = {B, S + 1};
  }
  return R;
}

/// Returns a short printable edge-kind name.
const char *sdgEdgeKindName(SDGEdgeKind K);

/// One SDG node.
///
/// In the context-insensitive graph (paper Sec. 5.2), statements are
/// cloned per analysis context of their method — exactly as WALA's SDG
/// keys statements by call-graph node — so the object-sensitive
/// container precision survives into the dependence graph. Ctx is 0
/// everywhere in the context-sensitive (heap-parameter) variant, which
/// models calling contexts with the tabulation instead.
struct SDGNode {
  SDGNodeKind K;
  /// Stmt: the instruction. HeapActual*: the call instruction.
  const Instr *I;
  /// The owning method (for formal nodes and statements alike).
  const Method *M;
  /// Heap partition id (heap parameter nodes), or operand index
  /// (scalar actual-in nodes).
  unsigned Part;
  /// Analysis context of the owning method's clone.
  unsigned Ctx;
  unsigned Id;
  /// Tombstone flag set by SDG::killNode(). A dead node keeps its id
  /// (ids are embedded in edges and the CSR arrays) but is absent
  /// from every index, has no incident edges, and is skipped by
  /// statement lookups. compact() renumbers them away.
  bool Dead = false;

  bool isStmt() const { return K == SDGNodeKind::Stmt; }

  /// True for nodes a user inspects as a source statement: plain
  /// statements and scalar parameter passing at call sites. These are
  /// what the paper's "SDG Statements" metric counts (heap parameter
  /// nodes are excluded).
  bool isSourceStmt() const {
    return K == SDGNodeKind::Stmt || K == SDGNodeKind::ScalarActualIn;
  }

  bool isFormalIn() const {
    return K == SDGNodeKind::HeapFormalIn ||
           (K == SDGNodeKind::Stmt && I && I->kind() == InstrKind::Param);
  }
  bool isFormalOut() const {
    return K == SDGNodeKind::HeapFormalOut ||
           (K == SDGNodeKind::Stmt && I && I->kind() == InstrKind::Ret);
  }
};

/// One SDG edge (From -> To: "To depends on From").
struct SDGEdge {
  unsigned From;
  unsigned To;
  SDGEdgeKind K;
  /// Call site for ParamIn/ParamOut/Summary edges; null otherwise.
  const CallInstr *Site;
};

/// Lightweight view of a contiguous run of unsigned ids (node ids,
/// edge ids, statement-clone ids). Valid as long as the graph is not
/// mutated.
class IdRange {
public:
  IdRange() = default;
  IdRange(const unsigned *B, const unsigned *E) : B(B), E(E) {}

  const unsigned *begin() const { return B; }
  const unsigned *end() const { return E; }
  std::size_t size() const { return static_cast<std::size_t>(E - B); }
  bool empty() const { return B == E; }
  unsigned operator[](std::size_t I) const { return B[I]; }
  unsigned front() const { return *B; }

private:
  const unsigned *B = nullptr;
  const unsigned *E = nullptr;
};

/// The dependence graph plus node/edge indexes.
class SDG {
public:
  explicit SDG(const Program &P) : P(P) {}

  const Program &program() const { return P; }

  //===------------------------------------------------------------------===//
  // Construction (used by SDGBuilder and the tabulation slicer)
  //===------------------------------------------------------------------===//

  unsigned addStmtNode(const Instr *I, const Method *M, unsigned Ctx = 0);
  unsigned addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                       const Method *M, unsigned Part, unsigned Ctx = 0);

  /// Adds an edge if not already present; returns true when new.
  bool addEdge(unsigned From, unsigned To, SDGEdgeKind K,
               const CallInstr *Site = nullptr);

  /// Appends an edge without the duplicate check — the cold build's
  /// path (DESIGN.md section 17). The builder calls
  /// removeDuplicateEdges() once at the end, before anything reads
  /// the edge list.
  void appendEdge(unsigned From, unsigned To, SDGEdgeKind K,
                  const CallInstr *Site = nullptr);

  /// Drops every edge equal to an earlier one. The first occurrence
  /// wins, so the survivors keep the order and ids a run of checked
  /// addEdge calls would have given them. EdgeDedup is left lazy, as
  /// after decode().
  void removeDuplicateEdges();

  //===------------------------------------------------------------------===//
  // Incremental maintenance (used by patchSDGIncremental)
  //===------------------------------------------------------------------===//

  /// Tombstones a node: the id survives (edges and CSR embed ids) but
  /// the node leaves every index, so statement seeds and heap-node
  /// lookups no longer find it, and re-adding the same identity later
  /// creates a fresh node. The caller must also remove its incident
  /// edges (removeEdgesIf) — a surviving edge at a dead node would
  /// corrupt slices.
  void killNode(unsigned Id);

  /// Removes every edge matching \p Pred, with its dedup entry, so an
  /// identical edge can be re-added. Returns the number removed.
  unsigned removeEdgesIf(const std::function<bool(const SDGEdge &)> &Pred);

  /// Tombstoned nodes still occupying id slots.
  unsigned numDeadNodes() const { return NumDead; }

  /// Renumbers nodes and edges to drop tombstones (the garbage bound
  /// for long incremental sessions). Every id changes; any remaining
  /// edge at a dead node is dropped.
  void compact();

  //===------------------------------------------------------------------===//
  // Finalization (CSR compaction)
  //===------------------------------------------------------------------===//

  /// Compacts the graph into the immutable query form: edge-kind-
  /// partitioned CSR in/out adjacency. The statement index needs no
  /// query form, and the heap-node index stays live so patches can
  /// reopen the graph without a rebuild. Idempotent; buildSDG() calls
  /// it before returning.
  void finalize();

  bool finalized() const { return Finalized; }

  /// Const-callable finalization trigger, so read paths on a graph
  /// someone forgot to finalize heal themselves instead of crashing.
  /// Call once before fanning queries out across threads.
  void ensureFinalized() const {
    if (!Finalized)
      const_cast<SDG *>(this)->finalize();
  }

  /// Mutation counter. Bumped by every node/edge addition; caches
  /// derived from the graph (e.g. tabulation summary edges) key on
  /// (graph, epoch) and are invalidated by any mutation.
  uint64_t epoch() const { return Epoch; }

  //===------------------------------------------------------------------===//
  // Queries
  //===------------------------------------------------------------------===//

  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const SDGNode &node(unsigned Id) const { return Nodes[Id]; }
  const std::vector<SDGNode> &nodes() const { return Nodes; }

  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }
  const SDGEdge &edge(unsigned Id) const { return Edges[Id]; }

  /// Edge ids whose To is \p Node (the node's dependences), grouped by
  /// edge kind in sdgKindSlot order.
  IdRange inEdges(unsigned Node) const {
    ensureFinalized();
    return rowEdges(InOff, InEdgeId, Node);
  }
  /// Edge ids whose From is \p Node (the node's dependents).
  IdRange outEdges(unsigned Node) const {
    ensureFinalized();
    return rowEdges(OutOff, OutEdgeId, Node);
  }

  /// In-edge ids of \p Node of exactly kind \p K (a contiguous CSR
  /// segment).
  IdRange inEdgesOfKind(unsigned Node, SDGEdgeKind K) const {
    ensureFinalized();
    return kindEdges(InOff, InEdgeId, Node, K);
  }
  IdRange outEdgesOfKind(unsigned Node, SDGEdgeKind K) const {
    ensureFinalized();
    return kindEdges(OutOff, OutEdgeId, Node, K);
  }

  /// Calls \p Fn(NeighborNode) for every in-edge of \p Node whose kind
  /// is in \p Mask — the slicing hot path. The partition slot order
  /// makes both slicing masks one contiguous run, so the scan is a
  /// tight loop over the neighbor array (no edge-record loads). Hot
  /// loops should precompute edgeKindRuns(Mask) once and use the runs
  /// overload; the mask overloads recompute the runs per call.
  template <typename Fn>
  void forEachInNeighbor(unsigned Node, EdgeKindMask Mask, Fn F) const {
    forEachNeighborRow(InOff, InNbr, Node, edgeKindRuns(Mask), F);
  }
  template <typename Fn>
  void forEachOutNeighbor(unsigned Node, EdgeKindMask Mask, Fn F) const {
    forEachNeighborRow(OutOff, OutNbr, Node, edgeKindRuns(Mask), F);
  }
  template <typename Fn>
  void forEachInNeighbor(unsigned Node, const EdgeKindRuns &Runs,
                         Fn F) const {
    forEachNeighborRow(InOff, InNbr, Node, Runs, F);
  }
  template <typename Fn>
  void forEachOutNeighbor(unsigned Node, const EdgeKindRuns &Runs,
                          Fn F) const {
    forEachNeighborRow(OutOff, OutNbr, Node, Runs, F);
  }

  /// Neighbor node ids of one slot run [SlotBegin, SlotEnd) as a
  /// contiguous indexable range — for algorithms that need resumable
  /// masked adjacency (e.g. an explicit-stack DFS over the masked
  /// subgraph), which a callback can't provide.
  IdRange inNeighborRun(unsigned Node, unsigned SlotBegin,
                        unsigned SlotEnd) const {
    ensureFinalized();
    return neighborRun(InOff, InNbr, Node, SlotBegin, SlotEnd);
  }
  IdRange outNeighborRun(unsigned Node, unsigned SlotBegin,
                         unsigned SlotEnd) const {
    ensureFinalized();
    return neighborRun(OutOff, OutNbr, Node, SlotBegin, SlotEnd);
  }

  /// One node of the instruction (the first clone), or -1 when the
  /// instruction has no node.
  int nodeFor(const Instr *I) const {
    IdRange R = nodesFor(I);
    return R.empty() ? -1 : static_cast<int>(R.front());
  }

  /// All clones of the instruction (one per analysis context), in
  /// insertion (context) order. A source-statement seed means slicing
  /// from every clone.
  IdRange nodesFor(const Instr *I) const {
    const unsigned MId = I->parent()->parent()->id();
    if (MId >= InstrClones.size() || I->id() >= InstrClones[MId].size())
      return {};
    const std::vector<unsigned> &C = InstrClones[MId][I->id()];
    return {C.data(), C.data() + C.size()};
  }

  /// The clone of \p I in context \p Ctx, or -1.
  int nodeFor(const Instr *I, unsigned Ctx) const;

  /// Heap parameter node lookup; returns -1 when absent. Formal
  /// nodes anchor at their method, actual nodes at their call site.
  int heapNodeFor(SDGNodeKind K, const Method *M, unsigned Part,
                  unsigned Ctx = 0) const;
  int heapNodeFor(SDGNodeKind K, const Instr *Call, unsigned Part,
                  unsigned Ctx = 0) const;

  /// Statement count excluding parameter-passing machinery, matching
  /// the paper's Table 1 "SDG Statements" metric. Live nodes only.
  unsigned numStmtNodes() const { return NumStmts; }

  /// Number of live heap parameter nodes (the CS blowup statistic).
  unsigned numHeapParamNodes() const {
    return numNodes() - NumDead - NumStmts;
  }

  unsigned numEdgesOfKind(SDGEdgeKind K) const;

  /// Budget status of construction: Complete, or Degraded with the
  /// merged-clone / coarse-heap fallback.
  const StageReport &report() const { return Report; }
  void setReport(StageReport R) { Report = std::move(R); }

  //===------------------------------------------------------------------===//
  // Snapshot codec (DESIGN.md section 14)
  //===------------------------------------------------------------------===//

  /// Writes the SDG section payload: live nodes (compacted to
  /// sequential ids when tombstones exist) and their non-Summary
  /// edges, everything identified by dense ids. Summary edges are
  /// deliberately dropped — a cold build has none at build time and
  /// the tabulation slicer re-derives them — so a decoded graph is
  /// the cold graph.
  void encode(ByteWriter &W) const;

  /// Rebuilds a graph from an encode() payload against \p P with the
  /// validation the mutation API performs (anchor resolution, bounds,
  /// duplicate node identities) but filling the node/edge tables, the
  /// statement index and the CSR query form directly — node and edge
  /// ids reproduce exactly as a replay would assign them, and the
  /// adjacency comes from the same counting sort a cold finalize()
  /// uses. The construction-only indexes (EdgeDedup, HeapIndex) are
  /// left lazy (see ensureEdgeDedup / ensureHeapIndex): a decoded
  /// graph that is only queried never pays for them. Throws
  /// SerializeError on malformed input.
  static std::unique_ptr<SDG> decode(ByteReader &R, const Program &P);

private:
  /// Reopens a finalized graph for mutation: drops the CSR arrays
  /// (keeping their capacity for the refinalize that follows).
  void unfinalize();

  /// Rebuilds EdgeDedup from the edge list when a decode left it
  /// unpopulated. Every mutation-path user of the set (addEdge,
  /// removeEdgesIf) calls this first; pure query paths never do.
  void ensureEdgeDedup();

  /// Rebuilds HeapIndex from the node list when a decode left it
  /// unpopulated (HeapIndexValid below). Every construction-form user
  /// (unfinalize, addHeapNode, heapNodeFor) calls this first; the
  /// finalized query path never does. Like ensureFinalized(), not safe
  /// to race from multiple threads — mutation and identity lookups are
  /// single-threaded by contract.
  void ensureHeapIndex() const;

  IdRange rowEdges(const std::vector<unsigned> &Off,
                   const std::vector<unsigned> &Ids, unsigned Node) const {
    const std::size_t Row = std::size_t(Node) * NumSDGEdgeKinds;
    return {Ids.data() + Off[Row], Ids.data() + Off[Row + NumSDGEdgeKinds]};
  }
  IdRange kindEdges(const std::vector<unsigned> &Off,
                    const std::vector<unsigned> &Ids, unsigned Node,
                    SDGEdgeKind K) const {
    const std::size_t Slot =
        std::size_t(Node) * NumSDGEdgeKinds + sdgKindSlot(K);
    return {Ids.data() + Off[Slot], Ids.data() + Off[Slot + 1]};
  }
  IdRange neighborRun(const std::vector<unsigned> &Off,
                      const std::vector<unsigned> &Nbr, unsigned Node,
                      unsigned SlotBegin, unsigned SlotEnd) const {
    const std::size_t Row = std::size_t(Node) * NumSDGEdgeKinds;
    return {Nbr.data() + Off[Row + SlotBegin], Nbr.data() + Off[Row + SlotEnd]};
  }

  template <typename Fn>
  void forEachNeighborRow(const std::vector<unsigned> &Off,
                          const std::vector<unsigned> &Nbr, unsigned Node,
                          const EdgeKindRuns &Runs, Fn F) const {
    ensureFinalized();
    // Raw pointers hoisted into locals: F's stores (visited words,
    // worklist pushes) could alias vector-element loads, so indexing
    // through the vectors re-reads their data pointers every
    // iteration and the loop never tightens.
    const unsigned *O = Off.data() + std::size_t(Node) * NumSDGEdgeKinds;
    const unsigned *N = Nbr.data();
    for (unsigned R = 0; R != Runs.NumRuns; ++R) {
      unsigned End = O[Runs.Runs[R].End];
      for (unsigned I = O[Runs.Runs[R].Begin]; I != End; ++I)
        F(N[I]);
    }
  }

  /// Dense anchor of one heap node identity: the call site's
  /// denseInstrKey, or a method sentinel key for formal nodes (the
  /// low word 0xFFFFFFFF is never a renumbered instruction id), or 0
  /// for the anchorless global HeapHub. Per node kind exactly one of
  /// the three shapes occurs, so the encodings cannot collide within
  /// a HeapIndex key.
  static uint64_t heapAnchorKey(const Instr *I, const Method *M) {
    if (I)
      return denseInstrKey(I);
    if (M)
      return (static_cast<uint64_t>(M->id()) << 32) | 0xFFFFFFFFull;
    return 0;
  }
  /// Dense key of a ParamIn/ParamOut/Summary edge's call site (0 when
  /// the edge has none).
  static uint64_t siteKey(const CallInstr *Site) {
    return Site ? denseInstrKey(Site) : 0;
  }

  const Program &P;
  std::vector<SDGNode> Nodes;
  std::vector<SDGEdge> Edges;
  /// Statement index: InstrClones[m][i] lists the live clones of
  /// instruction i of method m — the two halves of denseInstrKey — in
  /// insertion (ascending id, i.e. context) order. Dense ids (not
  /// Instr*) so a decoded graph fills identical index state — see
  /// ir/Program.h. Grown on demand; construction, patches and queries
  /// all read this one table.
  std::vector<std::vector<std::vector<unsigned>>> InstrClones;
  /// The clone list of \p I, growing the table to reach it.
  std::vector<unsigned> &clonesOf(const Instr *I);
  /// Exact node identity: (kind, dense anchor, partition/operand,
  /// ctx).
  struct HeapKey {
    SDGNodeKind K;
    uint64_t Anchor;
    unsigned Part;
    unsigned Ctx;
    bool operator==(const HeapKey &) const = default;
  };
  /// Exact edge identity: (from, to, kind, dense site key).
  struct EdgeKey {
    unsigned From;
    unsigned To;
    SDGEdgeKind K;
    uint64_t Site;
    bool operator==(const EdgeKey &) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const HeapKey &H) const {
      return mix(H.Anchor, (uint64_t(H.Part) << 32 | H.Ctx) * 8 +
                               static_cast<unsigned>(H.K));
    }
    std::size_t operator()(const EdgeKey &E) const {
      return mix(E.Site, (uint64_t(E.From) << 32 | E.To) * 8 +
                             static_cast<unsigned>(E.K));
    }
    static std::size_t mix(uint64_t A, uint64_t B) {
      uint64_t X = A * 0x9E3779B97F4A7C15ull ^ B;
      X ^= X >> 31;
      X *= 0xBF58476D1CE4E5B9ull;
      return static_cast<std::size_t>(X ^ (X >> 29));
    }
  };
  static HeapKey heapKey(const SDGNode &N) {
    return {N.K, heapAnchorKey(N.I, N.M), N.Part, N.Ctx};
  }
  static EdgeKey edgeKey(const SDGEdge &E) {
    return {E.From, E.To, E.K, siteKey(E.Site)};
  }
  /// Heap node identity -> id. Never iterated, so a hash map. Lazy
  /// after decode().
  std::unordered_map<HeapKey, unsigned, KeyHash> HeapIndex;
  bool HeapIndexValid = true;
  /// Exact edge identity: a silently merged or dropped edge would
  /// corrupt slices. Never iterated, so a hash set. Unpopulated after
  /// a cold build or decode() until the first checked mutation needs
  /// it (DedupValid below).
  std::unordered_set<EdgeKey, KeyHash> EdgeDedup;
  bool DedupValid = true;
  unsigned NumStmts = 0;
  unsigned NumDead = 0;
  StageReport Report{"sdg", StageStatus::Complete, "", "", 0, 0};

  //===------------------------------------------------------------------===//
  // CSR query form (built by finalize())
  //===------------------------------------------------------------------===//

  bool Finalized = false;
  uint64_t Epoch = 0;
  /// Per-(node, kind) offset tables, numNodes * NumSDGEdgeKinds + 1
  /// entries: the in-edges of node n with kind k occupy
  /// [InOff[n*NK+k], InOff[n*NK+k+1]) of InNbr/InEdgeId.
  std::vector<unsigned> InOff, OutOff;
  /// Neighbor node id per CSR slot (From for in-edges, To for
  /// out-edges) — all the BFS slicers touch.
  std::vector<unsigned> InNbr, OutNbr;
  /// Parallel edge ids, for callers that need Site or kind details.
  std::vector<unsigned> InEdgeId, OutEdgeId;
};

/// SDG construction options.
struct SDGOptions {
  /// Build the context-sensitive representation: heap formal/actual
  /// parameter nodes from mod-ref (paper Section 5.3) instead of
  /// direct interprocedural heap edges (Section 5.2).
  bool ContextSensitive = false;
  /// Include statements of methods the call graph never reaches
  /// (their intraprocedural edges are still built).
  bool IncludeUnreachable = true;
  /// Optional resource budget. Exhaustion degrades construction
  /// soundly: the node cap merges per-context clones into one clone
  /// per method (with context-merged aliasing, an over-approximation),
  /// and the heap-edge cap / deadline replaces the remaining precise
  /// pairwise heap wiring with coarse per-field hub nodes.
  const AnalysisBudget *Budget = nullptr;
};

/// Builds the dependence graph, finalized into the CSR query form.
/// \p ModRef may be null unless \p Options.ContextSensitive is set.
std::unique_ptr<SDG> buildSDG(const Program &P, const PointsToResult &PTA,
                              const ModRefResult *ModRef,
                              const SDGOptions &Options = {});

/// Input to patchSDGIncremental(): the affected-method set reported
/// by the points-to update (every method whose per-context points-to
/// facts or call edges may differ from the pre-edit run, dirty
/// methods included) and the retired bodies' instructions.
struct SDGPatchRequest {
  std::vector<Method *> AffectedMethods;
  std::unordered_set<const Instr *> DeadInstrs;
};

/// Patches a context-insensitive SDG in place after an incremental
/// recompile + points-to update, to the graph a cold buildSDG() would
/// produce on the patched program — identical as a set of logical
/// nodes and edges; node/edge *ids* may be permuted relative to cold
/// (clients canonicalize, as they already must across solver modes).
/// Tombstones every node of an affected method and every node at a
/// retired instruction, drops their incident edges plus all Summary
/// edges (the tabulation re-derives them), rebuilds the affected
/// clones' statements and intraprocedural edges, re-wires call edges
/// and heap dependences with an affected endpoint, compacts when
/// tombstones exceed a quarter of the id space, and re-finalizes.
///
/// Returns false when the patch declined (context-sensitive graph,
/// degraded build) or aborted on an injected "sdg.patch" fault; the
/// graph may then hold a partial patch and must be discarded for a
/// cold rebuild.
bool patchSDGIncremental(SDG &G, const PointsToResult &PTA,
                         const SDGPatchRequest &Req,
                         const SDGOptions &Options = {});

} // namespace tsl

#endif // THINSLICER_SDG_SDG_H
