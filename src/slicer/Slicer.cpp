//===-- Slicer.cpp - Thin and traditional slicing ------------------------------==//

#include "slicer/Slicer.h"

#include "slicer/Engine.h"

#include <algorithm>
#include <unordered_set>

using namespace tsl;

bool tsl::sliceFollowsEdge(SliceMode Mode, SDGEdgeKind K) {
  switch (K) {
  case SDGEdgeKind::Flow:
  case SDGEdgeKind::ParamIn:
  case SDGEdgeKind::ParamOut:
    return true;
  case SDGEdgeKind::BaseFlow:
  case SDGEdgeKind::Control:
    return Mode == SliceMode::Traditional;
  case SDGEdgeKind::Summary:
    return false; // Summary edges belong to the tabulation slicer.
  }
  return false;
}

EdgeKindMask tsl::sliceEdgeMask(SliceMode Mode) {
  EdgeKindMask Mask = edgeKindMask(SDGEdgeKind::Flow) |
                      edgeKindMask(SDGEdgeKind::ParamIn) |
                      edgeKindMask(SDGEdgeKind::ParamOut);
  if (Mode == SliceMode::Traditional)
    Mask |= edgeKindMask(SDGEdgeKind::BaseFlow) |
            edgeKindMask(SDGEdgeKind::Control);
  return Mask;
}

bool SliceResult::containsLine(const Method *M, unsigned Line) const {
  bool Found = false;
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (N.isSourceStmt() && N.M == M && N.I->loc().Line == Line)
      Found = true;
  });
  return Found;
}

const std::vector<const Instr *> &SliceResult::statements() const {
  if (StmtsValid)
    return CachedStmts;
  // Clones of one statement appear as separate nodes; dedup with a
  // seen-set rather than a linear scan per node.
  CachedStmts.clear();
  std::unordered_set<const Instr *> Seen;
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (N.isSourceStmt() && Seen.insert(N.I).second)
      CachedStmts.push_back(N.I);
  });
  StmtsValid = true;
  return CachedStmts;
}

const std::vector<SourceLine> &SliceResult::sourceLines() const {
  if (LinesValid)
    return CachedLines;
  CachedLines.clear();
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (N.isSourceStmt() && N.I->loc().isValid())
      CachedLines.push_back({N.M, N.I->loc().Line});
  });
  std::sort(CachedLines.begin(), CachedLines.end());
  CachedLines.erase(std::unique(CachedLines.begin(), CachedLines.end()),
                    CachedLines.end());
  LinesValid = true;
  return CachedLines;
}

unsigned SliceResult::sizeStmts() const {
  unsigned N = 0;
  Nodes.forEach([&](unsigned Node) { N += G->node(Node).isSourceStmt(); });
  return N;
}

std::string SliceResult::str() const {
  std::string Out;
  const Program &P = G->program();
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (!N.isSourceStmt())
      return;
    Out += N.M->qualifiedName(P.strings());
    Out += ':';
    Out += std::to_string(N.I->loc().Line);
    Out += ": ";
    Out += N.I->str(P);
    if (N.K == SDGNodeKind::ScalarActualIn)
      Out += "  [actual #" + std::to_string(N.Part) + "]";
    Out += "\n";
  });
  return Out;
}

std::string SliceQuery::conflict() const {
  if (ContextSensitive &&
      (Direction != SliceDirection::Backward || AliasDepth))
    return "context-sensitive slicing answers plain backward slices only";
  if (AliasDepth && Mode != SliceMode::Thin)
    return "aliasing expansion starts from a thin slice";
  if (AliasDepth && Direction != SliceDirection::Backward)
    return "aliasing expansion applies to backward slices only";
  return "";
}

SliceResult tsl::sliceBackward(const SDG &G, const Instr *Seed,
                               SliceMode Mode, const AnalysisBudget *Budget) {
  return SliceEngine(G).run(SliceQuery::of(Seed, Mode), {1, Budget}).front();
}
