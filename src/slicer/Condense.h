//===-- Condense.h - Iterative SCC condensation -----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slicer layer's one strongly-connected-component routine: an
/// iterative Tarjan over any graph whose out-adjacency is a few
/// contiguous id runs per node. SliceEngine condenses the mode-masked
/// SDG with it (the bit-parallel batch sweeps), and the summary
/// computation condenses the method-level call graph and each method's
/// same-level subgraph (DESIGN.md sections 9 and 16).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_CONDENSE_H
#define THINSLICER_SLICER_CONDENSE_H

#include "sdg/SDG.h"

#include <vector>

namespace tsl {

/// Condensation of a graph over nodes 0..N-1. Component ids are Tarjan
/// pop order, which gives the key invariant: for every cross-component
/// edge From -> To, Comp[To] < Comp[From]. A sweep over components in
/// increasing id therefore sees each edge's To side final before its
/// From side.
struct SccCondensation {
  std::vector<unsigned> Comp;      ///< Node -> component id.
  std::vector<unsigned> MemberOff; ///< Component -> members offset.
  std::vector<unsigned> Members;   ///< Node ids grouped by component.
  unsigned NumComps = 0;
};

/// Iterative Tarjan (explicit DFS stack) over nodes 0..\p N-1. The
/// successors of node V are \p NumRuns runs: Run(V, R) returns the
/// R-th as an IdRange, whose ids Map translates into 0..N-1 (the
/// identity for a whole graph, a local numbering for a subgraph). A
/// frame resumes its neighbor scan through run pointers, so no
/// successor list is ever copied.
template <typename RunFn, typename MapFn>
SccCondensation condense(unsigned N, unsigned NumRuns, RunFn Run, MapFn Map) {
  SccCondensation C;
  C.Comp.assign(N, 0);
  std::vector<unsigned> Index(N, 0), Low(N, 0);
  std::vector<char> OnStack(N, 0);
  std::vector<unsigned> Stack;
  struct Frame {
    unsigned Node;
    unsigned Run;
    const unsigned *Pos, *End;
  };
  std::vector<Frame> DFS;
  unsigned Counter = 0;
  auto Open = [&](unsigned V) {
    Index[V] = Low[V] = ++Counter;
    Stack.push_back(V);
    OnStack[V] = 1;
    DFS.push_back({V, 0, nullptr, nullptr});
  };
  for (unsigned Root = 0; Root != N; ++Root) {
    if (Index[Root])
      continue;
    Open(Root);
    while (!DFS.empty()) {
      Frame &F = DFS.back();
      unsigned Next = 0;
      bool Have = false;
      while (true) {
        if (F.Pos == F.End) {
          if (F.Run == NumRuns)
            break;
          IdRange R = Run(F.Node, F.Run);
          F.Pos = R.begin();
          F.End = R.end();
          ++F.Run;
          continue;
        }
        Next = Map(*F.Pos++);
        Have = true;
        break;
      }
      if (Have) {
        if (!Index[Next])
          Open(Next); // Invalidates F; re-fetched next iteration.
        else if (OnStack[Next] && Index[Next] < Low[F.Node])
          Low[F.Node] = Index[Next];
        continue;
      }
      const unsigned V = F.Node;
      const unsigned Lv = Low[V];
      DFS.pop_back();
      if (!DFS.empty() && Lv < Low[DFS.back().Node])
        Low[DFS.back().Node] = Lv;
      if (Lv == Index[V]) {
        const unsigned Id = C.NumComps++;
        while (true) {
          unsigned X = Stack.back();
          Stack.pop_back();
          OnStack[X] = 0;
          C.Comp[X] = Id;
          if (X == V)
            break;
        }
      }
    }
  }
  // Member lists by counting sort.
  C.MemberOff.assign(C.NumComps + 1, 0);
  for (unsigned V = 0; V != N; ++V)
    ++C.MemberOff[C.Comp[V] + 1];
  for (unsigned I = 1; I <= C.NumComps; ++I)
    C.MemberOff[I] += C.MemberOff[I - 1];
  C.Members.resize(N);
  std::vector<unsigned> Cur(C.MemberOff.begin(), C.MemberOff.end() - 1);
  for (unsigned V = 0; V != N; ++V)
    C.Members[Cur[C.Comp[V]]++] = V;
  return C;
}

} // namespace tsl

#endif // THINSLICER_SLICER_CONDENSE_H
