//===-- Trace.cpp - Benchmark-side spans ----------------------------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "harness/Trace.h"

#include <algorithm>
#include <cstdio>

using namespace pb;

int Tracer::open(const char *Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  S.StartNs = nowNs();
  Spans.push_back(S);
  int Idx = static_cast<int>(Spans.size()) - 1;
  Stack.push_back(Idx);
  return Idx;
}

void Tracer::close(int Idx) {
  if (Idx < 0)
    return;
  Spans[Idx].EndNs = nowNs();
  // Spans close in LIFO order; tolerate a stray close defensively.
  while (!Stack.empty()) {
    int Top = Stack.back();
    Stack.pop_back();
    if (Top == Idx)
      break;
  }
}

void Tracer::merge(const Tracer &Other) {
  const int32_t Base = static_cast<int32_t>(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(S);
  }
}

std::vector<int64_t> pb::selfTimesNs(const std::vector<Span> &Spans) {
  // Children of one parent, as intervals; their union is subtracted.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[S.Parent].push_back({S.StartNs, S.EndNs});
  std::vector<int64_t> Self(Spans.size());
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    int64_t Covered = 0, CurB = 0, CurE = 0;
    bool Open = false;
    for (auto [B, E] : K) {
      B = std::max(B, P.StartNs);
      E = std::min(E, P.EndNs);
      if (E <= B)
        continue;
      if (Open && B <= CurE) {
        CurE = std::max(CurE, E);
        continue;
      }
      if (Open)
        Covered += CurE - CurB;
      CurB = B;
      CurE = E;
      Open = true;
    }
    if (Open)
      Covered += CurE - CurB;
    Self[I] = (P.EndNs - P.StartNs) - Covered;
  }
  return Self;
}

std::vector<double> pb::spanMs(const std::vector<Span> &Spans,
                               const std::vector<int64_t> &Self,
                               const std::string &Name) {
  std::vector<double> Out;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    if (Name == Spans[I].Name)
      Out.push_back(static_cast<double>(Self[I]) / 1e6);
  return Out;
}

std::vector<double> pb::childCoverage(const std::vector<Span> &Spans,
                                      const std::vector<int64_t> &Self,
                                      const std::string &Root) {
  std::vector<double> Out;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Parent >= 0 || Root != S.Name)
      continue;
    int64_t Dur = S.EndNs - S.StartNs;
    if (Dur > 0)
      Out.push_back(1.0 - static_cast<double>(Self[I]) / Dur);
  }
  return Out;
}

std::map<std::string, double>
pb::selfShareUnder(const std::vector<Span> &Spans,
                   const std::vector<int64_t> &Self, const std::string &Root) {
  std::map<std::string, double> Share;
  double RootNs = 0;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    int32_t Top = static_cast<int32_t>(I);
    while (Spans[Top].Parent >= 0)
      Top = Spans[Top].Parent;
    if (Root != Spans[Top].Name)
      continue;
    Share[Spans[I].Name] += static_cast<double>(Self[I]);
    if (Top == static_cast<int32_t>(I))
      RootNs += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
  }
  for (auto &[Name, V] : Share)
    V = RootNs > 0 ? V / RootNs : 0;
  return Share;
}

bool pb::writeSpansJson(const std::vector<Span> &Spans,
                        const std::string &ContextJson,
                        const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.StartNs);
  fprintf(F, "{\"context\": %s,\n \"spans\": [", ContextJson.c_str());
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(F,
            "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
            "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}",
            I ? "," : "", I, S.Name,
            static_cast<long long>(S.StartNs - T0),
            static_cast<long long>(S.EndNs - T0), S.Parent,
            static_cast<unsigned long long>(S.Request));
  }
  fprintf(F, "\n]}\n");
  return fclose(F) == 0;
}
