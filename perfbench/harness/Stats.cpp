//===-- Stats.cpp - Percentiles, failure accounting, hashing --------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "harness/Stats.h"

#include <algorithm>

using namespace pb;

uint64_t pb::fnv64(std::string_view S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string pb::hex64(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[I] = Digits[V & 15];
  return Out;
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

/// 1-based nearest rank of the \p PerMille percentile among \p N.
std::size_t nearestRank(std::size_t N, unsigned PerMille) {
  std::size_t Rank = (static_cast<uint64_t>(PerMille) * N + 999) / 1000;
  return std::max<std::size_t>(Rank, 1);
}

/// Nearest-rank percentile of \p Sorted (ascending, non-empty).
double percentileSorted(const std::vector<double> &Sorted, unsigned PerMille) {
  return Sorted[nearestRank(Sorted.size(), PerMille) - 1];
}

} // namespace

std::size_t pb::samplesBeyond(std::size_t N, unsigned PerMille) {
  return N == 0 ? 0 : N - nearestRank(N, PerMille);
}

unsigned pb::tailPerMille(std::size_t N, unsigned MaxPerMille) {
  for (unsigned P : {999u, 990u, 900u})
    if (P <= MaxPerMille && samplesBeyond(N, P) >= 10)
      return P;
  return 500;
}

double pb::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

std::string LatencySummary::tailName() const {
  switch (TailPerMille) {
  case 999:
    return "p999";
  case 990:
    return "p99";
  case 900:
    return "p90";
  default:
    return "p50";
  }
}

LatencySummary pb::summarize(std::vector<double> Samples,
                             unsigned MaxPerMille) {
  LatencySummary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.P50 = median(Samples);
  S.TailPerMille = tailPerMille(S.N, MaxPerMille);
  S.Tail = S.TailPerMille == 500 ? S.P50
                                 : percentileSorted(Samples, S.TailPerMille);
  return S;
}

void Tally::record(Outcome O) {
  ++Attempted;
  switch (O) {
  case Outcome::Ok:
    break;
  case Outcome::NonOk:
    ++NonOk;
    break;
  case Outcome::Retry:
    ++Retries;
    break;
  case Outcome::Transport:
    ++Transport;
    break;
  case Outcome::Wrong:
    ++Wrong;
    break;
  }
}

