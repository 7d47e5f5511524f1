//===-- HostSpeed.cpp - Times corrected for the host's speed --------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "harness/HostSpeed.h"

#include "harness/Stats.h"
#include "harness/Trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

using namespace pb;

double pb::calibrationKernelMs() {
  int64_t T0 = nowNs();
  uint64_t Acc = 0;
  Rng R(11);
  {
    // Many small heap objects, made and freed.
    std::vector<std::unique_ptr<std::string>> Objs;
    for (unsigned I = 0; I != 6000; ++I)
      Objs.push_back(std::make_unique<std::string>(40, 'x'));
    Acc += Objs.size();
  }
  {
    std::map<uint64_t, uint64_t> Tree;
    for (unsigned I = 0; I != 3000; ++I)
      Tree[R.next() & 0xfffff] = I;
    for (unsigned I = 0; I != 6000; ++I) {
      auto It = Tree.find(R.next() & 0xfffff);
      if (It != Tree.end())
        Acc += It->second;
    }
  }
  {
    std::unordered_map<uint64_t, uint64_t> Hash;
    for (unsigned I = 0; I != 4000; ++I)
      Hash[R.next() & 0xfffff] = I;
    for (unsigned I = 0; I != 8000; ++I) {
      auto It = Hash.find(R.next() & 0xfffff);
      if (It != Hash.end())
        Acc += It->second;
    }
  }
  {
    std::string Text;
    for (unsigned I = 0; I != 6000; ++I) {
      Text += std::to_string(R.next());
      if (Text.size() > 4096) {
        Acc += static_cast<unsigned char>(Text[100]);
        Text.clear();
      }
    }
  }
  {
    // Adjacency lists, grown and sorted.
    std::vector<std::vector<uint32_t>> Lists(1200);
    for (unsigned I = 0; I != 12000; ++I)
      Lists[R.below(Lists.size())].push_back(static_cast<uint32_t>(R.next()));
    for (std::vector<uint32_t> &L : Lists) {
      std::sort(L.begin(), L.end());
      Acc += L.size();
    }
  }
  // Keeps the compiler from dropping the work.
  asm volatile("" : : "r"(Acc) : "memory");
  return static_cast<double>(nowNs() - T0) / 1e6;
}

void HostSpeed::maybeSample(double GapMs) {
  if (Samples.empty() ||
      static_cast<double>(nowNs() - Samples.back().first) / 1e6 >= GapMs)
    sample();
}

void HostSpeed::sample() {
  double Ms = calibrationKernelMs();
  record(nowNs(), Ms);
}

double HostSpeed::scaleAt(int64_t AtNs) const {
  if (Samples.empty())
    return 1;
  // The Window samples nearest AtNs by index, shifted inward at the ends.
  std::size_t I =
      std::lower_bound(Samples.begin(), Samples.end(), AtNs,
                       [](const std::pair<int64_t, double> &S, int64_t T) {
                         return S.first < T;
                       }) -
      Samples.begin();
  std::size_t N = std::min(Window, Samples.size());
  std::size_t Lo = I > N / 2 ? I - N / 2 : 0;
  Lo = std::min(Lo, Samples.size() - N);
  std::vector<double> Near;
  for (std::size_t K = Lo; K != Lo + N; ++K)
    Near.push_back(Samples[K].second);
  return ReferenceKernelMs / median(Near);
}

double HostSpeed::medianMs() const {
  std::vector<double> V;
  for (const auto &S : Samples)
    V.push_back(S.second);
  return median(V);
}

std::vector<double> pb::atReferenceSpeed(const HostSpeed &H,
                                         const std::vector<TimedMs> &V) {
  std::vector<double> Out;
  Out.reserve(V.size());
  for (const TimedMs &T : V)
    Out.push_back(T.Ms * H.scaleAt(T.AtNs));
  return Out;
}
