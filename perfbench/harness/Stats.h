//===-- Stats.h - Percentiles, failure accounting, hashing ------*- C++ -*-==//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small measurement rules every workload shares:
///
///  - latency summaries: the median plus the highest percentile of the
///    ladder p90 < p99 < p99.9 (capped per workload) that still has at
///    least ten samples beyond it (nearest-rank), with the sample count;
///  - failure accounting: an op fails on a non-OK status, a RETRY, a
///    transport error, or a wrong answer, and failed_ratio is failed
///    ops over ops attempted;
///  - a stable 64-bit FNV-1a digest (stored expected digests depend on
///    it) and a seeded splitmix64 generator.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// FNV-1a over \p S, continuing from \p H (so pieces can be chained).
uint64_t fnv64(std::string_view S, uint64_t H = 14695981039346656037ull);

/// 16 lowercase hex digits.
std::string hex64(uint64_t V);

/// Seeded splitmix64: the only randomness the workloads use, so one
/// seed always yields the same inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N must be positive.
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// Samples strictly above the nearest-rank \p PerMille percentile of
/// \p N samples (e.g. 100 samples, 900 per mille: rank 90, 10 beyond).
std::size_t samplesBeyond(std::size_t N, unsigned PerMille);

/// The tail percentile reported for \p N samples, in per mille: the
/// highest of 999, 990, 900 not above \p MaxPerMille with at least ten
/// samples beyond it, and 500 (the median itself) when even p90 has
/// fewer. Each workload caps the ladder at the tail it names (p90 or
/// p99), so the reported percentile does not jump with the run's
/// sample count.
unsigned tailPerMille(std::size_t N, unsigned MaxPerMille = 999);

/// Median of \p V (any order); 0 for an empty vector.
double median(std::vector<double> V);

struct LatencySummary {
  std::size_t N = 0;
  double P50 = 0;
  double Tail = 0;
  unsigned TailPerMille = 500;

  /// "p90", "p99", "p999" (p99.9) or "p50"; usable in a metric name.
  std::string tailName() const;
};

LatencySummary summarize(std::vector<double> Samples,
                         unsigned MaxPerMille = 999);

/// How one attempted op ended.
enum class Outcome {
  Ok,        ///< Answered, and the answer checked out (or is unchecked).
  NonOk,     ///< The system answered with a non-OK status.
  Retry,     ///< The daemon refused with RETRY (overload or drain).
  Transport, ///< The connection failed.
  Wrong,     ///< The answer differs from the expected one.
};

/// Failure accounting for one workload run.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t NonOk = 0;
  uint64_t Retries = 0;
  uint64_t Transport = 0;
  uint64_t Wrong = 0;

  void record(Outcome O);
  /// An op counted as attempted-and-ok earlier turned out wrong when
  /// its answer was checked off the clock.
  void markWrong() { ++Wrong; }
  uint64_t failed() const { return NonOk + Retries + Transport + Wrong; }
  double failedRatio() const {
    return Attempted ? static_cast<double>(failed()) / Attempted : 0;
  }
};

} // namespace pb

#endif // PERFBENCH_STATS_H
