//===-- Trace.h - Benchmark-side spans --------------------------*- C++ -*-==//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each
/// layer's public functions (the program itself is not instrumented).
/// One span per call: name, start, end, parent span, request id. Spans
/// stay in memory and are written as JSON when the run ends.
///
/// A span's self time is its duration minus the part of its interval
/// covered by its child spans; summing the self times of an op's
/// spans gives back the op's wall time, which is how the traced run
/// shows that the layers it names account for the op.
///
/// One Tracer per thread; merge() folds per-thread tracers together.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Monotonic nanoseconds (steady_clock).
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name; ///< Static string: "<layer>.<call>" or "op".
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index into the same span vector, -1 for roots.
  uint64_t Request = 0;
};

class Tracer {
public:
  /// Recording is off until setOn(true); a disabled tracer's scopes
  /// cost one branch.
  void setOn(bool On) { Enabled = On; }

  /// Request id stamped on every span opened until the next call.
  void setRequest(uint64_t Id) { Request = Id; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int open(const char *Name);
  void close(int Idx);

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T), Idx(T.open(Name)) {}
    ~Scope() { T.close(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Idx;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Appends \p Other's spans (re-indexing their parents).
  void merge(const Tracer &Other);

private:
  bool Enabled = false;
  uint64_t Request = 0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Self time of every span (same indexing as \p Spans), in ns.
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Self time in ms of every span named \p Name.
std::vector<double> spanMs(const std::vector<Span> &Spans,
                           const std::vector<int64_t> &Self,
                           const std::string &Name);

/// For every root span named \p Root: the share of its wall time that
/// its direct children cover (1 - self/duration).
std::vector<double> childCoverage(const std::vector<Span> &Spans,
                                  const std::vector<int64_t> &Self,
                                  const std::string &Root);

/// Self time summed per span name over every span below (or at) a
/// root span named \p Root, as a share of those roots' total wall time.
/// The shares sum to 1: the breakdown of an op by layer.
std::map<std::string, double> selfShareUnder(const std::vector<Span> &Spans,
                                             const std::vector<int64_t> &Self,
                                             const std::string &Root);

/// Writes {"context": <ContextJson>, "spans": [...]} to \p Path, times
/// in ns relative to the first span. False when the file cannot be
/// written.
bool writeSpansJson(const std::vector<Span> &Spans,
                    const std::string &ContextJson, const std::string &Path);

} // namespace pb

#endif // PERFBENCH_TRACE_H
