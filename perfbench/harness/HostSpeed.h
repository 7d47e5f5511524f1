//===-- HostSpeed.h - Times corrected for the host's speed ------*- C++ -*-==//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared host the speed at which this process runs drifts by a
/// third or more over minutes, as other tenants load the same cores,
/// caches and memory. Steal time stays near zero, so neither thread
/// CPU time nor a longer run removes the drift from a time.
///
/// A fixed calibration kernel, independent of the code under test,
/// runs off the clock between ops. It does what the analyses do most:
/// small heap objects made and freed, tree and hash maps filled and
/// probed, strings built, adjacency lists grown and sorted. Its time
/// tracks the host's speed at that moment. (Pure arithmetic and pointer
/// chasing through a large array were tried too and tracked the ops'
/// slow phases far less well.) A time measured at T is
/// reported at reference speed: multiplied by ReferenceKernelMs over
/// the median kernel time of the samples nearest T. A change to the
/// program moves the reported time in full; a change of host speed
/// moves the kernel with it and cancels.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pb {

/// The calibration kernel's median time on the host the bounds were set
/// on (a 4-vCPU Xeon virtual machine, GCC 12.2, Release). Reported
/// times are at that speed.
constexpr double ReferenceKernelMs = 4.0;

/// Runs the calibration kernel once; its wall time in ms.
double calibrationKernelMs();

/// Kernel samples over one run, and the speed correction they give.
class HostSpeed {
public:
  /// Runs the kernel if \p GapMs have passed since the last sample.
  void maybeSample(double GapMs = 100);
  /// Runs the kernel now.
  void sample();
  /// Adds a kernel time of \p Ms measured at \p AtNs (after the last).
  void record(int64_t AtNs, double Ms) { Samples.push_back({AtNs, Ms}); }

  /// Factor that brings a time measured at \p AtNs to reference speed.
  /// 1 when there are no samples.
  double scaleAt(int64_t AtNs) const;

  std::size_t samples() const { return Samples.size(); }
  /// Median kernel time over the run, in ms.
  double medianMs() const;

  /// Samples around a measurement that set its scale.
  static constexpr std::size_t Window = 15;

private:
  std::vector<std::pair<int64_t, double>> Samples; ///< (time, ms), in order.
};

/// A time and when it was measured (its end), so it can be scaled.
struct TimedMs {
  int64_t AtNs;
  double Ms;
};

/// \p V with each time brought to reference speed.
std::vector<double> atReferenceSpeed(const HostSpeed &H,
                                     const std::vector<TimedMs> &V);

} // namespace pb

#endif // PERFBENCH_HOSTSPEED_H
