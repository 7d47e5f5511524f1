//===-- Workloads.h - The benchmark's workloads -----------------*- C++ -*-==//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (cold_ci, cold_cs, daemon, dev_session; see
/// perfbench/README.md for what each stresses and why), the metric
/// tables they report, and the pieces the self-tests reach directly:
/// response classification, stored expected digests, and the daemon
/// process wrapper.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness/Stats.h"

#include "service/Protocol.h"
#include "support/Status.h"

#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace pb {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DaemonBin;    ///< The thinsliced binary.
  std::string ExpectedPath; ///< Stored expected digests.
  std::string WorkDir;      ///< Scratch: snapshots, sockets, traces.
};

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every untraced run reports, in order.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics every traced run reports, in order.
const std::vector<MetricDef> &layerMetrics();

struct RunResult {
  bool Correct = true; ///< No answer was wrong.
  Tally Ops;
  std::map<std::string, double> Metrics; ///< The table for this mode.
  /// Human-readable report: the workload's named metrics with units
  /// and sample counts, and the run context.
  std::vector<std::string> Report;
  std::string ContextJson;
};

/// Runs one workload. Throws std::runtime_error when the run cannot
/// proceed (bad workload name, daemon will not start, ...).
RunResult runWorkload(const RunConfig &C);

/// Regenerates the stored expected digests (every model at every pad
/// the cold workloads draw) into \p Path.
void writeExpectedDigests(const std::string &Path);

//===----------------------------------------------------------------------===//
// Pieces the self-tests use
//===----------------------------------------------------------------------===//

/// Maps one daemon round trip to an Outcome: a transport failure, a
/// RETRY, any other non-OK status, or Ok.
Outcome classifyResponse(const tsl::Status &Transport,
                         const tsl::ServiceResponse &Resp);

/// Expected answer digests keyed by (route, model, pad); route is "ci"
/// (the 64-query thin batch) or "cs" (the context-sensitive batch).
class ExpectedDigests {
public:
  /// Parses "<route> <model> <pad> <hex>" lines; false on a missing or
  /// malformed file.
  bool load(const std::string &Path);
  void set(const std::string &Route, const std::string &Model, unsigned Pad,
           uint64_t Digest);
  /// Ok when \p Actual equals the stored digest; Wrong when it differs
  /// or none is stored (an unchecked answer is not a correct one).
  Outcome check(const std::string &Route, const std::string &Model,
                unsigned Pad, uint64_t Actual) const;
  bool save(const std::string &Path) const;

private:
  std::map<std::string, uint64_t> Map;
};

/// A thinsliced child process on a Unix socket.
class DaemonProcess {
public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  /// Spawns \p Bin --socket \p Socket plus \p ExtraArgs and waits for
  /// its readiness line.
  tsl::Status start(const std::string &Bin, const std::string &Socket,
                    const std::vector<std::string> &ExtraArgs = {});

  /// Asks for a graceful drain (SIGTERM), escalating to SIGKILL after
  /// a few seconds, and reaps the child. Returns the child's peak RSS
  /// in MB (0 when unknown). Idempotent.
  double stop();

private:
  pid_t Pid = -1;
  std::string Socket;
  double PeakRssMb = 0;
};

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
