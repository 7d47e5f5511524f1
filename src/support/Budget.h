//===-- Budget.h - Analysis budgets and sound degradation -------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for the analysis pipeline. Every long-running
/// fixed-point loop (Andersen solver, ModRef closure, SDG
/// construction, slicing, expansion, interpretation) polls a
/// BudgetGate cooperatively; when the caller-supplied AnalysisBudget
/// is exhausted the stage stops early and falls back to a *sound*
/// over- or under-approximation tagged StageStatus::Degraded, instead
/// of hanging or exhausting memory. See DESIGN.md section 8 for the
/// per-stage fallbacks and their soundness arguments.
///
/// There is no preemption: every gated stage runs on the calling
/// thread and stops at its own next poll. The deadline is read every
/// 64 polls, so a stage overruns its wall-clock budget by at most 64
/// units of work.
///
/// A deterministic FaultInjector rides along: named fault points
/// (one per gated loop) can be armed via TSL_FAULT or `thinslice
/// --fault` to force each failure branch in tests, rather than
/// hoping a workload happens to exhaust a real budget. Faults come in
/// two kinds — Degrade (the gate trips, forcing the stage's sound
/// fallback) and Throw (the gate raises FaultInjectedError, simulating
/// a stage crash the session must isolate) — can be transient (disarm
/// after firing once), and can be armed wholesale from a seeded
/// probabilistic schedule ("rand:<seed>") replayed by the chaos suite.
/// The injector keeps a generation counter that every arming or reset
/// bumps; a session drops what it computed under an older arming (see
/// pipeline/Session.h).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_BUDGET_H
#define THINSLICER_SUPPORT_BUDGET_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsl {

/// Resource limits shared by every stage of one pipeline run. A zero
/// field means "unlimited"; a default-constructed budget (or a null
/// budget pointer, the default everywhere) imposes no limits at all,
/// keeping the unbudgeted path byte-identical to previous releases.
struct AnalysisBudget {
  /// Wall-clock deadline for the whole pipeline, from start().
  uint64_t BudgetMs = 0;

  uint64_t MaxPtaPropagations = 0; ///< Andersen propagation cap.
  uint64_t MaxModRefSteps = 0;     ///< ModRef closure worklist pops.
  uint64_t MaxSdgNodes = 0;        ///< SDG statement-node cap.
  uint64_t MaxSdgEdges = 0;        ///< Precise heap-edge work cap.
  uint64_t MaxSlicePops = 0;       ///< Slice/tabulation worklist pops.
  uint64_t MaxExpansionRounds = 0; ///< Thin-expansion fixpoint rounds.
  uint64_t MaxInterpSteps = 0;     ///< Interpreter step cap.

  /// Starts the wall clock. Until this is called the deadline never
  /// expires; step caps apply regardless.
  void start() {
    Start = std::chrono::steady_clock::now();
    Started = true;
  }

  bool deadlineExpired() const;
  double elapsedSeconds() const;

  std::chrono::steady_clock::time_point Start{};
  bool Started = false;
};

/// Outcome of one pipeline stage.
enum class StageStatus {
  Complete, ///< Ran to its natural fixed point.
  Degraded, ///< Budget exhausted; result is a sound fallback.
};

/// Status report of one stage, the pipeline-level sibling of the
/// solver-level SolverStats counters.
struct StageReport {
  std::string Stage;    ///< "pta", "modref", "sdg", "slice", "interp".
  StageStatus Status = StageStatus::Complete;
  std::string Reason;   ///< Why it degraded: "deadline", "step-cap",
                        ///< "fault:<p>", "exception:<what>".
  std::string Fallback; ///< The sound fallback the stage switched to.
  uint64_t StepsUsed = 0; ///< Work units consumed (stage-specific).
  double Seconds = 0;     ///< Wall time spent in the stage.

  /// Session memoization telemetry (see pipeline/Session.h): how often
  /// this stage's artifact was served from the session cache, computed
  /// fresh, or purged by an invalidation. All zero outside a session;
  /// not rendered by str() (governed one-shot output is byte-stable) —
  /// AnalysisSession::statsString() formats them.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheInvalidated = 0;

  bool degraded() const { return Status == StageStatus::Degraded; }
  std::string str() const;
};

/// Per-stage reports of one pipeline run, in execution order.
struct PipelineStatus {
  std::vector<StageReport> Stages;

  void add(StageReport R) { Stages.push_back(std::move(R)); }
  bool complete() const;
  const StageReport *find(const std::string &Stage) const;
  std::string str() const;
};

/// Raised by a gate whose fault point is armed with FaultKind::Throw:
/// the deterministic stand-in for "this stage crashed" in the chaos
/// suite. It must never escape a stage boundary — the AnalysisSession
/// (and the SliceEngine's per-query isolation) convert it to a Status
/// / degraded result and keep the process alive.
class FaultInjectedError : public std::runtime_error {
public:
  explicit FaultInjectedError(const std::string &Point)
      : std::runtime_error("injected fault at " + Point), Pt(Point) {}
  const std::string &point() const { return Pt; }

private:
  std::string Pt;
};

/// How an armed fault manifests when it fires.
enum class FaultKind : unsigned char {
  Degrade, ///< Gate trips -> the stage takes its sound-fallback path.
  Throw,   ///< Gate raises FaultInjectedError -> stage "crashes".
};

/// Deterministic fault injection: each BudgetGate names a fault
/// point; arming a point (via TSL_FAULT or armFromSpec) makes the
/// gate report exhaustion at a chosen poll, forcing the stage down
/// its degradation path. A spec is a comma-separated list of points,
/// each optionally suffixed `:N` (fire at the Nth poll, default 1),
/// `:throw` (fault kind), and/or `:once` (transient: disarm after
/// firing, so the next request runs clean); the word `all` arms every
/// point; `rand:<seed>` arms a seeded probabilistic schedule over all
/// points (the chaos-suite format — identical seed, identical
/// schedule, on every platform). The injector is process-wide and the
/// daemon's connection threads share it, so all members are guarded
/// by one mutex.
class FaultInjector {
public:
  static FaultInjector &instance();

  /// Every fault point compiled into the pipeline; tests assert each
  /// one fires at least once across the suite.
  static const std::vector<std::string> &knownPoints();

  /// What query() hands a constructing gate: fire-at poll (0 = not
  /// armed) plus the armed kind.
  struct ArmedFault {
    uint64_t AtPoll = 0;
    FaultKind Kind = FaultKind::Degrade;
  };

  /// Disarms all points and clears coverage counters.
  void reset();

  /// Bumped by every arm(), armFromSpec() and reset() — never by a
  /// transient fault disarming itself. A session that computed under
  /// an armed fault compares it to decide when to drop that work.
  uint64_t generation() const;

  /// Arms \p Point to fire at poll number \p AtPoll (1 = first poll)
  /// with kind \p Kind; \p Transient disarms the point when it fires.
  void arm(const std::string &Point, uint64_t AtPoll = 1,
           FaultKind Kind = FaultKind::Degrade, bool Transient = false);

  /// Parses and arms a spec: "slice.pop,pta.solve:100",
  /// "pta.solve:throw:once", "all", or
  /// "rand:<seed>". Returns false (arming nothing further) on an
  /// unknown point name or malformed suffix.
  bool armFromSpec(const std::string &Spec);

  /// Arms a deterministic pseudo-random schedule derived from \p Seed:
  /// each known point is independently armed with probability ~1/3,
  /// with pseudo-random fire-at poll, kind, and transience. The chaos
  /// suite replays thousands of these.
  void armRandomSchedule(uint64_t Seed);

  /// Called once per BudgetGate at construction: records that the
  /// point was reached and returns the armed fault (AtPoll 0 = not
  /// armed).
  ArmedFault query(const std::string &Point);

  /// Called by the gate when an armed point actually fires. Transient
  /// faults are disarmed here — the next gate on this point runs
  /// clean.
  void recordFired(const std::string &Point);

  std::set<std::string> reached() const;
  std::set<std::string> fired() const;
  bool anyArmed() const;

private:
  FaultInjector(); ///< Arms from the TSL_FAULT environment variable.

  struct Arming {
    uint64_t AtPoll = 1;
    FaultKind Kind = FaultKind::Degrade;
    bool Transient = false;
  };

  mutable std::mutex Mu;
  std::map<std::string, Arming> Armed;
  std::set<std::string> Reached;
  std::set<std::string> Fired;
  uint64_t Generation = 0;
};

/// Poll point of one gated loop. The loop calls spend()/poll() with
/// its work counter; once the gate trips — step cap exceeded,
/// deadline expired, armed fault fired, or cancel() called — it stays
/// exhausted and the stage must stop and degrade. With a null budget
/// and no armed fault a poll is a few arithmetic instructions. A
/// Throw-kind fault makes poll() raise FaultInjectedError instead of
/// returning. One gate may be shared by the sequential items of a
/// run, so its step cap governs the run's total work (the slice
/// engine's MaxSlicePops).
class BudgetGate {
public:
  /// \p StepCap is this stage's cap from the budget (0 = uncapped);
  /// \p Point names the fault point for this loop.
  BudgetGate(const AnalysisBudget *Budget, const char *Point,
             uint64_t StepCap)
      : B(Budget), Point(Point), StepCap(StepCap),
        Fault(FaultInjector::instance().query(Point)) {}

  /// Polls with the stage's own work counter; returns true once the
  /// stage must stop (sticky).
  bool poll(uint64_t StepsUsed) {
    if (Exhausted)
      return true;
    Used = StepsUsed;
    ++Polls;
    if (Fault.AtPoll && Polls >= Fault.AtPoll) {
      fire();
    } else if (StepCap && StepsUsed > StepCap) {
      trip("step-cap");
    } else if (B && B->BudgetMs && (Polls & DeadlinePollMask) == 0 &&
               B->deadlineExpired()) {
      trip("deadline");
    }
    return Exhausted;
  }

  /// Convenience for loops without their own counter: counts \p N
  /// steps and polls.
  bool spend(uint64_t N = 1) { return poll(Used + N); }

  /// Trips the gate from outside the loop with \p Why; a gate that
  /// already tripped keeps its first reason. The slice engine cancels
  /// its run-wide gate when one item throws, so the items after it
  /// come back degraded with that reason.
  void cancel(std::string Why) {
    if (!Exhausted)
      trip(std::move(Why));
  }

  bool exhausted() const { return Exhausted; }
  const std::string &reason() const { return Reason; }
  uint64_t used() const { return Used; }

private:
  void fire(); ///< The armed fault fires: degrade or throw.
  void trip(std::string Why) {
    Exhausted = true;
    Reason = std::move(Why);
  }

  /// The deadline is checked every 64 polls so a hot loop does not
  /// read the clock on every iteration.
  static constexpr uint64_t DeadlinePollMask = 63;

  const AnalysisBudget *B;
  const char *Point;
  uint64_t StepCap;
  FaultInjector::ArmedFault Fault;
  uint64_t Used = 0;
  uint64_t Polls = 0;
  bool Exhausted = false;
  std::string Reason;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_BUDGET_H
