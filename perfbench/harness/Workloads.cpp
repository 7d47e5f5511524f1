//===-- Workloads.cpp - The benchmark's workloads -------------------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
// Every workload drives the system only through its public entry
// points: AnalysisSession (and the SliceEngine it hands out) plus the
// snapshot calls in-process, and the real thinsliced binary through
// ServiceClient. Answers are checked off the clock; see README.md for
// the workloads, their metrics, and the layer -> end-to-end map.
//
//===----------------------------------------------------------------------===//

#include "harness/Workloads.h"

#include "harness/HostSpeed.h"
#include "harness/Programs.h"
#include "harness/Trace.h"

#include "pipeline/Session.h"
#include "service/Client.h"
#include "slicer/Report.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pb;
using namespace tsl;

//===----------------------------------------------------------------------===//
// Metric tables
//===----------------------------------------------------------------------===//

const std::vector<MetricDef> &pb::endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},       {"p50_ms", "ms"},       {"tail_ms", "ms"},
      {"aux_p50_ms", "ms"},   {"ops_per_s", "1/s"},   {"peak_rss_mb", "MB"},
  };
  return Defs;
}

const std::vector<MetricDef> &pb::layerMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"lang.compile_ms", "ms"},
      {"lang.source_lines", "count"},
      {"lang.fn_recompiled", "count/edit"},
      {"lang.fn_reused", "count/edit"},
      {"pta.ms", "ms"},
      {"pta.worklist_pops", "count"},
      {"pta.propagations", "count"},
      {"pta.useful_prop_ratio", "ratio"},
      {"pta.objects", "count"},
      {"modref.ms", "ms"},
      {"sdg.ci_build_ms", "ms"},
      {"sdg.nodes", "count"},
      {"sdg.edges", "count"},
      {"sdg.cs_build_ms", "ms"},
      {"sdg.cs_nodes", "count"},
      {"slicer.ci_batch_ms", "ms"},
      {"slicer.batch_unique_ratio", "ratio"},
      {"slicer.condensation_reuse_ratio", "ratio"},
      {"slicer.cs_cold_ms", "ms"},
      {"slicer.cs_warm_ms", "ms"},
      {"slicer.summary_edges", "count"},
      {"slicer.summary_cache_hit_ratio", "ratio"},
      {"slicer.slice_stmts", "count"},
      {"pipeline.set_source_ms", "ms"},
      {"pipeline.incremental_applied_ratio", "ratio"},
      {"pipeline.stage_fallbacks", "count"},
      {"pipeline.cold_fallbacks", "count"},
      {"pipeline.snapshot_save_ms", "ms"},
      {"pipeline.snapshot_load_ms", "ms"},
      {"pipeline.snapshot_bytes", "bytes"},
      {"pipeline.snapshot_fallbacks", "count"},
      {"pipeline.slice_hit_ratio", "ratio"},
      {"service.ping_rtt_p50_us", "us"},
      {"service.ping_rtt_p99_us", "us"},
      {"service.slice_compute_us", "us"},
      {"service.overhead_us", "us"},
      {"service.retry_ratio", "ratio"},
      {"service.bad_frames", "count"},
      {"service.requests", "count"},
      {"trace.op_coverage_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return Defs;
}

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

namespace {

// Workload shapes. Pads are padding classes (6 methods each) added by
// padWorkload; the ranges are chosen for cost (cold CI ops spanning
// small to large programs, CS ops of tens to hundreds of ms).
constexpr unsigned CiQueries = 64;
constexpr unsigned CiPadMin = 12, CiPadMax = 96;
constexpr unsigned CsQueries = 8;
constexpr unsigned CsPadMin = 2, CsPadMax = 8;
constexpr unsigned ColdPool = 16; // 4 models x 4 quarters of the pad range
/// The CS pad of each quarter of the cold pool (see coldPool).
constexpr unsigned CsQuarterPads[4] = {2, 4, 6, 8};
constexpr unsigned DevPad = 30;
constexpr unsigned DaemonPadMin = 18, DaemonPadSpan = 5;
constexpr unsigned DaemonQueries = 48, DaemonBatch = 32, DaemonClients = 3;
constexpr unsigned DaemonVariants = 4;
constexpr unsigned SetupRepeats = 21;

unsigned nproc() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The CLI's default analysis concurrency (hardware concurrency),
/// capped at the CPUs this process may run on.
unsigned analysisThreads() {
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  return std::min(HW, nproc());
}

double selfPeakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

double nsToMs(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

std::string fmt(double V) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// Hash of a rendered answer, as the daemon renders it.
uint64_t answerHash(const SliceResult &R, SliceMode Mode, bool CS,
                    unsigned Line) {
  return fnv64(renderSliceReport(R, sliceKindName(Mode, CS), Line, 0));
}

/// Chained digest of a batch of answers over \p Lines.
uint64_t batchDigest(const std::vector<SliceResult> &Rs,
                     const std::vector<unsigned> &Lines, SliceMode Mode,
                     bool CS) {
  uint64_t H = fnv64("");
  for (std::size_t I = 0; I != Rs.size(); ++I)
    H = fnv64(renderSliceReport(Rs[I], sliceKindName(Mode, CS), Lines[I], 0),
              H);
  return H;
}

bool subsetOf(const SliceResult &A, const SliceResult &B) {
  BitSet D = A.nodeSet();
  D.subtract(B.nodeSet());
  return D.empty();
}

std::vector<const Instr *> seedsFor(const Program &P,
                                    const std::vector<unsigned> &Lines) {
  std::vector<const Instr *> Seeds;
  for (unsigned L : Lines)
    Seeds.push_back(seedAtLine(P, L));
  return Seeds;
}

bool allSeeds(const std::vector<const Instr *> &Seeds) {
  return std::none_of(Seeds.begin(), Seeds.end(),
                      [](const Instr *I) { return I == nullptr; });
}

/// Samples per per-layer metric name; the final value is their median.
using LayerSamples = std::map<std::string, std::vector<double>>;

void addPtaCounters(LayerSamples &L, PointsToResult &PTA) {
  const SolverStats &St = PTA.stats();
  L["pta.worklist_pops"].push_back(static_cast<double>(St.WorklistPops));
  L["pta.propagations"].push_back(static_cast<double>(St.Propagations));
  uint64_t All = St.Propagations + St.NoChangePropagations;
  if (All)
    L["pta.useful_prop_ratio"].push_back(
        static_cast<double>(St.Propagations) / All);
  L["pta.objects"].push_back(St.NumObjects);
}

void addSizeCounters(LayerSamples &L, const std::string &Source,
                     const SDG &G, bool CS) {
  L["lang.source_lines"].push_back(
      static_cast<double>(std::count(Source.begin(), Source.end(), '\n')));
  if (CS) {
    L["sdg.cs_nodes"].push_back(G.numNodes());
  } else {
    L["sdg.nodes"].push_back(G.numNodes());
    L["sdg.edges"].push_back(G.numEdges());
  }
}

void addSliceSizes(LayerSamples &L, const std::vector<SliceResult> &Rs) {
  for (const SliceResult &R : Rs)
    L["slicer.slice_stmts"].push_back(R.sizeStmts());
}

//===----------------------------------------------------------------------===//
// The cold ops (shared by the cold workloads, the probe, and the
// expected-digest writer)
//===----------------------------------------------------------------------===//

/// One cold "open a program, ask a first question" op. The session is
/// kept so the answers (which point into it) can be checked off the
/// clock.
struct ColdOp {
  std::unique_ptr<AnalysisSession> S;
  std::vector<unsigned> Lines;
  std::vector<SliceResult> Cold; ///< CI batch, or CS batch with cold summaries.
  std::vector<SliceResult> Warm; ///< CS only: the same batch, warm summaries.
  double WallMs = 0;
  double AuxMs = 0; ///< CI: the batch; CS: the warm batch.
  bool Ok = false;
  std::string Error;
};

ColdOp runColdOp(const BenchProgram &P, unsigned NumQueries, bool CS,
                 unsigned Threads, Tracer &T) {
  ColdOp O;
  O.Lines.assign(P.QueryLines.begin(),
                 P.QueryLines.begin() +
                     std::min<std::size_t>(NumQueries, P.QueryLines.size()));
  int64_t T0 = nowNs();
  {
    Tracer::Scope Op(T, "op");
    Program *Prog;
    {
      Tracer::Scope S(T, "lang.compile");
      O.S = std::make_unique<AnalysisSession>(P.Source);
      O.S->setThreads(Threads);
      if (CS) {
        SDGOptions SO;
        SO.ContextSensitive = true;
        O.S->setSDGOptions(SO);
      }
      Prog = O.S->program();
    }
    if (!Prog) {
      O.Error = "compile failed: " + O.S->diagnostics().str();
      return O;
    }
    {
      Tracer::Scope S(T, "pta.solve");
      if (!O.S->pointsTo()) {
        O.Error = "points-to failed: " + O.S->lastError().str();
        return O;
      }
    }
    {
      Tracer::Scope S(T, "modref.compute");
      if (!O.S->modRef()) {
        O.Error = "mod-ref failed: " + O.S->lastError().str();
        return O;
      }
    }
    {
      Tracer::Scope S(T, CS ? "sdg.cs_build" : "sdg.ci_build");
      if (!O.S->sdg()) {
        O.Error = "sdg failed: " + O.S->lastError().str();
        return O;
      }
    }
    BatchOptions BO;
    BO.Mode = SliceMode::Thin;
    BO.ContextSensitive = CS;
    BO.Jobs = Threads;
    BO.Summaries = CS ? &O.S->summaries() : nullptr;
    int64_t TB = nowNs();
    {
      Tracer::Scope S(T, CS ? "slicer.cs_cold" : "slicer.ci_batch");
      SliceEngine *E = O.S->engine();
      std::vector<const Instr *> Seeds = seedsFor(*Prog, O.Lines);
      if (!E || !allSeeds(Seeds)) {
        O.Error = "no engine or a query line without a statement";
        return O;
      }
      O.Cold = E->sliceBackwardBatch(Seeds, BO);
    }
    if (CS) {
      int64_t TW = nowNs();
      {
        Tracer::Scope S(T, "slicer.cs_warm");
        O.Warm = O.S->engine()->sliceBackwardBatch(
            seedsFor(*Prog, O.Lines), BO);
      }
      O.AuxMs = nsToMs(nowNs() - TW);
    } else {
      O.AuxMs = nsToMs(nowNs() - TB);
    }
  }
  O.WallMs = nsToMs(nowNs() - T0);
  O.Ok = true;
  return O;
}

/// Off-the-clock check of one cold op: the stored digest, warm == cold
/// (CS), and complete slices.
Outcome checkColdOp(ColdOp &O, const BenchProgram &P, bool CS,
                    const ExpectedDigests &Expected, std::string &Why) {
  uint64_t D = batchDigest(O.Cold, O.Lines, SliceMode::Thin, CS);
  if (Expected.check(CS ? "cs" : "ci", modelName(P.Model), P.Pad, D) !=
      Outcome::Ok) {
    Why = "digest mismatch on " + P.Name + ": " + hex64(D);
    return Outcome::Wrong;
  }
  if (CS && batchDigest(O.Warm, O.Lines, SliceMode::Thin, CS) != D) {
    Why = "warm-summary answers differ from cold on " + P.Name;
    return Outcome::Wrong;
  }
  for (const SliceResult &R : O.Cold)
    if (!R.complete()) {
      Why = "degraded slice on " + P.Name;
      return Outcome::Wrong;
    }
  return Outcome::Ok;
}

/// Thin ⊆ traditional for every query of \p O, checked with a
/// traditional batch on the op's session.
Outcome checkThinWithinTraditional(ColdOp &O, const BenchProgram &P, bool CS,
                                   unsigned Threads, std::string &Why) {
  BatchOptions BO;
  BO.Mode = SliceMode::Traditional;
  BO.ContextSensitive = CS;
  BO.Jobs = Threads;
  BO.Summaries = CS ? &O.S->summaries() : nullptr;
  std::vector<SliceResult> Trad = O.S->engine()->sliceBackwardBatch(
      seedsFor(*O.S->program(), O.Lines), BO);
  for (std::size_t I = 0; I != Trad.size(); ++I)
    if (!subsetOf(O.Cold[I], Trad[I])) {
      Why = "thin slice not within traditional on " + P.Name + " line " +
            std::to_string(O.Lines[I]);
      return Outcome::Wrong;
    }
  return Outcome::Ok;
}

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

struct Run {
  explicit Run(const RunConfig &C) : C(C) {}

  const RunConfig &C;
  Tracer T; ///< Main-thread spans.
  Tally Ops;
  LayerSamples L;
  /// Calibration samples; the in-process workloads report their times
  /// at reference speed (see HostSpeed.h). The daemon workload takes
  /// none, so its times stay as measured.
  HostSpeed Speed;
  std::vector<TimedMs> SetupMs;
  /// End-to-end values for this workload (generic names).
  std::map<std::string, double> E2E;
  /// Traced run: op walls with the tracer on; compared with the
  /// interleaved untraced ops to report the tracing overhead.
  std::vector<TimedMs> TracedMs;
  std::vector<std::string> Report;
  std::vector<std::string> Context; ///< "key": value JSON fragments.
  std::vector<std::string> Errors;
  unsigned Threads = analysisThreads();

  int64_t deadline(int64_t Start) const {
    return Start + static_cast<int64_t>(C.Seconds * 1e9);
  }

  /// Traced runs alternate tracing per \p Cycle ops so the overhead
  /// compares like with like.
  bool traceOp(uint64_t OpIdx, unsigned Cycle) const {
    return C.Trace && (OpIdx / Cycle) % 2 == 1;
  }

  /// Wall time of every completed op, so a single caller's ops/s
  /// excludes the benchmark's own answer checking.
  std::vector<TimedMs> OpWalls;

  /// Records an op that just ended after \p Ms; \p Untraced collects
  /// the workload's latency samples.
  void recordOpWall(bool Traced, double Ms, std::vector<TimedMs> &Untraced) {
    TimedMs T{nowNs(), Ms};
    OpWalls.push_back(T);
    if (Traced)
      TracedMs.push_back(T);
    else
      Untraced.push_back(T);
  }

  /// Completed ops per second of op time, at reference speed.
  double opsPerSecond() const {
    double Ms = 0;
    for (double V : atReferenceSpeed(Speed, OpWalls))
      Ms += V;
    return Ms > 0 ? OpWalls.size() / (Ms / 1000) : 0;
  }

  /// Records one set-up that began at \p T0.
  void recordSetup(int64_t T0) {
    int64_t Now = nowNs();
    SetupMs.push_back({Now, nsToMs(Now - T0)});
  }

  void named(const std::string &Name, double V, const std::string &Unit,
             std::size_t N = 0) {
    std::string Line = "  " + Name + " = " + fmt(V) + " " + Unit;
    if (N)
      Line += "  (n=" + std::to_string(N) + ")";
    Report.push_back(Line);
  }

  /// Prints <Prefix>_p50 and <Prefix>_<tail> and returns the summary.
  LatencySummary latency(const std::string &Prefix,
                         const std::vector<double> &Ms, unsigned MaxPerMille,
                         bool Micros = false) {
    std::vector<double> V = Ms;
    if (Micros)
      for (double &X : V)
        X *= 1000;
    LatencySummary S = summarize(V, MaxPerMille);
    const char *Unit = Micros ? "us" : "ms";
    named(Prefix + "_p50_" + Unit, S.P50, Unit, S.N);
    if (S.TailPerMille == 500)
      Report.push_back("  (" + Prefix + ": too few samples for a tail)");
    else
      named(Prefix + "_" + S.tailName() + "_" + Unit, S.Tail, Unit, S.N);
    if (Micros) {
      S.P50 /= 1000;
      S.Tail /= 1000;
    }
    return S;
  }

  void ctx(const std::string &Key, const std::string &JsonValue) {
    Context.push_back("\"" + Key + "\": " + JsonValue);
  }

  void fail(const std::string &Why) {
    if (Errors.size() < 20)
      Errors.push_back(Why);
  }
};

std::string jsonList(const std::vector<unsigned> &V) {
  std::string S = "[";
  for (std::size_t I = 0; I != V.size(); ++I)
    S += (I ? ", " : "") + std::to_string(V[I]);
  return S + "]";
}

/// Fills the span-derived layer samples and the trace-quality metrics.
void harvestSpans(Run &Rn, const Tracer &T) {
  const std::vector<Span> &Spans = T.spans();
  std::vector<int64_t> Self = selfTimesNs(Spans);
  static const std::pair<const char *, const char *> Map[] = {
      {"lang.compile", "lang.compile_ms"},
      {"pta.solve", "pta.ms"},
      {"modref.compute", "modref.ms"},
      {"sdg.ci_build", "sdg.ci_build_ms"},
      {"sdg.cs_build", "sdg.cs_build_ms"},
      {"slicer.ci_batch", "slicer.ci_batch_ms"},
      {"slicer.cs_cold", "slicer.cs_cold_ms"},
      {"slicer.cs_warm", "slicer.cs_warm_ms"},
      {"pipeline.set_source", "pipeline.set_source_ms"},
      {"pipeline.snapshot_save", "pipeline.snapshot_save_ms"},
      {"pipeline.snapshot_load", "pipeline.snapshot_load_ms"},
  };
  for (auto [SpanName, Metric] : Map)
    for (double Ms : spanMs(Spans, Self, SpanName))
      Rn.L[Metric].push_back(Ms);
  for (double C : childCoverage(Spans, Self, "op"))
    Rn.L["trace.op_coverage_ratio"].push_back(C);
  std::string Line = "  op self-time share:";
  for (const auto &[Name, Share] : selfShareUnder(Spans, Self, "op"))
    Line += " " + Name + "=" + fmt(100 * Share) + "%";
  Rn.Report.push_back(Line);
}

//===----------------------------------------------------------------------===//
// cold_ci / cold_cs
//===----------------------------------------------------------------------===//

/// The program pool of a cold workload: 16 programs, four per quarter
/// of the pad range, each quarter holding every model once. CI pads are
/// one jittered draw per slot. CS pads are fixed per quarter (2, 4, 6,
/// 8): CS cost rises so steeply with the pad that a seeded pad choice
/// moved the p90 by a third from seed to seed, so on cold_cs the seed
/// only orders the programs. Models per slot and the visiting order are
/// drawn from the seed. Balancing size and model this way keeps the
/// run-to-run spread of the medians small.
std::vector<BenchProgram> coldPool(Rng &R, bool CS) {
  const double Width = double(CiPadMax - CiPadMin + 1) / ColdPool;
  std::vector<std::pair<unsigned, unsigned>> Picks; // (model, pad)
  for (unsigned Q = 0; Q != 4; ++Q) {
    std::vector<unsigned> Models;
    for (unsigned M = 0; M != numModels(); ++M)
      Models.push_back(M);
    for (std::size_t K = Models.size(); K > 1; --K)
      std::swap(Models[K - 1], Models[R.below(K)]);
    for (unsigned K = 0; K != Models.size(); ++K) {
      unsigned Slot = Q * Models.size() + K;
      unsigned Pad =
          CS ? CsQuarterPads[Q]
             : std::min(CiPadMax, CiPadMin + static_cast<unsigned>(
                                                 (Slot + R.unit()) * Width));
      Picks.push_back({Models[K], Pad});
    }
  }
  for (std::size_t I = Picks.size(); I > 1; --I)
    std::swap(Picks[I - 1], Picks[R.below(I)]);
  std::vector<BenchProgram> Pool;
  for (auto [M, Pad] : Picks)
    Pool.push_back(makeProgram(M, Pad, CS ? CsQueries : CiQueries));
  return Pool;
}

void runCold(Run &Rn, bool CS) {
  ExpectedDigests Expected;
  if (!Expected.load(Rn.C.ExpectedPath))
    throw std::runtime_error("cannot read expected digests from " +
                             Rn.C.ExpectedPath);
  const unsigned NumQ = CS ? CsQueries : CiQueries;

  // Set-up: generate the pool and run one untimed warm-up op (page
  // faults, allocator growth) on a fixed mid-range program, repeated
  // for a stable set-up median.
  std::vector<BenchProgram> Pool;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    Rng R(Rn.C.Seed);
    int64_t T0 = nowNs();
    Pool = coldPool(R, CS);
    BenchProgram Mid =
        makeProgram(0, CS ? (CsPadMin + CsPadMax) / 2
                          : (CiPadMin + CiPadMax) / 2,
                    NumQ);
    Tracer Off;
    ColdOp W = runColdOp(Mid, NumQ, CS, Rn.Threads, Off);
    Rn.recordSetup(T0);
    if (!W.Ok)
      throw std::runtime_error("warm-up op failed: " + W.Error);
    Rn.Speed.sample();
  }
  std::vector<unsigned> Pads;
  for (const BenchProgram &P : Pool)
    Pads.push_back(P.Pad);
  Rn.ctx("pads", jsonList(Pads));
  Rn.ctx("queries_per_op", std::to_string(NumQ));

  std::vector<TimedMs> WallMs, AuxMs;
  const int64_t End = Rn.deadline(nowNs());
  for (uint64_t I = 0; nowNs() < End; ++I) {
    std::size_t Idx = I % Pool.size();
    const BenchProgram &P = Pool[Idx];
    bool Traced = Rn.traceOp(I, Pool.size());
    Rn.Speed.maybeSample();
    Rn.T.setOn(Traced);
    Rn.T.setRequest(I + 1);
    ColdOp O = runColdOp(P, NumQ, CS, Rn.Threads, Rn.T);
    Rn.T.setOn(false);
    if (!O.Ok) {
      Rn.Ops.record(Outcome::NonOk);
      Rn.fail(O.Error);
      continue;
    }
    Rn.recordOpWall(Traced, O.WallMs, WallMs);
    if (!Traced)
      AuxMs.push_back({nowNs(), O.AuxMs});

    // Off the clock: layer counters, then the check.
    if (Traced) {
      addPtaCounters(Rn.L, *O.S->pointsTo());
      addSizeCounters(Rn.L, P.Source, *O.S->sdg(), CS);
      addSliceSizes(Rn.L, O.Cold);
      if (CS) {
        // Read the cache counters before the slicer below consults it.
        const SummaryCache &SC = O.S->summaries();
        uint64_t Hits = SC.hits(), All = SC.hits() + SC.misses();
        if (All)
          Rn.L["slicer.summary_cache_hit_ratio"].push_back(double(Hits) / All);
        TabulationSlicer Tab(*O.S->sdg(), SliceMode::Thin, nullptr,
                             &O.S->summaries());
        Rn.L["slicer.summary_edges"].push_back(Tab.numSummaryEdges());
      } else {
        const BatchStats &BS = O.S->engine()->stats();
        if (BS.Queries)
          Rn.L["slicer.batch_unique_ratio"].push_back(
              double(BS.UniqueQueries) / BS.Queries);
        Rn.L["slicer.condensation_reuse_ratio"].push_back(
            BS.CondensationReused ? 1 : 0);
      }
    }
    std::string Why;
    Outcome Res = checkColdOp(O, P, CS, Expected, Why);
    Rn.Ops.record(Res);
    if (Res != Outcome::Ok)
      Rn.fail(Why);
  }
  Rn.Speed.sample();
  // The peak is read before the subset checks below, whose traditional
  // batches are the benchmark's own work.
  const double PeakRssMb = selfPeakRssMb();
  // Off the clock: thin ⊆ traditional on every program of the pool.
  Tracer Off;
  for (const BenchProgram &P : Pool) {
    ColdOp O = runColdOp(P, NumQ, CS, Rn.Threads, Off);
    std::string Why;
    if (!O.Ok)
      Why = O.Error;
    else if (checkThinWithinTraditional(O, P, CS, Rn.Threads, Why) ==
             Outcome::Ok)
      continue;
    Rn.Ops.markWrong();
    Rn.fail(Why);
  }
  const std::string W = CS ? "cold_cs" : "cold_ci";
  LatencySummary S =
      Rn.latency(W, atReferenceSpeed(Rn.Speed, WallMs), 900);
  LatencySummary A = summarize(atReferenceSpeed(Rn.Speed, AuxMs));
  Rn.named(CS ? "cs_warm_batch_p50_ms" : "cold_ci_first_batch_p50_ms", A.P50,
           "ms", A.N);
  Rn.E2E["p50_ms"] = S.P50;
  Rn.E2E["tail_ms"] = S.Tail;
  Rn.E2E["aux_p50_ms"] = A.P50;
  Rn.E2E["ops_per_s"] = Rn.opsPerSecond();
  Rn.E2E["peak_rss_mb"] = PeakRssMb;
}

//===----------------------------------------------------------------------===//
// dev_session
//===----------------------------------------------------------------------===//

/// One edit of the stream, logged so the sources can be rebuilt after
/// the timed loop instead of being copied during it.
struct DevEdit {
  unsigned Class, Method;
  MethodState State;
};

/// One answer sampled for the off-the-clock cold comparison: the slice
/// at \p Line after the first \p Edits edits of the log.
struct DevSample {
  std::size_t Edits;
  unsigned Line;
  uint64_t Hash;
};

/// One program of the edit session, and the session that edits it.
struct DevLane {
  unsigned Model = 0;
  std::unique_ptr<EditableProgram> E;
  std::unique_ptr<AnalysisSession> S;
  std::vector<DevEdit> Edits;
  std::vector<DevSample> Samples;
  unsigned LastLine = 0;
  uint64_t LastHash = 0;
  bool HaveLast = false;
};

/// Generates \p Model at DevPad, builds it cold in an incremental
/// session, and slices once.
void openLane(DevLane &L, unsigned Model) {
  L.Model = Model;
  L.E = std::make_unique<EditableProgram>(makeProgram(Model, DevPad, 8));
  // The library's default concurrency (one thread), as an embedding
  // tool gets it; cold_ci measures the parallel stages.
  L.S = std::make_unique<AnalysisSession>(L.E->source());
  L.S->setIncremental(true);
  Program *P = L.S->program();
  if (!P || !L.S->sdg())
    throw std::runtime_error("dev_session program does not build");
  L.LastLine = L.E->base().QueryLines.front();
  const Instr *Seed = seedAtLine(*P, L.LastLine);
  if (!Seed || !L.S->sliceBackwardCached(Seed, SliceMode::Thin))
    throw std::runtime_error("dev_session warm-up slice failed");
}

/// The edit session runs one lane per model, a block of ten steps at a
/// time in turn, so every seed edits the same mix of program shapes;
/// with one model drawn per seed, the model alone moved the medians by
/// a fifth from seed to seed.
void runDevSession(Run &Rn) {
  std::vector<DevLane> Lanes(numModels());
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    int64_t T0 = nowNs();
    for (unsigned M = 0; M != Lanes.size(); ++M)
      openLane(Lanes[M], M);
    Rn.recordSetup(T0);
    Rn.Speed.sample();
  }
  std::vector<std::string> Models;
  for (const DevLane &L : Lanes)
    Models.push_back("\"" + modelName(L.Model) + "\"");
  Rn.ctx("pads", jsonList(std::vector<unsigned>(Lanes.size(), DevPad)));
  std::string ModelList = "[";
  for (std::size_t I = 0; I != Models.size(); ++I)
    ModelList += (I ? ", " : "") + Models[I];
  Rn.ctx("models", ModelList + "]");
  Rn.ctx("session_threads", std::to_string(Lanes[0].S->threadsResolved()));
  Rng R(Rn.C.Seed ^ 0xde5e55);

  const std::string SnapPath = Rn.C.WorkDir + "/dev.snapshot";
  // Body edits take the incremental path; signature changes fall back
  // cold and are timed apart. About one edit in nine is a signature
  // change, so a p90 over both kinds fell in the gap between them and
  // swung with the few fastest cold rebuilds.
  std::vector<TimedMs> StepMs, SignatureMs, WarmMs;
  uint64_t Snapshots = 0, SnapFallbacks = 0;
  const unsigned Cycle = 10 * Lanes.size();

  const int64_t End = Rn.deadline(nowNs());
  uint64_t Step = 0;
  unsigned SigPos = 0;
  for (; nowNs() < End; ++Step) {
    unsigned InBlock = Step % 10;
    DevLane &Ln = Lanes[(Step / 10) % Lanes.size()];
    if (InBlock == 0)
      SigPos = R.below(9);
    bool Traced = Rn.traceOp(Step, Cycle);
    Rn.Speed.maybeSample();
    Rn.T.setOn(Traced);
    Rn.T.setRequest(Step + 1);

    if (InBlock == 9) {
      // Snapshot round trip: save, reopen a fresh session from the
      // file, slice where the last edit was.
      int64_t T0 = nowNs();
      std::unique_ptr<AnalysisSession> F;
      const SliceResult *Ans = nullptr;
      Status Saved, Loaded;
      {
        Tracer::Scope Op(Rn.T, "op");
        {
          Tracer::Scope Sc(Rn.T, "pipeline.snapshot_save");
          Saved = Ln.S->saveSnapshot(SnapPath);
        }
        {
          Tracer::Scope Sc(Rn.T, "pipeline.snapshot_load");
          F = std::make_unique<AnalysisSession>(Ln.E->source());
          Loaded = F->loadSnapshot(SnapPath);
        }
        {
          Tracer::Scope Sc(Rn.T, "slicer.ci_slice");
          Program *P = F->program();
          const Instr *Seed = P ? seedAtLine(*P, Ln.LastLine) : nullptr;
          Ans = Seed ? F->sliceBackwardCached(Seed, SliceMode::Thin) : nullptr;
        }
      }
      double Ms = nsToMs(nowNs() - T0);
      Rn.T.setOn(false);
      ++Snapshots;
      if (!Loaded.isOk())
        ++SnapFallbacks;
      if (!Saved.isOk() || !Ans) {
        Rn.Ops.record(Outcome::NonOk);
        Rn.fail("snapshot round trip failed: " + Saved.str());
        continue;
      }
      Rn.OpWalls.push_back({nowNs(), Ms});
      if (!Traced)
        WarmMs.push_back(Rn.OpWalls.back());
      // The warm start must answer exactly like the session it came from.
      uint64_t H = answerHash(*Ans, SliceMode::Thin, false, Ln.LastLine);
      bool Same = !Ln.HaveLast || H == Ln.LastHash;
      Rn.Ops.record(Same ? Outcome::Ok : Outcome::Wrong);
      if (!Same)
        Rn.fail("warm start answer differs at line " +
                std::to_string(Ln.LastLine));
      if (Traced) {
        struct stat St;
        if (stat(SnapPath.c_str(), &St) == 0)
          Rn.L["pipeline.snapshot_bytes"].push_back(double(St.st_size));
      }
      continue;
    }

    // Edit step: one padding method rewritten, then a thin slice from
    // its return statement.
    unsigned C = R.below(DevPad), M = R.below(PadMethods);
    MethodState St = Ln.E->state(C, M);
    const bool Signature = InBlock == SigPos;
    if (Signature)
      St.Renamed = !St.Renamed;
    else
      St.Variant =
          (St.Variant + 1 + R.below(NumBodyVariants - 1)) % NumBodyVariants;
    Ln.E->set(C, M, St);
    Ln.Edits.push_back({C, M, St});
    unsigned Line = Ln.E->returnLine(C, M);

    int64_t T0 = nowNs();
    const SliceResult *Ans = nullptr;
    {
      Tracer::Scope Op(Rn.T, "op");
      {
        Tracer::Scope Sc(Rn.T, "pipeline.set_source");
        Ln.S->setSource(Ln.E->source());
      }
      Program *P;
      {
        Tracer::Scope Sc(Rn.T, "lang.compile");
        P = Ln.S->program();
      }
      {
        Tracer::Scope Sc(Rn.T, "pta.solve");
        Ln.S->pointsTo();
      }
      {
        Tracer::Scope Sc(Rn.T, "sdg.ci_build");
        Ln.S->sdg();
      }
      {
        Tracer::Scope Sc(Rn.T, "slicer.ci_slice");
        const Instr *Seed = P ? seedAtLine(*P, Line) : nullptr;
        Ans = Seed ? Ln.S->sliceBackwardCached(Seed, SliceMode::Thin)
                   : nullptr;
      }
    }
    double Ms = nsToMs(nowNs() - T0);
    Rn.T.setOn(false);
    if (!Ans) {
      Rn.Ops.record(Outcome::NonOk);
      Rn.fail("edit step produced no slice at line " + std::to_string(Line));
      continue;
    }
    if (Signature) {
      Rn.OpWalls.push_back({nowNs(), Ms});
      if (!Traced)
        SignatureMs.push_back(Rn.OpWalls.back());
    } else {
      Rn.recordOpWall(Traced, Ms, StepMs);
    }
    Rn.Ops.record(Outcome::Ok);
    Ln.LastLine = Line;
    Ln.LastHash = answerHash(*Ans, SliceMode::Thin, false, Line);
    Ln.HaveLast = true;
    if (Traced)
      Rn.L["slicer.slice_stmts"].push_back(Ans->sizeStmts());
    // A seeded sample (about one step in sixteen) is compared against a
    // cold build after the timed loop.
    if (R.below(16) == 0)
      Ln.Samples.push_back({Ln.Edits.size(), Line, Ln.LastHash});
  }
  Rn.Speed.sample();
  // The peak is read before the cold builds below, which are the
  // benchmark's own work.
  const double PeakRssMb = selfPeakRssMb();
  // Off the clock: every sampled answer against a cold build of the
  // source replayed from the lane's edit log.
  std::size_t Checked = 0;
  for (const DevLane &Ln : Lanes) {
    EditableProgram Replay(makeProgram(Ln.Model, DevPad, 8));
    std::size_t Replayed = 0;
    for (const DevSample &D : Ln.Samples) {
      for (; Replayed != D.Edits; ++Replayed)
        Replay.set(Ln.Edits[Replayed].Class, Ln.Edits[Replayed].Method,
                   Ln.Edits[Replayed].State);
      AnalysisSession Cold(Replay.source());
      Cold.setThreads(Rn.Threads);
      Program *P = Cold.program();
      const Instr *Seed = P ? seedAtLine(*P, D.Line) : nullptr;
      const SliceResult *Ans =
          Seed ? Cold.sliceBackwardCached(Seed, SliceMode::Thin) : nullptr;
      ++Checked;
      if (!Ans ||
          answerHash(*Ans, SliceMode::Thin, false, D.Line) != D.Hash) {
        Rn.Ops.markWrong();
        Rn.fail("incremental answer differs from a cold build of " +
                modelName(Ln.Model) + " at line " + std::to_string(D.Line));
      }
    }
  }
  Rn.ctx("cold_checked_answers", std::to_string(Checked));

  AnalysisSession::IncrementalStats IS;
  for (const DevLane &Ln : Lanes) {
    const AnalysisSession::IncrementalStats &LS = Ln.S->incrementalStats();
    IS.Attempts += LS.Attempts;
    IS.Applied += LS.Applied;
    IS.FunctionsRecompiled += LS.FunctionsRecompiled;
    IS.FunctionsReused += LS.FunctionsReused;
    IS.StageFallbacks += LS.StageFallbacks;
    IS.ColdFallbacks += LS.ColdFallbacks;
    for (const StageReport &SR : Ln.S->stageReports())
      if (SR.Stage == "slice" && SR.CacheHits + SR.CacheMisses)
        Rn.L["pipeline.slice_hit_ratio"].push_back(
            double(SR.CacheHits) / (SR.CacheHits + SR.CacheMisses));
    addPtaCounters(Rn.L, *Ln.S->pointsTo());
    addSizeCounters(Rn.L, Ln.E->source(), *Ln.S->sdg(), false);
  }
  if (IS.Attempts) {
    Rn.L["lang.fn_recompiled"].push_back(double(IS.FunctionsRecompiled) /
                                         IS.Attempts);
    Rn.L["lang.fn_reused"].push_back(double(IS.FunctionsReused) /
                                     IS.Attempts);
    Rn.L["pipeline.incremental_applied_ratio"].push_back(double(IS.Applied) /
                                                         IS.Attempts);
  }
  Rn.L["pipeline.stage_fallbacks"].push_back(IS.StageFallbacks);
  Rn.L["pipeline.cold_fallbacks"].push_back(IS.ColdFallbacks);
  Rn.L["pipeline.snapshot_fallbacks"].push_back(double(SnapFallbacks));
  unlink(SnapPath.c_str());

  LatencySummary L =
      Rn.latency("edit_to_slice", atReferenceSpeed(Rn.Speed, StepMs), 900);
  LatencySummary W = summarize(atReferenceSpeed(Rn.Speed, WarmMs));
  LatencySummary Sig = summarize(atReferenceSpeed(Rn.Speed, SignatureMs));
  Rn.named("signature_edit_p50_ms", Sig.P50, "ms", Sig.N);
  Rn.named("warm_start_p50_ms", W.P50, "ms", W.N);
  Rn.named("snapshot_round_trips", double(Snapshots), "count");
  Rn.E2E["p50_ms"] = L.P50;
  Rn.E2E["tail_ms"] = L.Tail;
  Rn.E2E["aux_p50_ms"] = W.P50;
  Rn.E2E["ops_per_s"] = Rn.opsPerSecond();
  Rn.E2E["peak_rss_mb"] = PeakRssMb;
}

//===----------------------------------------------------------------------===//
// daemon
//===----------------------------------------------------------------------===//

/// One program warm in the daemon, with the variants its owner client
/// toggles between by editing.
struct DaemonProgram {
  BenchProgram P;
  unsigned EditClass = 0, EditMethod = 0;
  std::vector<std::string> Variants; ///< Full sources; [0] is P.Source.
  std::string Id;                    ///< Daemon session id.
};

struct Version {
  unsigned Variant;
  int64_t SentNs, RecvNs;
};

enum class ReqKind : uint8_t { Slice, Batch, Edit };

struct Answer {
  ReqKind Kind;
  uint8_t Program;
  SliceMode Mode;
  Outcome Out;
  bool Traced;
  uint32_t Line; ///< Slice: the line; Batch: index into BatchLines.
  int64_t T0, T1;
  uint64_t Hash;
};

struct ClientLog {
  std::vector<Answer> Answers;
  std::vector<std::vector<unsigned>> BatchLines;
  std::vector<double> PingUs;
  Tracer T;
  /// Edits of the program this client owns (if any), in order.
  std::vector<Version> History;
  std::string Error;
};

Status loadAll(ServiceClient &Cl, std::vector<DaemonProgram> &Progs) {
  for (DaemonProgram &D : Progs) {
    ServiceResponse Resp;
    Status St = Cl.loadSource(D.P.Source, false, 0, true, Resp);
    if (!St.isOk())
      return St;
    if (Resp.Code != ServiceStatus::Ok)
      return Status(StatusCode::Internal,
                           "load-source answered " +
                               std::string(serviceStatusName(Resp.Code)) +
                               ": " + Resp.Detail);
    D.Id = Resp.Body;
  }
  return Status::ok();
}

void clientLoop(unsigned Client, const RunConfig &C,
                const std::vector<DaemonProgram> &Progs, int64_t End,
                ClientLog &Log) {
  ServiceClient Cl;
  if (!Cl.connect(C.WorkDir + "/daemon.sock").isOk()) {
    Log.Error = "client cannot connect";
    return;
  }
  Rng R(C.Seed * 7919 + Client + 1);
  // This client alone edits program Client, so its history is exact.
  const DaemonProgram &Owned = Progs[Client];
  unsigned Cur = 0;
  Log.History.push_back({0, INT64_MIN, INT64_MIN});
  for (uint64_t N = 0; nowNs() < End; ++N) {
    bool Traced = C.Trace && N % 2 == 1;
    Log.T.setOn(Traced);
    Log.T.setRequest((uint64_t(Client + 1) << 40) | N);
    if (Traced && N % 16 == 1) {
      // A no-analysis round trip interleaved under load: wire,
      // admission and pool dispatch only.
      ServiceResponse Resp;
      int64_t T0 = nowNs();
      Status St;
      {
        Tracer::Scope S(Log.T, "service.ping");
        St = Cl.ping(0, Resp);
      }
      if (classifyResponse(St, Resp) == Outcome::Ok)
        Log.PingUs.push_back(double(nowNs() - T0) / 1e3);
    }

    double U = R.unit();
    Answer A{};
    A.Traced = Traced;
    ServiceResponse Resp;
    Status St;
    if (U < 0.05) {
      unsigned Next = (Cur + 1 + R.below(DaemonVariants - 1)) % DaemonVariants;
      A.Kind = ReqKind::Edit;
      A.Program = uint8_t(Client);
      A.T0 = nowNs();
      {
        Tracer::Scope Op(Log.T, "op");
        Tracer::Scope S(Log.T, "service.edit");
        St = Cl.edit(Owned.Id, Owned.Variants[Next], Resp);
      }
      A.T1 = nowNs();
      Log.History.push_back({Next, A.T0, A.T1});
      Cur = Next;
    } else if (U < 0.20) {
      A.Kind = ReqKind::Batch;
      A.Program = uint8_t(R.below(Progs.size()));
      A.Mode = SliceMode::Thin;
      const std::vector<unsigned> &Q = Progs[A.Program].P.QueryLines;
      std::vector<unsigned> Lines;
      for (unsigned K = 0; K != DaemonBatch; ++K)
        Lines.push_back(Q[R.below(Q.size())]);
      std::vector<uint32_t> Wire(Lines.begin(), Lines.end());
      A.T0 = nowNs();
      {
        Tracer::Scope Op(Log.T, "op");
        Tracer::Scope S(Log.T, "service.batch");
        St = Cl.batchSlice(Progs[A.Program].Id, Wire, A.Mode, Resp);
      }
      A.T1 = nowNs();
      A.Line = Log.BatchLines.size();
      Log.BatchLines.push_back(std::move(Lines));
    } else {
      A.Kind = ReqKind::Slice;
      A.Program = uint8_t(R.below(Progs.size()));
      A.Mode = R.below(100) < 85 ? SliceMode::Thin : SliceMode::Traditional;
      const std::vector<unsigned> &Q = Progs[A.Program].P.QueryLines;
      A.Line = Q[R.below(Q.size())];
      A.T0 = nowNs();
      {
        Tracer::Scope Op(Log.T, "op");
        Tracer::Scope S(Log.T, "service.slice");
        St = Cl.slice(Progs[A.Program].Id, A.Line, A.Mode, Resp);
      }
      A.T1 = nowNs();
    }
    A.Out = classifyResponse(St, Resp);
    A.Hash = A.Kind == ReqKind::Edit ? 0 : fnv64(Resp.Body);
    Log.Answers.push_back(A);
    if (A.Out == Outcome::Transport) {
      // The daemon is gone or the stream desynced: reconnect once.
      Cl.close();
      if (!Cl.connect(C.WorkDir + "/daemon.sock").isOk()) {
        Log.Error = "connection lost: " + St.str();
        return;
      }
    }
  }
  Log.T.setOn(false);
}

/// Parses "key=value" (value up to the next space) from \p Text.
uint64_t statField(const std::string &Text, const std::string &Line,
                   const std::string &Key) {
  std::size_t L = Text.find(Line);
  if (L == std::string::npos)
    return 0;
  std::size_t K = Text.find(" " + Key + "=", L);
  std::size_t E = Text.find('\n', L);
  if (K == std::string::npos || K > E)
    return 0;
  return std::strtoull(Text.c_str() + K + Key.size() + 2, nullptr, 10);
}

/// The number before \p Label in the daemon's "server:" line.
uint64_t serverField(const std::string &Text, const std::string &Label) {
  std::size_t L = Text.find("server: ");
  std::size_t K = L == std::string::npos ? L : Text.find(" " + Label, L);
  if (K == std::string::npos)
    return 0;
  std::size_t B = Text.rfind(' ', K - 1);
  return std::strtoull(Text.c_str() + (B == std::string::npos ? 0 : B + 1),
                       nullptr, 10);
}

/// In-process references for the daemon's answers: one cold session
/// per (program, variant), warm after first use, with memoized
/// renderings. They double as the "equal warm session" the traced run
/// replays queries on.
class DaemonReference {
public:
  DaemonReference(const std::vector<DaemonProgram> &Progs, unsigned Threads,
                  Tracer &T)
      : Progs(Progs), Threads(Threads), T(T) {}

  AnalysisSession *session(unsigned Prog, unsigned Variant) {
    auto &Slot = Sessions[{Prog, Variant}];
    if (!Slot) {
      Tracer::Scope Root(T, "replay.load");
      Slot = std::make_unique<AnalysisSession>(Progs[Prog].Variants[Variant]);
      Slot->setThreads(Threads);
      Slot->setIncremental(true);
      {
        Tracer::Scope S(T, "lang.compile");
        Slot->program();
      }
      {
        Tracer::Scope S(T, "pta.solve");
        Slot->pointsTo();
      }
      {
        Tracer::Scope S(T, "sdg.ci_build");
        Slot->sdg();
      }
    }
    return Slot.get();
  }

  /// The daemon's rendering of one slice, or null when the line has no
  /// statement.
  const std::string *render(unsigned Prog, unsigned Variant, unsigned Line,
                            SliceMode Mode) {
    auto Key = std::make_tuple(Prog, Variant, Line, Mode);
    auto It = Renders.find(Key);
    if (It != Renders.end())
      return &It->second;
    AnalysisSession *S = session(Prog, Variant);
    Program *P = S->program();
    SDG *G = S->sdg();
    const Instr *Seed = P && G ? seedAtLine(*P, Line) : nullptr;
    if (!Seed)
      return nullptr;
    SliceResult R = sliceBackward(*G, Seed, Mode);
    return &Renders
                .emplace(Key, renderSliceReport(R, sliceKindName(Mode, false),
                                                Line, 0))
                .first->second;
  }

  std::optional<uint64_t> sliceHash(unsigned Prog, unsigned Variant,
                                    unsigned Line, SliceMode Mode) {
    const std::string *S = render(Prog, Variant, Line, Mode);
    if (!S)
      return std::nullopt;
    return fnv64(*S);
  }

  std::optional<uint64_t> batchHash(unsigned Prog, unsigned Variant,
                                    const std::vector<unsigned> &Lines,
                                    SliceMode Mode) {
    uint64_t H = fnv64("");
    for (unsigned L : Lines) {
      const std::string *S = render(Prog, Variant, L, Mode);
      if (!S)
        return std::nullopt;
      H = fnv64("=== seed line " + std::to_string(L) + " ===\n", H);
      H = fnv64(*S, H);
    }
    return H;
  }

private:
  const std::vector<DaemonProgram> &Progs;
  unsigned Threads;
  Tracer &T;
  std::map<std::pair<unsigned, unsigned>, std::unique_ptr<AnalysisSession>>
      Sessions;
  std::map<std::tuple<unsigned, unsigned, unsigned, SliceMode>, std::string>
      Renders;
};

/// Variants live at some instant of [T0, T1] on a program whose edit
/// history is \p H (edits are sequential: one owner client each).
std::vector<unsigned> liveVariants(const std::vector<Version> &H, int64_t T0,
                                   int64_t T1) {
  std::vector<unsigned> Out;
  for (std::size_t K = 0; K != H.size(); ++K) {
    bool Born = H[K].SentNs <= T1;
    bool Alive = K + 1 == H.size() || H[K + 1].RecvNs >= T0;
    if (Born && Alive &&
        std::find(Out.begin(), Out.end(), H[K].Variant) == Out.end())
      Out.push_back(H[K].Variant);
  }
  return Out;
}

std::vector<DaemonProgram> daemonPrograms(Rng &R) {
  // One program per client, so every client owns (and alone edits)
  // one program and the edit share does not depend on the seed. The
  // programs use distinct models: equal sources would share one daemon
  // session and so one edit stream.
  std::vector<unsigned> Models(numModels());
  for (unsigned M = 0; M != Models.size(); ++M)
    Models[M] = M;
  for (std::size_t I = Models.size(); I > 1; --I)
    std::swap(Models[I - 1], Models[R.below(I)]);
  std::vector<DaemonProgram> Progs;
  for (unsigned I = 0; I != DaemonClients; ++I) {
    DaemonProgram D;
    D.P = makeProgram(Models[I], DaemonPadMin + R.below(DaemonPadSpan),
                      DaemonQueries);
    D.EditClass = R.below(D.P.Pad);
    D.EditMethod = R.below(PadMethods);
    for (unsigned V = 0; V != DaemonVariants; ++V)
      D.Variants.push_back(
          V == 0 ? D.P.Source
                 : variantSource(D.P, D.EditClass, D.EditMethod,
                                 MethodState{V, false}));
    Progs.push_back(std::move(D));
  }
  return Progs;
}

void runDaemon(Run &Rn) {
  const std::string Socket = Rn.C.WorkDir + "/daemon.sock";
  std::vector<DaemonProgram> Progs;
  DaemonProcess Daemon;
  // Set-up: generation, daemon start and warm loads, repeated; the
  // last daemon stays up for the timed loop.
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    if (Rep)
      Daemon.stop();
    Rng R(Rn.C.Seed);
    int64_t T0 = nowNs();
    Progs = daemonPrograms(R);
    Status St = Daemon.start(Rn.C.DaemonBin, Socket);
    if (!St.isOk())
      throw std::runtime_error("thinsliced: " + St.str());
    ServiceClient Cl;
    St = Cl.connect(Socket);
    if (St.isOk())
      St = loadAll(Cl, Progs);
    if (!St.isOk())
      throw std::runtime_error("warm load: " + St.str());
    Rn.recordSetup(T0);
  }
  std::vector<unsigned> Pads;
  for (const DaemonProgram &D : Progs)
    Pads.push_back(D.P.Pad);
  Rn.ctx("pads", jsonList(Pads));
  Rn.ctx("daemon_clients", std::to_string(DaemonClients));
  Rn.ctx("daemon_threads", std::to_string(std::thread::hardware_concurrency()));
  Rn.ctx("daemon_analysis_threads", "1");

  std::vector<ClientLog> Logs(DaemonClients);
  const int64_t Start = nowNs(), End = Rn.deadline(Start);
  {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != DaemonClients; ++I)
      Threads.emplace_back(clientLoop, I, std::cref(Rn.C), std::cref(Progs),
                           End, std::ref(Logs[I]));
    for (std::thread &Th : Threads)
      Th.join();
  }
  const double Secs = nsToMs(nowNs() - Start) / 1000;

  // Daemon-side telemetry, then a graceful drain.
  uint64_t SliceHits = 0, SliceMisses = 0, IncAttempts = 0, IncApplied = 0,
           Reused = 0, Recompiled = 0, ColdFb = 0, StageFb = 0;
  uint64_t Requests = 0, Retries = 0, BadFrames = 0;
  {
    ServiceClient Cl;
    if (Cl.connect(Socket).isOk())
      for (const DaemonProgram &D : Progs) {
        ServiceResponse Resp;
        if (!Cl.stats(D.Id, Resp).isOk() || Resp.Code != ServiceStatus::Ok)
          continue;
        const std::string &B = Resp.Body;
        SliceHits += statField(B, "  slice:", "hits");
        SliceMisses += statField(B, "  slice:", "misses");
        IncAttempts += statField(B, "incremental:", "attempts");
        IncApplied += statField(B, "incremental:", "applied");
        Reused += statField(B, "incremental:", "fn_reused");
        Recompiled += statField(B, "incremental:", "fn_recompiled");
        ColdFb += statField(B, "incremental:", "cold_fallbacks");
        StageFb += statField(B, "incremental:", "stage_fallbacks");
        Requests = serverField(B, "requests");
        Retries = serverField(B, "retries");
        BadFrames = serverField(B, "bad frames");
      }
  }
  const double DaemonRss = Daemon.stop();

  // Off the clock: every answer against in-process cold builds of each
  // source version that was live while the request was in flight.
  Tracer RefT;
  RefT.setOn(Rn.C.Trace);
  DaemonReference Ref(Progs, Rn.Threads, RefT);
  // Program I's edit history is its owner's, client I's.
  std::vector<std::vector<Version>> History;
  for (const ClientLog &Log : Logs)
    History.push_back(Log.History);
  std::vector<double> SliceMs, BatchMs, EditMs, ComputeUs, OverheadUs,
      ReplayBatchMs, PingUs;
  uint64_t Completed = 0, Checked = 0;
  for (ClientLog &Log : Logs) {
    if (!Log.Error.empty()) {
      Rn.fail(Log.Error);
      Rn.Ops.record(Outcome::Transport);
    }
    PingUs.insert(PingUs.end(), Log.PingUs.begin(), Log.PingUs.end());
    for (const Answer &A : Log.Answers) {
      Outcome O = A.Out;
      if (O == Outcome::Ok && A.Kind != ReqKind::Edit) {
        std::vector<unsigned> Live =
            liveVariants(History[A.Program], A.T0, A.T1);
        bool Match = false;
        for (unsigned V : Live) {
          std::optional<uint64_t> H =
              A.Kind == ReqKind::Slice
                  ? Ref.sliceHash(A.Program, V, A.Line, A.Mode)
                  : Ref.batchHash(A.Program, V, Log.BatchLines[A.Line],
                                  A.Mode);
          if (H && *H == A.Hash) {
            Match = true;
            break;
          }
        }
        ++Checked;
        if (!Match) {
          O = Outcome::Wrong;
          Rn.fail("daemon answer differs from every live cold build: " +
                  Progs[A.Program].P.Name +
                  (A.Kind == ReqKind::Slice
                       ? " line " + std::to_string(A.Line)
                       : std::string(" batch")) +
                  ", " + std::to_string(Live.size()) + " live version(s)");
        }
      } else if (O != Outcome::Ok) {
        Rn.fail(std::string("daemon request failed: ") +
                (O == Outcome::Retry ? "RETRY" : "non-OK or transport"));
      }
      Rn.Ops.record(O);
      if (O != Outcome::Ok)
        continue;
      ++Completed;
      double Ms = nsToMs(A.T1 - A.T0);
      if (A.Traced) {
        if (A.Kind == ReqKind::Slice)
          Rn.TracedMs.push_back({A.T1, Ms});
        // Replay on the equal warm in-process session: the daemon's
        // own compute for this query, without wire or admission.
        unsigned V = liveVariants(History[A.Program], A.T0, A.T1).front();
        AnalysisSession *S = Ref.session(A.Program, V);
        if (A.Kind == ReqKind::Slice && ComputeUs.size() < 4000) {
          int64_t T0 = nowNs();
          const Instr *Seed = seedAtLine(*S->program(), A.Line);
          SliceResult R = sliceBackward(*S->sdg(), Seed, A.Mode);
          std::string Out =
              renderSliceReport(R, sliceKindName(A.Mode, false), A.Line, 0);
          double Us = double(nowNs() - T0) / 1e3;
          ComputeUs.push_back(Us);
          OverheadUs.push_back(Ms * 1000 - Us);
          Rn.L["slicer.slice_stmts"].push_back(R.sizeStmts());
        } else if (A.Kind == ReqKind::Batch && ReplayBatchMs.size() < 400) {
          // The daemon answers a batch with a request-local engine.
          SliceEngine Engine(*S->sdg(), nullptr);
          BatchOptions BO;
          BO.Mode = A.Mode;
          BO.Jobs = 1;
          int64_t T0 = nowNs();
          Engine.sliceBackwardBatch(
              seedsFor(*S->program(), Log.BatchLines[A.Line]), BO);
          ReplayBatchMs.push_back(nsToMs(nowNs() - T0));
          const BatchStats &BS = Engine.stats();
          Rn.L["slicer.batch_unique_ratio"].push_back(
              double(BS.UniqueQueries) / std::max(1u, BS.Queries));
          Rn.L["slicer.condensation_reuse_ratio"].push_back(
              BS.CondensationReused ? 1 : 0);
        }
        continue;
      }
      (A.Kind == ReqKind::Slice   ? SliceMs
       : A.Kind == ReqKind::Batch ? BatchMs
                                  : EditMs)
          .push_back(Ms);
    }
  }
  Rn.ctx("checked_answers", std::to_string(Checked));

  // Traced: replay each owner's edit stream in-process for the
  // pipeline's share of an edit.
  if (Rn.C.Trace) {
    for (unsigned I = 0; I != Progs.size(); ++I) {
      AnalysisSession S(Progs[I].Variants[0]);
      S.setThreads(1);
      S.setIncremental(true);
      S.sdg();
      const std::vector<Version> &H = History[I];
      for (std::size_t K = 1; K < H.size() && K <= 40; ++K) {
        Tracer::Scope Root(RefT, "replay.edit");
        {
          Tracer::Scope Sc(RefT, "pipeline.set_source");
          S.setSource(Progs[I].Variants[H[K].Variant]);
        }
        S.program();
        S.sdg();
      }
    }
    Rn.T.merge(RefT);
    for (ClientLog &Log : Logs)
      Rn.T.merge(Log.T);
    Rn.L["service.slice_compute_us"].push_back(median(ComputeUs));
    Rn.L["service.overhead_us"].push_back(median(OverheadUs));
    for (double Ms : ReplayBatchMs)
      Rn.L["slicer.ci_batch_ms"].push_back(Ms);
    LatencySummary P = summarize(PingUs, 990);
    Rn.L["service.ping_rtt_p50_us"].push_back(P.P50);
    Rn.L["service.ping_rtt_p99_us"].push_back(P.Tail);
    Rn.L["service.requests"].push_back(double(Requests));
    Rn.L["service.retry_ratio"].push_back(
        Requests ? double(Retries) / Requests : 0);
    Rn.L["service.bad_frames"].push_back(double(BadFrames));
    if (IncAttempts) {
      Rn.L["pipeline.incremental_applied_ratio"].push_back(
          double(IncApplied) / IncAttempts);
      Rn.L["lang.fn_recompiled"].push_back(double(Recompiled) / IncAttempts);
      Rn.L["lang.fn_reused"].push_back(double(Reused) / IncAttempts);
    }
    Rn.L["pipeline.cold_fallbacks"].push_back(double(ColdFb));
    Rn.L["pipeline.stage_fallbacks"].push_back(double(StageFb));
    Rn.L["pipeline.slice_hit_ratio"].push_back(
        SliceHits + SliceMisses ? double(SliceHits) / (SliceHits + SliceMisses)
                                : 0);
    for (std::size_t I = 0; I != Progs.size(); ++I) {
      AnalysisSession *S = Ref.session(I, 0);
      addPtaCounters(Rn.L, *S->pointsTo());
      addSizeCounters(Rn.L, Progs[I].P.Source, *S->sdg(), false);
    }
  }

  LatencySummary Sl = Rn.latency("daemon_slice", SliceMs, 990,
                                 /*Micros=*/true);
  LatencySummary Ba = summarize(BatchMs);
  LatencySummary Ed = summarize(EditMs);
  Rn.named("daemon_batch_p50_ms", Ba.P50, "ms", Ba.N);
  Rn.named("daemon_edit_p50_ms", Ed.P50, "ms", Ed.N);
  Rn.named("daemon_rps", double(Completed) / Secs, "1/s");
  Rn.E2E["p50_ms"] = Sl.P50;
  Rn.E2E["tail_ms"] = Sl.Tail;
  Rn.E2E["aux_p50_ms"] = Ba.P50;
  Rn.E2E["ops_per_s"] = double(Completed) / Secs;
  Rn.E2E["peak_rss_mb"] = DaemonRss;
}

//===----------------------------------------------------------------------===//
// The off-path probe (traced runs only)
//===----------------------------------------------------------------------===//

/// Every traced run reports every per-layer metric. A layer the
/// workload never reaches (CS slicing on cold_ci, the wire on
/// dev_session, ...) is measured by a short probe on a small program
/// after the timed loop, so no per-layer number is a placeholder. The
/// README's layer map says on which workload each metric is meant to
/// be read.
void probeMissingLayers(Run &Rn, std::vector<std::string> &Probed) {
  auto Missing = [&](const char *M) {
    auto It = Rn.L.find(M);
    return It == Rn.L.end() || It->second.empty();
  };
  Run Pr(Rn.C);
  Pr.T.setOn(true);
  bool Any = false;
  if (Missing("sdg.ci_build_ms") || Missing("slicer.ci_batch_ms") ||
      Missing("modref.ms")) {
    BenchProgram P = makeProgram(0, 4, CiQueries);
    ColdOp O = runColdOp(P, CiQueries, false, Rn.Threads, Pr.T);
    if (O.Ok) {
      addSizeCounters(Pr.L, P.Source, *O.S->sdg(), false);
      addPtaCounters(Pr.L, *O.S->pointsTo());
      const BatchStats &BS = O.S->engine()->stats();
      Pr.L["slicer.batch_unique_ratio"].push_back(
          double(BS.UniqueQueries) / std::max(1u, BS.Queries));
      Pr.L["slicer.condensation_reuse_ratio"].push_back(
          BS.CondensationReused ? 1 : 0);
    }
    Any = true;
  }
  if (Missing("sdg.cs_build_ms")) {
    BenchProgram P = makeProgram(0, CsPadMin, CsQueries);
    ColdOp O = runColdOp(P, CsQueries, true, Rn.Threads, Pr.T);
    if (O.Ok) {
      addSizeCounters(Pr.L, P.Source, *O.S->sdg(), true);
      const SummaryCache &SC = O.S->summaries();
      Pr.L["slicer.summary_cache_hit_ratio"].push_back(
          double(SC.hits()) / std::max<uint64_t>(1, SC.hits() + SC.misses()));
      TabulationSlicer Tab(*O.S->sdg(), SliceMode::Thin, nullptr,
                           &O.S->summaries());
      Pr.L["slicer.summary_edges"].push_back(Tab.numSummaryEdges());
    }
    Any = true;
  }
  if (Missing("pipeline.set_source_ms") ||
      Missing("pipeline.snapshot_save_ms")) {
    EditableProgram E(makeProgram(0, 4, 8));
    AnalysisSession S(E.source());
    S.setThreads(Rn.Threads);
    S.setIncremental(true);
    S.sdg();
    const std::string Path = Rn.C.WorkDir + "/probe.snapshot";
    for (unsigned K = 0; K != 5; ++K) {
      E.set(K % 4, K % PadMethods, MethodState{1 + K % 3, false});
      Tracer::Scope Root(Pr.T, "probe");
      {
        Tracer::Scope Sc(Pr.T, "pipeline.set_source");
        S.setSource(E.source());
      }
      S.sdg();
      {
        Tracer::Scope Sc(Pr.T, "pipeline.snapshot_save");
        S.saveSnapshot(Path);
      }
      {
        Tracer::Scope Sc(Pr.T, "pipeline.snapshot_load");
        AnalysisSession F(E.source());
        Pr.L["pipeline.snapshot_fallbacks"].push_back(
            F.loadSnapshot(Path).isOk() ? 0 : 1);
      }
    }
    // Each query twice through the session's memoized slices.
    for (unsigned Pass = 0; Pass != 2; ++Pass)
      for (unsigned Line : E.base().QueryLines)
        if (const Instr *Seed = seedAtLine(*S.program(), Line))
          S.sliceBackwardCached(Seed, SliceMode::Thin);
    for (const StageReport &SR : S.stageReports())
      if (SR.Stage == "slice" && SR.CacheHits + SR.CacheMisses)
        Pr.L["pipeline.slice_hit_ratio"].push_back(
            double(SR.CacheHits) / (SR.CacheHits + SR.CacheMisses));
    struct stat St;
    if (stat(Path.c_str(), &St) == 0)
      Pr.L["pipeline.snapshot_bytes"].push_back(double(St.st_size));
    unlink(Path.c_str());
    const AnalysisSession::IncrementalStats &IS = S.incrementalStats();
    Pr.L["pipeline.incremental_applied_ratio"].push_back(
        double(IS.Applied) / std::max<uint64_t>(1, IS.Attempts));
    Pr.L["pipeline.stage_fallbacks"].push_back(double(IS.StageFallbacks));
    Pr.L["pipeline.cold_fallbacks"].push_back(double(IS.ColdFallbacks));
    Pr.L["lang.fn_recompiled"].push_back(double(IS.FunctionsRecompiled) /
                                         std::max<uint64_t>(1, IS.Attempts));
    Pr.L["lang.fn_reused"].push_back(double(IS.FunctionsReused) /
                                     std::max<uint64_t>(1, IS.Attempts));
    Any = true;
  }
  if (Missing("service.ping_rtt_p50_us")) {
    DaemonProcess D;
    const std::string Socket = Rn.C.WorkDir + "/probe.sock";
    BenchProgram P = makeProgram(0, 4, 16);
    ServiceClient Cl;
    ServiceResponse Resp;
    if (D.start(Rn.C.DaemonBin, Socket).isOk() && Cl.connect(Socket).isOk() &&
        Cl.loadSource(P.Source, false, 0, false, Resp).isOk()) {
      const std::string Id = Resp.Body;
      AnalysisSession S(P.Source);
      S.sdg();
      std::vector<double> Ping, Rtt, Compute;
      for (unsigned K = 0; K != 200; ++K) {
        int64_t T0 = nowNs();
        if (Cl.ping(0, Resp).isOk())
          Ping.push_back(double(nowNs() - T0) / 1e3);
        unsigned Line = P.QueryLines[K % P.QueryLines.size()];
        T0 = nowNs();
        if (!Cl.slice(Id, Line, SliceMode::Thin, Resp).isOk())
          continue;
        Rtt.push_back(double(nowNs() - T0) / 1e3);
        T0 = nowNs();
        SliceResult R =
            sliceBackward(*S.sdg(), seedAtLine(*S.program(), Line),
                          SliceMode::Thin);
        renderSliceReport(R, "thin slice", Line, 0);
        Compute.push_back(double(nowNs() - T0) / 1e3);
      }
      if (Cl.stats(Id, Resp).isOk() && Resp.Code == ServiceStatus::Ok) {
        uint64_t Requests = serverField(Resp.Body, "requests");
        Pr.L["service.requests"].push_back(double(Requests));
        Pr.L["service.retry_ratio"].push_back(
            Requests ? double(serverField(Resp.Body, "retries")) / Requests
                     : 0);
        Pr.L["service.bad_frames"].push_back(
            double(serverField(Resp.Body, "bad frames")));
      }
      Cl.close();
      LatencySummary PS = summarize(Ping, 990);
      Pr.L["service.ping_rtt_p50_us"].push_back(PS.P50);
      Pr.L["service.ping_rtt_p99_us"].push_back(PS.Tail);
      Pr.L["service.slice_compute_us"].push_back(median(Compute));
      Pr.L["service.overhead_us"].push_back(median(Rtt) - median(Compute));
    }
    D.stop();
    Any = true;
  }
  if (!Any)
    return;
  harvestSpans(Pr, Pr.T);
  for (auto &[Name, V] : Pr.L)
    if (Missing(Name.c_str()) && !V.empty() &&
        Name != "trace.op_coverage_ratio") {
      Rn.L[Name] = V;
      Probed.push_back(Name);
    }
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

RunResult pb::runWorkload(const RunConfig &C) {
  Run Rn(C);
  Rn.ctx("workload", "\"" + C.Workload + "\"");
  Rn.ctx("seed", std::to_string(C.Seed));
  Rn.ctx("seconds", fmt(C.Seconds));
  Rn.ctx("trace", C.Trace ? "true" : "false");
  Rn.ctx("nproc", std::to_string(nproc()));
  Rn.ctx("hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency()));
  Rn.ctx("compiler", "\"" PERFBENCH_COMPILER "\"");
  Rn.ctx("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
  Rn.ctx("analysis_threads", std::to_string(Rn.Threads));

  if (C.Workload == "cold_ci")
    runCold(Rn, false);
  else if (C.Workload == "cold_cs")
    runCold(Rn, true);
  else if (C.Workload == "dev_session")
    runDevSession(Rn);
  else if (C.Workload == "daemon")
    runDaemon(Rn);
  else
    throw std::runtime_error("unknown workload '" + C.Workload + "'");

  RunResult Out;
  Out.Ops = Rn.Ops;
  Out.Correct = Rn.Ops.Wrong == 0;
  Rn.E2E["setup_s"] = median(atReferenceSpeed(Rn.Speed, Rn.SetupMs)) / 1000;
  Rn.named("setup_s", Rn.E2E["setup_s"], "s", Rn.SetupMs.size());
  if (Rn.Speed.samples()) {
    Rn.named("host_kernel_p50_ms", Rn.Speed.medianMs(), "ms",
             Rn.Speed.samples());
    Rn.ctx("host_speed", fmt(ReferenceKernelMs / Rn.Speed.medianMs()));
  }
  Rn.named("peak_rss_mb", Rn.E2E["peak_rss_mb"], "MB");
  Rn.named("failed_ratio", Rn.Ops.failedRatio(), "ratio", Rn.Ops.Attempted);

  if (C.Trace) {
    harvestSpans(Rn, Rn.T);
    double Untraced = Rn.E2E["p50_ms"],
           Traced = median(atReferenceSpeed(Rn.Speed, Rn.TracedMs));
    Rn.L["trace.overhead_ratio"].push_back(
        Untraced > 0 ? (Traced - Untraced) / Untraced : 0);
    Rn.Report.push_back("  tracing overhead: op p50 " + fmt(Traced) +
                        " ms traced vs " + fmt(Untraced) + " ms untraced");
    std::vector<std::string> Probed;
    probeMissingLayers(Rn, Probed);
    for (const MetricDef &D : layerMetrics()) {
      auto It = Rn.L.find(D.Name);
      double V = It == Rn.L.end() ? 0 : median(It->second);
      Out.Metrics[D.Name] = V;
      bool FromProbe =
          std::find(Probed.begin(), Probed.end(), D.Name) != Probed.end();
      Rn.Report.push_back("  " + std::string(D.Name) + " = " + fmt(V) + " " +
                          D.Unit + (FromProbe ? "  [probe]" : ""));
    }
    std::string Path =
        C.WorkDir + "/trace-" + C.Workload + "-" + std::to_string(C.Seed) +
        ".json";
    std::string Ctx = "{";
    for (std::size_t I = 0; I != Rn.Context.size(); ++I)
      Ctx += (I ? ", " : "") + Rn.Context[I];
    Ctx += "}";
    if (writeSpansJson(Rn.T.spans(), Ctx, Path))
      Rn.Report.push_back("  spans written to " + Path);
  } else {
    for (const MetricDef &D : endToEndMetrics())
      Out.Metrics[D.Name] = Rn.E2E[D.Name];
  }

  for (const std::string &E : Rn.Errors)
    Rn.Report.push_back("  error: " + E);
  Out.Report = std::move(Rn.Report);
  Out.ContextJson = "{";
  for (std::size_t I = 0; I != Rn.Context.size(); ++I)
    Out.ContextJson += (I ? ", " : "") + Rn.Context[I];
  Out.ContextJson += "}";
  return Out;
}

void pb::writeExpectedDigests(const std::string &Path) {
  ExpectedDigests Out;
  Tracer Off;
  const unsigned Threads = analysisThreads();
  std::vector<unsigned> CiPads;
  for (unsigned Pad = CiPadMin; Pad <= CiPadMax; ++Pad)
    CiPads.push_back(Pad);
  const std::vector<unsigned> CsPads(std::begin(CsQuarterPads),
                                     std::end(CsQuarterPads));
  for (bool CS : {false, true})
    for (unsigned M = 0; M != numModels(); ++M)
      for (unsigned Pad : CS ? CsPads : CiPads) {
        BenchProgram P = makeProgram(M, Pad, CS ? CsQueries : CiQueries);
        ColdOp O = runColdOp(P, CS ? CsQueries : CiQueries, CS, Threads, Off);
        if (!O.Ok)
          throw std::runtime_error(P.Name + ": " + O.Error);
        Out.set(CS ? "cs" : "ci", modelName(M), Pad,
                batchDigest(O.Cold, O.Lines, SliceMode::Thin, CS));
      }
  if (!Out.save(Path))
    throw std::runtime_error("cannot write " + Path);
}

//===----------------------------------------------------------------------===//
// Self-test surface
//===----------------------------------------------------------------------===//

Outcome pb::classifyResponse(const Status &Transport,
                             const ServiceResponse &Resp) {
  if (!Transport.isOk())
    return Outcome::Transport;
  if (Resp.Code == ServiceStatus::Retry)
    return Outcome::Retry;
  if (Resp.Code != ServiceStatus::Ok)
    return Outcome::NonOk;
  return Outcome::Ok;
}

namespace {
std::string digestKey(const std::string &Route, const std::string &Model,
                      unsigned Pad) {
  return Route + " " + Model + " " + std::to_string(Pad);
}
} // namespace

bool ExpectedDigests::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Route, Model, Hex;
    unsigned Pad;
    if (!(SS >> Route >> Model >> Pad >> Hex) || Hex.size() != 16)
      return false;
    Map[digestKey(Route, Model, Pad)] = std::strtoull(Hex.c_str(), nullptr, 16);
  }
  return !Map.empty();
}

void ExpectedDigests::set(const std::string &Route, const std::string &Model,
                          unsigned Pad, uint64_t Digest) {
  Map[digestKey(Route, Model, Pad)] = Digest;
}

Outcome ExpectedDigests::check(const std::string &Route,
                               const std::string &Model, unsigned Pad,
                               uint64_t Actual) const {
  auto It = Map.find(digestKey(Route, Model, Pad));
  return It != Map.end() && It->second == Actual ? Outcome::Ok
                                                 : Outcome::Wrong;
}

bool ExpectedDigests::save(const std::string &Path) const {
  std::ofstream Out(Path);
  Out << "# Expected answer digests: <route> <model> <pad> <fnv64>.\n"
         "# Regenerate with: perfbench --write-expected <this file>\n";
  for (const auto &[Key, D] : Map)
    Out << Key << " " << hex64(D) << "\n";
  return static_cast<bool>(Out);
}

DaemonProcess::~DaemonProcess() { stop(); }

Status DaemonProcess::start(const std::string &Bin, const std::string &Sock,
                            const std::vector<std::string> &ExtraArgs) {
  stop();
  Socket = Sock;
  PeakRssMb = 0;
  std::vector<std::string> Args = {Bin, "--socket", Sock};
  Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0)
    return Status(StatusCode::Internal, "pipe failed");
  Pid = fork();
  if (Pid < 0) {
    close(Pipe[0]);
    close(Pipe[1]);
    return Status(StatusCode::Internal, "fork failed");
  }
  if (Pid == 0) {
    dup2(Pipe[1], STDOUT_FILENO);
    execv(Argv[0], Argv.data());
    _exit(127);
  }
  close(Pipe[1]);
  // Wait (bounded) for the readiness line.
  std::string Got;
  const int64_t Deadline = nowNs() + 20'000'000'000LL;
  while (Got.find('\n') == std::string::npos && nowNs() < Deadline) {
    pollfd P{Pipe[0], POLLIN, 0};
    if (poll(&P, 1, 200) <= 0)
      continue;
    char Buf[256];
    ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Got.append(Buf, N);
  }
  close(Pipe[0]);
  if (Got.find("listening") == std::string::npos) {
    stop();
    return Status(StatusCode::Internal,
                         "daemon did not report readiness: " + Got);
  }
  return Status::ok();
}

double DaemonProcess::stop() {
  if (Pid <= 0)
    return PeakRssMb;
  kill(Pid, SIGTERM);
  int St = 0;
  rusage RU{};
  const int64_t Deadline = nowNs() + 5'000'000'000LL;
  pid_t R = 0;
  while ((R = wait4(Pid, &St, WNOHANG, &RU)) == 0 && nowNs() < Deadline)
    usleep(2000);
  if (R == 0) {
    kill(Pid, SIGKILL);
    while ((R = wait4(Pid, &St, 0, &RU)) < 0 && errno == EINTR) {
    }
  }
  PeakRssMb = RU.ru_maxrss / 1024.0;
  Pid = -1;
  unlink(Socket.c_str());
  return PeakRssMb;
}
