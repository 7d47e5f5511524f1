//===-- main.cpp - perfbench load generator -------------------------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
// One load-generating process per run:
//
//   perfbench --workload cold_ci|cold_cs|daemon|dev_session --seed N
//             --seconds S --trace 0|1 --daemon-bin PATH --expected FILE
//             --workdir DIR
//   perfbench --write-expected FILE
//
// Prints the workload's named metrics with units, a context line, and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1), and appends the same line with the run context
// to <workdir>/results.jsonl. perfbench/run.py builds this binary and
// runs it.
//
// Exit codes: 0 result printed, 1 the run could not proceed, 2 usage
// error or a non-optimized build.
//
//===----------------------------------------------------------------------===//

#include "harness/Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

using namespace pb;

namespace {

void usage() {
  fprintf(stderr,
          "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
          "                 --daemon-bin PATH --expected FILE --workdir DIR\n"
          "       perfbench --write-expected FILE\n"
          "workloads: cold_ci cold_cs daemon dev_session\n");
}

bool parseNumber(const char *V, double &Out) {
  if (!V || !*V)
    return false;
  char *End = nullptr;
  Out = strtod(V, &End);
  return End && *End == '\0';
}

int run(int argc, char **argv) {
  RunConfig C;
  std::string WriteExpected;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    double N = 0;
    if (Arg == "--write-expected" && V) {
      WriteExpected = V;
    } else if (Arg == "--workload" && V) {
      C.Workload = V;
    } else if (Arg == "--seed" && parseNumber(V, N) && N >= 0) {
      C.Seed = static_cast<uint64_t>(N);
    } else if (Arg == "--seconds" && parseNumber(V, N) && N > 0 && N <= 120) {
      C.Seconds = N;
    } else if (Arg == "--trace" && V &&
               (!strcmp(V, "0") || !strcmp(V, "1"))) {
      C.Trace = V[0] == '1';
    } else if (Arg == "--daemon-bin" && V) {
      C.DaemonBin = V;
    } else if (Arg == "--expected" && V) {
      C.ExpectedPath = V;
    } else if (Arg == "--workdir" && V) {
      C.WorkDir = V;
    } else {
      fprintf(stderr, "error: bad argument '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
    ++I;
  }

  // Timings from an unoptimized tree are not comparable with anything
  // (the rule bench/BenchGuard.h enforces for the BENCH_*.json files).
#ifndef NDEBUG
  fprintf(stderr, "error: refusing to record from a Debug build (assertions "
                  "on); rebuild with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (!strcmp(PERFBENCH_BUILD_TYPE, "Debug")) {
    fprintf(stderr, "error: refusing to record from a Debug build\n");
    return 2;
  }

  if (!WriteExpected.empty()) {
    writeExpectedDigests(WriteExpected);
    printf("wrote %s\n", WriteExpected.c_str());
    return 0;
  }
  if (C.Workload.empty() || C.DaemonBin.empty() || C.ExpectedPath.empty() ||
      C.WorkDir.empty()) {
    usage();
    return 2;
  }

  RunResult R = runWorkload(C);
  printf("workload %s (seed %llu, %s):\n", C.Workload.c_str(),
         static_cast<unsigned long long>(C.Seed),
         C.Trace ? "traced" : "untraced");
  for (const std::string &L : R.Report)
    printf("%s\n", L.c_str());
  printf("context %s\n", R.ContextJson.c_str());

  const std::vector<MetricDef> &Defs =
      C.Trace ? layerMetrics() : endToEndMetrics();
  if (!R.Ops.Attempted) {
    fprintf(stderr, "error: no op was attempted\n");
    return 1;
  }
  for (const MetricDef &D : Defs)
    if (!std::isfinite(R.Metrics.at(D.Name))) {
      fprintf(stderr, "error: metric %s is not a number\n", D.Name);
      return 1;
    }
  std::string Json = "{\"correct\": " + std::string(R.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Ops.Attempted) +
                     ", \"failed\": " + std::to_string(R.Ops.failed()) +
                     ", \"metrics\": {";
  for (std::size_t I = 0; I != Defs.size(); ++I) {
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.17g", R.Metrics.at(Defs[I].Name));
    Json += (I ? ", \"" : "\"") + std::string(Defs[I].Name) +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + Defs[I].Unit +
            "\"}";
  }
  Json += "}}";
  // Every result is kept with its run context, one JSON line per run.
  if (FILE *Log = fopen((C.WorkDir + "/results.jsonl").c_str(), "a")) {
    fprintf(Log, "{\"context\": %s, \"result\": %s}\n",
            R.ContextJson.c_str(), Json.c_str());
    fclose(Log);
  }
  printf("%s\n", Json.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception &E) {
    fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
