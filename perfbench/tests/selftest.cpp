//===-- selftest.cpp - Self-tests of the benchmark's own rules ------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
// Run from the benchmark build directory (the daemon test puts its
// socket in the working directory):
//
//   python3 perfbench/run.py --self-test
//
//===----------------------------------------------------------------------===//

#include "harness/HostSpeed.h"
#include "harness/Stats.h"
#include "harness/Workloads.h"

#include "service/Client.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

using namespace pb;

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 900), 10u);
  EXPECT_EQ(samplesBeyond(99, 900), 9u);
  EXPECT_EQ(tailPerMille(10), 500u);
  EXPECT_EQ(tailPerMille(99), 500u);
  EXPECT_EQ(tailPerMille(100), 900u);
  EXPECT_EQ(tailPerMille(999), 900u);
  EXPECT_EQ(tailPerMille(1000), 990u);
  EXPECT_EQ(tailPerMille(9999), 990u);
  EXPECT_EQ(tailPerMille(10000), 999u);
  // A workload's cap stops the ladder at the tail it names.
  EXPECT_EQ(tailPerMille(10000, 990), 990u);
  EXPECT_EQ(tailPerMille(10000, 900), 900u);
  EXPECT_EQ(tailPerMille(999, 990), 900u);
  EXPECT_EQ(tailPerMille(99, 900), 500u);
}

TEST(TailRule, SummaryUsesNearestRank) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  LatencySummary S = summarize(V);
  EXPECT_EQ(S.N, 100u);
  EXPECT_DOUBLE_EQ(S.P50, 50.5);
  EXPECT_EQ(S.tailName(), "p90");
  EXPECT_DOUBLE_EQ(S.Tail, 90);

  LatencySummary Few = summarize({3, 1, 2});
  EXPECT_EQ(Few.tailName(), "p50");
  EXPECT_DOUBLE_EQ(Few.Tail, Few.P50);
}

TEST(HostSpeed, ScalesByTheNearestKernelSamples) {
  HostSpeed H;
  EXPECT_DOUBLE_EQ(H.scaleAt(0), 1); // No samples: times stay as measured.
  // Thirty samples at reference speed, then thirty at half of it.
  for (int64_t I = 0; I != 60; ++I)
    H.record(I * 100, I < 30 ? ReferenceKernelMs : 2 * ReferenceKernelMs);
  EXPECT_DOUBLE_EQ(H.scaleAt(500), 1);
  EXPECT_DOUBLE_EQ(H.scaleAt(5500), 0.5);
  // Before the first and after the last sample, the window shifts
  // inward instead of shrinking.
  EXPECT_DOUBLE_EQ(H.scaleAt(-1000), 1);
  EXPECT_DOUBLE_EQ(H.scaleAt(99999), 0.5);
  // A lone slow sample does not move the median of its window.
  H.record(6000, 100 * ReferenceKernelMs);
  EXPECT_DOUBLE_EQ(H.scaleAt(5000), 0.5);

  std::vector<double> Ms =
      atReferenceSpeed(H, {TimedMs{500, 10}, TimedMs{5500, 10}});
  EXPECT_DOUBLE_EQ(Ms[0], 10);
  EXPECT_DOUBLE_EQ(Ms[1], 5);
}

TEST(FailedRatio, ForcedRetryCountsAsFailure) {
  // One slot of admission: a delayed ping holds it, so a second
  // request arriving meanwhile must be refused with RETRY.
  DaemonProcess D;
  ASSERT_TRUE(D.start(PERFBENCH_DAEMON_BIN, "selftest.sock",
                      {"--max-queue", "1", "--threads", "2"})
                  .isOk());
  tsl::ServiceClient Slow, Fast;
  ASSERT_TRUE(Slow.connect("selftest.sock").isOk());
  ASSERT_TRUE(Fast.connect("selftest.sock").isOk());

  tsl::ServiceResponse SlowResp, FastResp;
  tsl::Status SlowSt;
  std::thread Holder([&] { SlowSt = Slow.ping(1500, SlowResp); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  tsl::Status FastSt = Fast.ping(0, FastResp);
  Holder.join();

  Tally T;
  T.record(classifyResponse(SlowSt, SlowResp));
  T.record(classifyResponse(FastSt, FastResp));
  EXPECT_EQ(FastResp.Code, tsl::ServiceStatus::Retry);
  EXPECT_EQ(T.Attempted, 2u);
  EXPECT_EQ(T.Retries, 1u);
  EXPECT_DOUBLE_EQ(T.failedRatio(), 0.5);
  D.stop();
}

TEST(FailedRatio, TransportErrorCountsAsFailure) {
  tsl::ServiceClient C;
  tsl::ServiceResponse Resp;
  tsl::Status St = C.ping(0, Resp); // never connected
  Tally T;
  T.record(classifyResponse(St, Resp));
  EXPECT_EQ(T.failed(), 1u);
}

TEST(FailedRatio, CorruptedExpectedDigestCountsAsWrong) {
  ExpectedDigests Real;
  ASSERT_TRUE(Real.load(PERFBENCH_EXPECTED));

  // Flip the last hex digit of every stored digest.
  const std::string Corrupted = "corrupted-digests.txt";
  {
    std::ifstream In(PERFBENCH_EXPECTED);
    std::stringstream Text;
    Text << In.rdbuf();
    std::string S = Text.str();
    for (std::size_t Pos = S.find('\n'); Pos != std::string::npos;
         Pos = S.find('\n', Pos + 1))
      if (Pos && std::isxdigit(static_cast<unsigned char>(S[Pos - 1])))
        S[Pos - 1] = S[Pos - 1] == '0' ? '1' : '0';
    std::ofstream(Corrupted) << S;
  }

  RunConfig C{.Workload = "cold_ci",
              .Seed = 1,
              .Seconds = 0.3,
              .DaemonBin = PERFBENCH_DAEMON_BIN,
              .ExpectedPath = PERFBENCH_EXPECTED,
              .WorkDir = "."};
  RunResult Good = runWorkload(C);
  EXPECT_TRUE(Good.Correct);
  EXPECT_GT(Good.Ops.Attempted, 0u);
  EXPECT_EQ(Good.Ops.failed(), 0u);

  C.ExpectedPath = Corrupted;
  RunResult Bad = runWorkload(C);
  EXPECT_FALSE(Bad.Correct);
  EXPECT_GT(Bad.Ops.Attempted, 0u);
  EXPECT_EQ(Bad.Ops.Wrong, Bad.Ops.Attempted);
  EXPECT_DOUBLE_EQ(Bad.Ops.failedRatio(), 1.0);
}
