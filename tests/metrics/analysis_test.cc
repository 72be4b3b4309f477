#include "metrics/analysis.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.h"
#include "metrics/table.h"
#include "sim/simulation.h"
#include "stream_reference.h"

namespace mmrfd::metrics {
namespace {

// Builds a log by hand, advancing a private simulation's clock via events.
class LogBuilder {
 public:
  LogBuilder() : log_(sim_) {}

  LogBuilder& at(TimePoint t) {
    sim_.schedule_at(t, [] {});
    sim_.run_until(t);
    return *this;
  }
  LogBuilder& suspect(std::uint32_t obs, std::uint32_t subj) {
    log_.record(ProcessId{obs}, ProcessId{subj},
                SuspicionEventKind::kSuspected, 0);
    return *this;
  }
  LogBuilder& clear(std::uint32_t obs, std::uint32_t subj) {
    log_.record(ProcessId{obs}, ProcessId{subj}, SuspicionEventKind::kCleared,
                0);
    return *this;
  }
  LogBuilder& crash(std::uint32_t subj) {
    log_.record_crash(ProcessId{subj});
    return *this;
  }
  EventLog& log() { return log_; }

 private:
  sim::Simulation sim_;
  EventLog log_;
};

TEST(Analysis, CorrectAndFaultySets) {
  LogBuilder b;
  b.at(from_seconds(1)).crash(2);
  Analysis a(b.log(), 4, from_seconds(10));
  EXPECT_EQ(a.faulty(), std::vector<ProcessId>{ProcessId{2}});
  EXPECT_EQ(a.correct(),
            (std::vector<ProcessId>{ProcessId{0}, ProcessId{1}, ProcessId{3}}));
}

TEST(Analysis, DetectionLatencyFromFinalSuspicion) {
  LogBuilder b;
  // p1 falsely suspects p2 early, clears it, then p2 crashes and is
  // permanently suspected: detection time counts from the *final* interval.
  b.at(from_seconds(1)).suspect(1, 2);
  b.at(from_seconds(2)).clear(1, 2);
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(7)).suspect(1, 2);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto ds = a.detections();
  ASSERT_EQ(ds.size(), 2u);  // observers p0 (never detects) and p1
  const auto& d1 = ds[0].observer == ProcessId{1} ? ds[0] : ds[1];
  const auto& d0 = ds[0].observer == ProcessId{0} ? ds[0] : ds[1];
  ASSERT_TRUE(d1.latency().has_value());
  EXPECT_EQ(*d1.latency(), from_seconds(2));
  EXPECT_FALSE(d0.latency().has_value());
}

TEST(Analysis, CrashSummaryCompleteness) {
  LogBuilder b;
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(6)).suspect(0, 2);
  b.at(from_seconds(8)).suspect(1, 2);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto ss = a.crash_summaries();
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_EQ(ss[0].observers, 2u);
  EXPECT_EQ(ss[0].detected_by, 2u);
  ASSERT_TRUE(ss[0].completeness_latency.has_value());
  EXPECT_EQ(*ss[0].completeness_latency, from_seconds(3));
  EXPECT_TRUE(a.strong_completeness());
}

TEST(Analysis, IncompleteDetectionBreaksCompleteness) {
  LogBuilder b;
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(6)).suspect(0, 2);  // p1 never suspects
  Analysis a(b.log(), 3, from_seconds(10));
  EXPECT_FALSE(a.strong_completeness());
}

TEST(Analysis, FalseSuspicionsOnlyCountCorrectPairs) {
  LogBuilder b;
  b.at(from_seconds(1)).crash(3);
  b.at(from_seconds(2)).suspect(0, 3);  // subject faulty: not false
  b.at(from_seconds(3)).suspect(0, 1);  // false
  b.at(from_seconds(4)).clear(0, 1);
  Analysis a(b.log(), 4, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].observer, ProcessId{0});
  EXPECT_EQ(fs[0].subject, ProcessId{1});
  ASSERT_TRUE(fs[0].cleared_at.has_value());
  EXPECT_EQ(*fs[0].cleared_at, from_seconds(4));
}

TEST(Analysis, UnclearedFalseSuspicionReported) {
  LogBuilder b;
  b.at(from_seconds(3)).suspect(0, 1);
  Analysis a(b.log(), 2, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_FALSE(fs[0].cleared_at.has_value());
  // p1 is stuck-suspected, but p0 itself is never suspected, so eventual
  // weak accuracy still stabilizes (witness p0, from time zero).
  const auto t = a.accuracy_stabilization();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, kTimeZero);
}

TEST(Analysis, AccuracyStabilizationPicksCleanProcess) {
  LogBuilder b;
  b.at(from_seconds(3)).suspect(0, 1);
  b.at(from_seconds(6)).clear(0, 1);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto t = a.accuracy_stabilization();
  ASSERT_TRUE(t.has_value());
  // p0 and p2 are never suspected: stabilization at time zero.
  EXPECT_EQ(*t, kTimeZero);
}

TEST(Analysis, FalseSuspicionSeriesStepsUpAndDown) {
  LogBuilder b;
  b.at(from_seconds(1)).suspect(0, 1).suspect(2, 1);
  b.at(from_seconds(2)).clear(0, 1);
  b.at(from_seconds(3)).clear(2, 1);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto series = false_suspicion_series(a.false_suspicions());
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].active, 2);
  EXPECT_EQ(series[1].active, 1);
  EXPECT_EQ(series[2].active, 0);
}

TEST(Analysis, RepeatedSuspicionKeepsTheIntervalStart) {
  LogBuilder b;
  // p1 suspects p2 before the crash and again after it with no clear in
  // between: the interval opened at t=1 is the one still open, so the
  // detection starts there and clamps to zero latency.
  b.at(from_seconds(1)).suspect(1, 2);
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(7)).suspect(1, 2);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto ds = a.detections();
  ASSERT_EQ(ds.size(), 2u);
  const auto& d1 = ds[0].observer == ProcessId{1} ? ds[0] : ds[1];
  ASSERT_TRUE(d1.detected_at.has_value());
  EXPECT_EQ(*d1.detected_at, from_seconds(1));
  const auto ss = a.crash_summaries();
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_EQ(ss[0].detected_by, 1u);
  EXPECT_EQ(ss[0].latencies.samples(), std::vector<double>{0.0});
}

TEST(Analysis, FalseSuspicionsMatchReferenceScanOnRandomLogs) {
  // Coarse timestamps put many intervals on one start time, so the output
  // order among ties is checked too; ids >= n, repeated suspicions, clears
  // of closed pairs and repeated crashes of one id are all in the mix.
  constexpr std::uint32_t kN = 7;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    LogBuilder b;
    for (int step = 1; step <= 400; ++step) {
      b.at(from_millis(static_cast<double>(step / 8)));
      const auto obs = static_cast<std::uint32_t>(rng.next_below(kN + 1));
      const auto subj = static_cast<std::uint32_t>(rng.next_below(kN + 1));
      const std::uint64_t r = rng.next_below(100);
      if (r < 55) {
        b.suspect(obs, subj);
      } else if (r < 98) {
        b.clear(obs, subj);
      } else {
        b.crash(subj);
      }
    }
    const Analysis a(b.log(), kN, from_seconds(1));
    const auto got = a.false_suspicions();
    const auto want = testing::reference_false_suspicions(b.log(), kN);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].observer, want[i].observer) << i;
      EXPECT_EQ(got[i].subject, want[i].subject) << i;
      EXPECT_EQ(got[i].suspected_at, want[i].suspected_at) << i;
      EXPECT_EQ(got[i].cleared_at, want[i].cleared_at) << i;
    }
    EXPECT_EQ(a.full_accuracy_stabilization(),
              testing::reference_full_accuracy_stabilization(want));
    EXPECT_EQ(a.accuracy_stabilization(),
              testing::reference_accuracy_stabilization(want, a.correct()));

    const auto dets = a.detections();
    const auto want_dets = testing::reference_detections(b.log(), kN);
    ASSERT_EQ(dets.size(), want_dets.size());
    for (std::size_t i = 0; i < dets.size(); ++i) {
      EXPECT_EQ(dets[i].observer, want_dets[i].observer) << i;
      EXPECT_EQ(dets[i].subject, want_dets[i].subject) << i;
      EXPECT_EQ(dets[i].crash_at, want_dets[i].crash_at) << i;
      EXPECT_EQ(dets[i].detected_at, want_dets[i].detected_at) << i;
    }
    const auto sums = a.crash_summaries();
    const auto want_sums = testing::reference_crash_summaries(b.log(), kN);
    ASSERT_EQ(sums.size(), want_sums.size());
    for (std::size_t i = 0; i < sums.size(); ++i) {
      EXPECT_EQ(sums[i].subject, want_sums[i].subject) << i;
      EXPECT_EQ(sums[i].crash_at, want_sums[i].crash_at) << i;
      EXPECT_EQ(sums[i].observers, want_sums[i].observers) << i;
      EXPECT_EQ(sums[i].detected_by, want_sums[i].detected_by) << i;
      EXPECT_EQ(sums[i].latencies.samples(), want_sums[i].latencies.samples())
          << i;
      EXPECT_EQ(sums[i].completeness_latency,
                want_sums[i].completeness_latency)
          << i;
    }
    EXPECT_EQ(a.strong_completeness(),
              testing::reference_strong_completeness(b.log(), kN));
  }
}

TEST(Table, AlignedOutputContainsHeadersAndCells) {
  Table t({"n", "detector", "latency"});
  t.add_row({"10", "mmr", Table::num(1.234, 2)});
  t.add_row({"100", "heartbeat", Table::num(2.0, 2)});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("detector"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
  EXPECT_NE(text.find("heartbeat"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace mmrfd::metrics
