#include "metrics/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "metrics/table.h"
#include "sim/simulation.h"

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
  const auto series = a.false_suspicion_series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].active, 2);
  EXPECT_EQ(series[1].active, 1);
  EXPECT_EQ(series[2].active, 0);
}

// The std::map interval scan false_suspicions() used before it moved to a
// hash keyed on (observer, subject): closed intervals in log order, then the
// still-open ones in (observer, subject) order, then the same sort.
std::vector<FalseSuspicion> reference_false_suspicions(const EventLog& log,
                                                       const Analysis& a) {
  const auto correct = a.correct();
  const auto is_correct = [&](ProcessId id) {
    return std::binary_search(correct.begin(), correct.end(), id);
  };
  std::vector<FalseSuspicion> out;
  std::map<std::pair<std::uint32_t, std::uint32_t>, TimePoint> open;
  for (const auto& e : log.events()) {
    if (!is_correct(e.subject) || !is_correct(e.observer)) continue;
    const auto key = std::make_pair(e.observer.value, e.subject.value);
    if (e.kind == SuspicionEventKind::kSuspected) {
      open.emplace(key, e.when);
    } else if (auto it = open.find(key); it != open.end()) {
      out.push_back(FalseSuspicion{e.observer, e.subject, it->second, e.when});
      open.erase(it);
    }
  }
  for (const auto& [key, start] : open) {
    out.push_back(FalseSuspicion{ProcessId{key.first}, ProcessId{key.second},
                                 start, std::nullopt});
  }
  std::sort(out.begin(), out.end(),
            [](const FalseSuspicion& a, const FalseSuspicion& b) {
              return a.suspected_at < b.suspected_at;
            });
  return out;
}

TEST(Analysis, FalseSuspicionsMatchReferenceScanOnRandomLogs) {
  // Coarse timestamps put many intervals on one start time, so the output
  // order among ties is checked too; ids >= n, repeated suspicions and
  // clears of closed pairs are all in the mix.
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
    const auto want = reference_false_suspicions(b.log(), a);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].observer, want[i].observer) << i;
      EXPECT_EQ(got[i].subject, want[i].subject) << i;
      EXPECT_EQ(got[i].suspected_at, want[i].suspected_at) << i;
      EXPECT_EQ(got[i].cleared_at, want[i].cleared_at) << i;
    }
    // The stabilization instants, derived from the reference list.
    std::optional<TimePoint> full = kTimeZero;
    for (const auto& fs : want) {
      if (!fs.cleared_at) {
        full.reset();
        break;
      }
      full = std::max(*full, *fs.cleared_at);
    }
    EXPECT_EQ(a.full_accuracy_stabilization(), full);
    std::optional<TimePoint> weak;
    for (ProcessId p : a.correct()) {
      TimePoint last = kTimeZero;
      bool open = false;
      for (const auto& fs : want) {
        if (fs.subject != p) continue;
        if (!fs.cleared_at) {
          open = true;
        } else {
          last = std::max(last, *fs.cleared_at);
        }
      }
      if (!open && (!weak || last < *weak)) weak = last;
    }
    EXPECT_EQ(a.accuracy_stabilization(), weak);
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
