// EventLog retention modes: the per-pair rollup state machine, its
// agreement with the full-stream reference scans on a real cluster run,
// Analysis giving the same answers over either mode, and the memory bound
// that justifies rollup mode at n = 10,000.
#include "metrics/event_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "metrics/analysis.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "sim/simulation.h"
#include "stream_reference.h"

namespace mmrfd::metrics {
namespace {

// Builds a log by hand, advancing a private simulation's clock via events.
class LogBuilder {
 public:
  explicit LogBuilder(LogMode mode = LogMode::kFull) : log_(sim_, mode) {}

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
  LogBuilder& mistake(std::uint32_t obs, std::uint32_t subj) {
    log_.record(ProcessId{obs}, ProcessId{subj}, SuspicionEventKind::kMistake,
                0);
    return *this;
  }
  EventLog& log() { return log_; }

 private:
  sim::Simulation sim_;
  EventLog log_;
};

TEST(EventLogRollup, TracksEpisodesAndFinalInterval) {
  LogBuilder b(LogMode::kRollup);
  // Two suspicion episodes of (0, 1): the first repaired at t=2, the second
  // open at the end; one mistake entry along the way.
  b.at(from_seconds(1)).suspect(0, 1);
  b.at(from_seconds(2)).clear(0, 1).mistake(0, 1);
  b.at(from_seconds(5)).suspect(0, 1);

  const auto pairs = b.log().rollup();
  ASSERT_EQ(pairs.size(), 1u);
  const auto& p = pairs[0];
  EXPECT_TRUE(p.open);
  EXPECT_EQ(p.open_since, from_seconds(5));
  EXPECT_EQ(p.last_clear, from_seconds(2));
  EXPECT_EQ(p.episodes, 2u);
  EXPECT_EQ(p.mistakes, 1u);
}

TEST(EventLogRollup, RedundantTransitionsDoNotInflateEpisodes) {
  LogBuilder b(LogMode::kRollup);
  // Double-suspect keeps the original open_since; clear without an open
  // interval is a no-op (mirrors Analysis, which only closes open ones).
  b.at(from_seconds(1)).clear(0, 1);
  b.at(from_seconds(2)).suspect(0, 1);
  b.at(from_seconds(3)).suspect(0, 1);

  const auto pairs = b.log().rollup();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].episodes, 1u);
  EXPECT_EQ(pairs[0].open_since, from_seconds(2));
  EXPECT_EQ(pairs[0].last_clear, kTimeZero);
}

TEST(EventLogRollup, SortedByObserverThenSubject) {
  LogBuilder b(LogMode::kRollup);
  b.at(from_seconds(1)).suspect(2, 0).suspect(0, 2).suspect(0, 1);
  const auto pairs = b.log().rollup();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].observer, ProcessId{0});
  EXPECT_EQ(pairs[0].subject, ProcessId{1});
  EXPECT_EQ(pairs[1].observer, ProcessId{0});
  EXPECT_EQ(pairs[1].subject, ProcessId{2});
  EXPECT_EQ(pairs[2].observer, ProcessId{2});
  EXPECT_EQ(pairs[2].subject, ProcessId{0});
}

TEST(EventLogRollup, FullModeMaintainsTheSamePairState) {
  // The rollup is mode-independent: a full-mode log must produce the exact
  // pair summaries a rollup-mode log does for the same transition stream.
  auto feed = [](LogBuilder& b) {
    b.at(from_seconds(1)).suspect(0, 1).suspect(1, 0);
    b.at(from_seconds(2)).clear(0, 1);
    b.at(from_seconds(4)).suspect(0, 1).mistake(1, 0);
  };
  LogBuilder full(LogMode::kFull);
  LogBuilder rolled(LogMode::kRollup);
  feed(full);
  feed(rolled);

  const auto a = full.log().rollup();
  const auto r = rolled.log().rollup();
  ASSERT_EQ(a.size(), r.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].observer, r[i].observer);
    EXPECT_EQ(a[i].subject, r[i].subject);
    EXPECT_EQ(a[i].open, r[i].open);
    EXPECT_EQ(a[i].open_since, r[i].open_since);
    EXPECT_EQ(a[i].last_clear, r[i].last_clear);
    EXPECT_EQ(a[i].episodes, r[i].episodes);
    EXPECT_EQ(a[i].mistakes, r[i].mistakes);
  }
  // But only full mode retains the stream itself.
  EXPECT_EQ(full.log().events().size(), 5u);
  EXPECT_TRUE(rolled.log().events().empty());
  EXPECT_EQ(full.log().entries(), 5u);
  EXPECT_EQ(rolled.log().entries(), r.size());
}

// A spike plus crashes: wrongful-suspicion churn and real detections.
runtime::MmrClusterConfig spike_config() {
  runtime::MmrClusterConfig cfg;
  cfg.n = 30;
  cfg.f = 7;
  cfg.seed = 7;
  cfg.pacing = from_millis(1000);
  cfg.pacing_jitter = 0.1;
  // Spike delays (1 ms mean x 2000 = ~2 s) overrun the pacing window, so
  // responses land after the next query and wrongful suspicions open.
  cfg.spike = runtime::SpikeSpec{from_seconds(4), from_seconds(5), 2000.0, {}};
  return cfg;
}

runtime::CrashPlan spike_plan(const runtime::MmrClusterConfig& cfg) {
  return runtime::CrashPlan::uniform(4, cfg.n, from_seconds(2),
                                     from_seconds(6), cfg.seed);
}

constexpr Duration kSpikeHorizon = from_seconds(12);

// One real deployment: the rollup summary must agree on every headline
// metric with the reference scans of the full event stream.
TEST(EventLogRollup, SummaryMatchesFullStreamAnalysisOnClusterRun) {
  const runtime::MmrClusterConfig cfg = spike_config();
  runtime::MmrCluster cluster(cfg);  // kFull: the stream is the reference
  cluster.start(spike_plan(cfg));
  cluster.run_for(kSpikeHorizon);

  const EventLog& log = cluster.log();
  const RollupSummary summary =
      summarize_rollup(log.rollup(), log.crashes(), cfg.n);

  // Detection latencies: the same samples in the same order (clamped at
  // zero).
  std::vector<double> from_stream;
  Duration worst = Duration::zero();
  for (const auto& s : testing::reference_crash_summaries(log, cfg.n)) {
    for (double lat : s.latencies.samples()) from_stream.push_back(lat);
    if (s.completeness_latency) {
      worst = std::max(worst, *s.completeness_latency);
    }
  }
  ASSERT_FALSE(from_stream.empty());
  EXPECT_EQ(from_stream, summary.detection_latencies.samples());

  // Completeness.
  const bool complete = testing::reference_strong_completeness(log, cfg.n);
  EXPECT_EQ(complete, summary.strong_completeness);
  ASSERT_EQ(complete, summary.completeness_latency.has_value());
  if (complete) {
    EXPECT_EQ(to_seconds(worst), *summary.completeness_latency);
  }

  // Wrongful suspicions: every episode between two correct processes.
  const auto intervals = testing::reference_false_suspicions(log, cfg.n);
  EXPECT_EQ(intervals.size(), summary.false_suspicions);
  EXPECT_GT(summary.false_suspicions, 0u) << "spike produced no churn";

  // Cleanliness: last wrongful repair, unset while any pair is stuck open.
  const auto clean_stream =
      testing::reference_full_accuracy_stabilization(intervals);
  ASSERT_EQ(clean_stream.has_value(), summary.clean_at.has_value());
  if (clean_stream) {
    EXPECT_EQ(to_seconds(*clean_stream), *summary.clean_at);
  }
}

// The same run with either retention: Analysis gives the same answer on
// every metric the rollup carries, and only the interval list goes empty.
TEST(EventLogRollup, AnalysisOverRollupLogMatchesFullLog) {
  runtime::MmrClusterConfig cfg = spike_config();
  runtime::MmrCluster full(cfg);
  full.start(spike_plan(cfg));
  full.run_for(kSpikeHorizon);
  cfg.log_mode = LogMode::kRollup;
  runtime::MmrCluster rolled(cfg);
  rolled.start(spike_plan(cfg));
  rolled.run_for(kSpikeHorizon);

  const Analysis a(full.log(), cfg.n, kSpikeHorizon);
  const Analysis r(rolled.log(), cfg.n, kSpikeHorizon);
  const auto da = a.detections();
  const auto dr = r.detections();
  ASSERT_EQ(da.size(), dr.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].observer, dr[i].observer) << i;
    EXPECT_EQ(da[i].subject, dr[i].subject) << i;
    EXPECT_EQ(da[i].detected_at, dr[i].detected_at) << i;
  }
  const auto sa = a.crash_summaries();
  const auto sr = r.crash_summaries();
  ASSERT_EQ(sa.size(), sr.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].detected_by, sr[i].detected_by) << i;
    EXPECT_EQ(sa[i].latencies.samples(), sr[i].latencies.samples()) << i;
    EXPECT_EQ(sa[i].completeness_latency, sr[i].completeness_latency) << i;
  }
  EXPECT_EQ(a.strong_completeness(), r.strong_completeness());
  EXPECT_EQ(a.accuracy_stabilization(), r.accuracy_stabilization());
  EXPECT_EQ(a.full_accuracy_stabilization(), r.full_accuracy_stabilization());
  const RollupSummary ua = a.summary();
  const RollupSummary ur = r.summary();
  EXPECT_EQ(ua.detection_latencies.samples(), ur.detection_latencies.samples());
  EXPECT_EQ(ua.completeness_latency, ur.completeness_latency);
  EXPECT_EQ(ua.false_suspicions, ur.false_suspicions);
  EXPECT_EQ(ua.clean_at, ur.clean_at);
  EXPECT_EQ(ua.false_suspicions, a.false_suspicions().size());
  EXPECT_GT(ua.false_suspicions, 0u) << "spike produced no churn";
  EXPECT_TRUE(r.false_suspicions().empty());
}

TEST(EventLogRollup, MemoryStaysBoundedWhereFullModeGrows) {
  // Same deployment in both modes; full retention grows with the event
  // count, the rollup is capped by the pair count regardless of run length.
  runtime::MmrClusterConfig cfg;
  cfg.n = 20;
  cfg.f = 5;
  cfg.seed = 3;
  cfg.pacing = from_millis(100);  // dense rounds
  // A long spike pushing delays (~0.5 s) past the pacing keeps suspicion
  // churn running for ~100 rounds — the full stream grows with run length.
  cfg.spike =
      runtime::SpikeSpec{from_seconds(2), from_seconds(12), 500.0, {}};

  runtime::MmrCluster full(cfg);
  full.start(runtime::CrashPlan::none());
  full.run_for(from_seconds(20));

  cfg.log_mode = LogMode::kRollup;
  runtime::MmrCluster rolled(cfg);
  rolled.start(runtime::CrashPlan::none());
  rolled.run_for(from_seconds(20));

  EXPECT_TRUE(rolled.log().events().empty());
  // At most n*n ordered pairs can ever exist (a node can transiently
  // suspect itself when its own response misses the pacing window).
  const std::size_t max_pairs = static_cast<std::size_t>(cfg.n) * cfg.n;
  EXPECT_LE(rolled.log().entries(), max_pairs);
  EXPECT_GT(full.log().entries(), 10 * max_pairs)
      << "full log too small for the bound to be meaningful";
  EXPECT_LT(rolled.log().approx_retained_bytes(),
            full.log().approx_retained_bytes() / 10);

  // Identical runs modulo retention: the pair summaries agree exactly.
  const auto a = full.log().rollup();
  const auto b = rolled.log().rollup();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].observer, b[i].observer);
    EXPECT_EQ(a[i].subject, b[i].subject);
    EXPECT_EQ(a[i].episodes, b[i].episodes);
    EXPECT_EQ(a[i].open_since, b[i].open_since);
  }
}

}  // namespace
}  // namespace mmrfd::metrics
