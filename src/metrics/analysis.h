// Offline analyzers over a run's EventLog: every number the experiments
// report is computed here, so benches, the live supervisor and tests share
// one definition of "detection time", "false suspicion", etc.
//
// The ◇S metrics — detections, crash summaries, strong completeness, the
// false-suspicion count and both accuracy-stabilization instants — read the
// log's per-pair rollup (event_log.h) in place, so they hold in either
// retention mode, and summarize_rollup() runs the same code over a rollup()
// vector. Only the interval list (false_suspicions()) walks the event
// stream, and false_suspicion_series() derives its step series from that
// list; both are empty over a kRollup log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "metrics/event_log.h"

namespace mmrfd::metrics {

/// Detection of one crash by one observer.
struct Detection {
  ProcessId observer;
  ProcessId subject;
  TimePoint crash_at{kTimeZero};
  /// Start of the observer's *final* (still-open) suspicion interval of the
  /// subject; unset if the observer did not suspect it at the end of the
  /// log. The log is read as recorded: callers stop it at the horizon.
  std::optional<TimePoint> detected_at;

  [[nodiscard]] std::optional<Duration> latency() const {
    if (!detected_at) return std::nullopt;
    return *detected_at - crash_at;
  }
};

/// Per-crash summary across all correct observers.
struct CrashDetectionSummary {
  ProcessId subject;
  TimePoint crash_at{kTimeZero};
  std::size_t observers{0};
  std::size_t detected_by{0};  ///< observers that permanently suspected it
  SampleSet latencies;         ///< seconds, one sample per detecting observer
  /// Time until *all* observers permanently suspect (strong completeness
  /// instant for this crash); unset if some observer never did.
  std::optional<Duration> completeness_latency;
};

/// False (wrongful) suspicion: a correct subject entered someone's suspected
/// set. `cleared_at` unset = never repaired by the end of the log.
struct FalseSuspicion {
  ProcessId observer;
  ProcessId subject;
  TimePoint suspected_at{kTimeZero};
  std::optional<TimePoint> cleared_at;
};

/// One point of the "active false suspicions over time" series (E3):
/// after `when`, `active` wrongful (observer, subject) pairs are suspected.
struct FalseSuspicionPoint {
  TimePoint when{kTimeZero};
  std::int64_t active{0};
};

/// Headline metrics from per-pair rollups: detection = start of the final
/// (still-open) suspicion interval, latencies clamped at zero, false
/// suspicions = intervals opened between two correct processes, clean_at =
/// last wrongful repair (unset while one is open).
struct RollupSummary {
  SampleSet detection_latencies;  ///< seconds, per (crash, correct observer)
  /// Worst per-crash strong-completeness latency (seconds); unset if some
  /// crash went undetected by some correct observer.
  std::optional<double> completeness_latency;
  bool strong_completeness{false};
  std::size_t false_suspicions{0};
  std::optional<double> clean_at;  ///< seconds
};

class Analysis {
 public:
  /// `n` = system size; the log's crash records define the faulty set.
  /// Every method reads the log as recorded, so callers stop it at the
  /// horizon; `horizon` is accepted for source compatibility and unused.
  Analysis(const EventLog& log, std::uint32_t n, TimePoint horizon);

  [[nodiscard]] std::vector<ProcessId> correct() const;
  [[nodiscard]] std::vector<ProcessId> faulty() const;

  /// Per-(observer, crash) detection outcomes for all correct observers.
  [[nodiscard]] std::vector<Detection> detections() const;

  /// Grouped per crash.
  [[nodiscard]] std::vector<CrashDetectionSummary> crash_summaries() const;

  /// The headline metrics; the same code as summarize_rollup().
  [[nodiscard]] RollupSummary summary() const;

  /// All wrongful suspicions by correct observers of correct subjects
  /// (needs the kFull stream).
  [[nodiscard]] std::vector<FalseSuspicion> false_suspicions() const;

  /// Eventual weak accuracy: some correct process is suspected by no correct
  /// observer after the returned instant (the last wrongful-suspicion
  /// activity involving it). Unset if every correct process is wrongfully
  /// suspected "forever" (i.e. uncleared at the end of the log).
  [[nodiscard]] std::optional<TimePoint> accuracy_stabilization() const;

  /// Global cleanliness: the instant of the *last* wrongful-suspicion repair
  /// anywhere (time zero if there were none). Unset if any wrongful
  /// suspicion was still open at the end of the log. Strictly stronger than
  /// accuracy_stabilization(): after this instant no correct process
  /// suspects any correct process.
  [[nodiscard]] std::optional<TimePoint> full_accuracy_stabilization() const;

  /// Strong completeness: every crash suspected by every correct observer
  /// at the end of the log (callers stop the log at the horizon).
  [[nodiscard]] bool strong_completeness() const;

 private:
  const EventLog& log_;
  std::uint32_t n_;
};

/// Step series of concurrently-active wrongful suspicions over an interval
/// list from Analysis::false_suspicions().
std::vector<FalseSuspicionPoint> false_suspicion_series(
    const std::vector<FalseSuspicion>& intervals);

/// `pairs` from EventLog::rollup(), `crashes` from EventLog::crashes(),
/// `n` = system size.
RollupSummary summarize_rollup(const std::vector<PairRollup>& pairs,
                               const std::vector<CrashRecord>& crashes,
                               std::uint32_t n);

}  // namespace mmrfd::metrics
