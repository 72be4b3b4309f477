// Suspicion event log.
//
// Every detector implementation publishes suspicion transitions through
// core::SuspicionObserver; the per-node adapters here stamp them with the
// observing node and the virtual time, producing one global, ordered event
// stream per run. All evaluation metrics (detection time, false-suspicion
// counts, accuracy convergence) are pure functions of this log plus the
// crash schedule — see analysis.h.
//
// Every transition is folded on arrival into a per-(observer, subject)
// PairRollup: whether a suspicion interval is open and since when, the
// number of intervals opened, the number of kMistake entries, and the last
// instant an open interval was closed. A kSuspected on an already-open pair
// changes nothing (the interval keeps its first start), and a kCleared on a
// closed pair changes nothing. The ◇S metrics — detection instants, strong
// completeness, the false-suspicion count and both accuracy-stabilization
// instants — are computed from this rollup alone (analysis.h), so they
// cost one lookup per pair, not a pass over the stream.
//
// Two retention modes, with the same rollup in both:
//   * kFull also keeps every transition (the default). Only the
//     false-suspicion interval list and its step series need the stream.
//     At n = 1000 a 20 s sweep retains ~1.3M entries (~30 MB) — fine for a
//     single serial run, ruinous when multiplied by shards and pushed to
//     n = 10,000.
//   * kRollup keeps the rollup only. Memory is bounded by the number of
//     pairs that ever interacted, independent of run length.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/failure_detector.h"
#include "sim/simulation.h"

namespace mmrfd::metrics {

enum class SuspicionEventKind : std::uint8_t {
  kSuspected,  ///< subject entered observer's suspected set
  kCleared,    ///< subject left observer's suspected set
  kMistake,    ///< observer recorded a mistake entry for subject
};

struct SuspicionEvent {
  TimePoint when{kTimeZero};
  ProcessId observer;
  ProcessId subject;
  SuspicionEventKind kind{SuspicionEventKind::kSuspected};
  Tag tag{0};
};

struct CrashRecord {
  ProcessId subject;
  TimePoint when{kTimeZero};
};

enum class LogMode : std::uint8_t {
  kFull,    ///< retain every transition (events() is the full stream)
  kRollup,  ///< fold transitions into per-pair summaries on arrival
};

/// Hash key of an (observer, subject) pair: observer in the high half,
/// subject in the low half, so key order is (observer, subject) order.
inline std::uint64_t pair_key(ProcessId observer, ProcessId subject) {
  return (static_cast<std::uint64_t>(observer.value) << 32) | subject.value;
}

/// Streaming summary of one (observer, subject) pair's suspicion history.
struct PairRollup {
  ProcessId observer;
  ProcessId subject;
  /// Whether the observer suspected the subject at the end of the run; if
  /// so, `open_since` is the start of that final (still-open) interval: the
  /// first kSuspected after the pair's last kCleared.
  bool open{false};
  TimePoint open_since{kTimeZero};
  /// Instant of the last kCleared that closed an interval (kTimeZero if
  /// none).
  TimePoint last_clear{kTimeZero};
  std::uint32_t episodes{0};  ///< suspicion intervals opened
  std::uint32_t mistakes{0};  ///< kMistake events recorded
};

class EventLog {
 public:
  explicit EventLog(sim::Simulation& simulation, LogMode mode = LogMode::kFull)
      : sim_(simulation), mode_(mode) {}

  void record(ProcessId observer, ProcessId subject, SuspicionEventKind kind,
              Tag tag);
  void record_crash(ProcessId subject);

  /// Appends a pre-stamped event. The live-cluster path aggregates wall-
  /// clock-stamped transitions out of per-process node reports, where the
  /// simulation clock has no meaning; callers are responsible for feeding
  /// events in time order (sort before appending a merged stream).
  void append(const SuspicionEvent& event) {
    apply(event.when, event.observer, event.subject, event.kind, event.tag);
  }

  /// Records a crash at an explicit instant (live path: the supervisor's
  /// actual SIGKILL time).
  void record_crash_at(ProcessId subject, TimePoint when) {
    crashes_.push_back(CrashRecord{subject, when});
  }

  [[nodiscard]] LogMode mode() const { return mode_; }

  /// Full event stream; empty in rollup mode (use rollup() there).
  [[nodiscard]] const std::vector<SuspicionEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<CrashRecord>& crashes() const {
    return crashes_;
  }

  /// Snapshot of the per-pair summaries, sorted by (observer, subject) so
  /// the result is deterministic. The same in either mode.
  [[nodiscard]] std::vector<PairRollup> rollup() const;

  /// The pair's summary read in place, or nullptr if the observer never
  /// reported a transition about the subject.
  [[nodiscard]] const PairRollup* pair(ProcessId observer,
                                       ProcessId subject) const {
    const auto it = pairs_.find(pair_key(observer, subject));
    return it == pairs_.end() ? nullptr : &it->second;
  }

  /// Calls `fn(const PairRollup&)` for every pair, in unspecified order.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    for (const auto& entry : pairs_) fn(entry.second);
  }

  /// Number of retained entries: events in full mode, pairs in rollup mode.
  [[nodiscard]] std::size_t entries() const {
    return mode_ == LogMode::kFull ? events_.size() : pairs_.size();
  }
  /// Approximate bytes retained by the log's growing state (events or pair
  /// map), for memory-bound assertions and capacity planning.
  [[nodiscard]] std::size_t approx_retained_bytes() const;

  [[nodiscard]] TimePoint now() const { return sim_.now(); }

  /// Returns (creating on first use) the observer adapter for `observer_id`.
  /// The adapter's lifetime is owned by the log.
  core::SuspicionObserver* observer_for(ProcessId observer_id);

 private:
  class NodeObserver final : public core::SuspicionObserver {
   public:
    NodeObserver(EventLog& log, ProcessId observer_id)
        : log_(log), observer_id_(observer_id) {}
    void on_suspected(ProcessId subject, Tag tag) override {
      log_.record(observer_id_, subject, SuspicionEventKind::kSuspected, tag);
    }
    void on_cleared(ProcessId subject, Tag tag) override {
      log_.record(observer_id_, subject, SuspicionEventKind::kCleared, tag);
    }
    void on_mistake(ProcessId subject, Tag tag) override {
      log_.record(observer_id_, subject, SuspicionEventKind::kMistake, tag);
    }

   private:
    EventLog& log_;
    ProcessId observer_id_;
  };

  void apply(TimePoint when, ProcessId observer, ProcessId subject,
             SuspicionEventKind kind, Tag tag);

  sim::Simulation& sim_;
  LogMode mode_;
  std::vector<SuspicionEvent> events_;
  std::vector<CrashRecord> crashes_;
  std::unordered_map<std::uint64_t, PairRollup> pairs_;
  std::vector<std::unique_ptr<NodeObserver>> adapters_;
};

}  // namespace mmrfd::metrics
