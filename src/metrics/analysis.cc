#include "metrics/analysis.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace mmrfd::metrics {

namespace {

/// Per id < n: true iff the process never crashed.
std::vector<bool> correct_mask(const std::vector<CrashRecord>& crashes,
                               std::uint32_t n) {
  std::vector<bool> mask(n, true);
  for (const auto& c : crashes) {
    if (c.subject.value < n) mask[c.subject.value] = false;
  }
  return mask;
}

bool is_correct(const std::vector<bool>& correct, ProcessId id) {
  return id.value < correct.size() && correct[id.value];
}

/// A rollup() vector indexed by pair, offering the pair() / for_each_pair()
/// reads EventLog offers in place, so both feed the same code below.
class RollupIndex {
 public:
  explicit RollupIndex(const std::vector<PairRollup>& pairs) : pairs_(pairs) {
    by_key_.reserve(pairs.size());
    for (const auto& p : pairs) {
      by_key_.emplace(pair_key(p.observer, p.subject), &p);
    }
  }

  [[nodiscard]] const PairRollup* pair(ProcessId observer,
                                       ProcessId subject) const {
    const auto it = by_key_.find(pair_key(observer, subject));
    return it == by_key_.end() ? nullptr : it->second;
  }

  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    for (const auto& p : pairs_) fn(p);
  }

 private:
  const std::vector<PairRollup>& pairs_;
  std::unordered_map<std::uint64_t, const PairRollup*> by_key_;
};

/// When `observer` detected `subject`: the start of the pair's still-open
/// suspicion interval; unset if no interval is open at the end of the run.
template <typename Pairs>
std::optional<TimePoint> detected_at(const Pairs& pairs, ProcessId observer,
                                     ProcessId subject) {
  const PairRollup* p = pairs.pair(observer, subject);
  if (p == nullptr || !p->open) return std::nullopt;
  return p->open_since;
}

template <typename Pairs>
std::vector<CrashDetectionSummary> summarize_crashes(
    const Pairs& pairs, const std::vector<CrashRecord>& crashes,
    const std::vector<bool>& correct) {
  std::vector<CrashDetectionSummary> out;
  out.reserve(crashes.size());
  for (const auto& c : crashes) {
    CrashDetectionSummary s;
    s.subject = c.subject;
    s.crash_at = c.when;
    Duration worst = Duration::zero();
    for (std::uint32_t i = 0; i < correct.size(); ++i) {
      if (!correct[i]) continue;
      ++s.observers;
      const auto at = detected_at(pairs, ProcessId{i}, c.subject);
      if (!at) continue;
      ++s.detected_by;
      // A detection can begin *before* the crash (the process was already
      // wrongly suspected and never repaired); clamp at zero.
      const Duration latency = std::max(Duration::zero(), *at - c.when);
      s.latencies.add(to_seconds(latency));
      worst = std::max(worst, latency);
    }
    if (s.observers > 0 && s.detected_by == s.observers) {
      s.completeness_latency = worst;
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Wrongful suspicions (observer and subject both correct), per subject.
struct Wrongful {
  std::size_t episodes{0};
  std::vector<TimePoint> last_clear;  ///< last repair of a suspicion of it
  std::vector<bool> open;             ///< some suspicion of it still open
};

template <typename Pairs>
Wrongful scan_wrongful(const Pairs& pairs, const std::vector<bool>& correct) {
  Wrongful w;
  w.last_clear.assign(correct.size(), kTimeZero);
  w.open.assign(correct.size(), false);
  pairs.for_each_pair([&](const PairRollup& p) {
    if (!is_correct(correct, p.observer) || !is_correct(correct, p.subject)) {
      return;
    }
    const std::uint32_t q = p.subject.value;
    w.episodes += p.episodes;
    w.last_clear[q] = std::max(w.last_clear[q], p.last_clear);
    if (p.open) w.open[q] = true;
  });
  return w;
}

std::optional<TimePoint> clean_at(const Wrongful& w) {
  if (std::find(w.open.begin(), w.open.end(), true) != w.open.end()) {
    return std::nullopt;
  }
  return w.last_clear.empty()
             ? kTimeZero
             : *std::max_element(w.last_clear.begin(), w.last_clear.end());
}

template <typename Pairs>
RollupSummary summarize(const Pairs& pairs,
                        const std::vector<CrashRecord>& crashes,
                        const std::vector<bool>& correct) {
  RollupSummary out;
  out.strong_completeness = true;
  Duration worst = Duration::zero();
  for (const auto& s : summarize_crashes(pairs, crashes, correct)) {
    for (double lat : s.latencies.samples()) out.detection_latencies.add(lat);
    if (s.completeness_latency) {
      worst = std::max(worst, *s.completeness_latency);
    } else {
      out.strong_completeness = false;
    }
  }
  if (out.strong_completeness) out.completeness_latency = to_seconds(worst);
  const Wrongful w = scan_wrongful(pairs, correct);
  out.false_suspicions = w.episodes;
  if (const auto t = clean_at(w)) out.clean_at = to_seconds(*t);
  return out;
}

/// One pass over the stream for the wrongful-suspicion intervals between two
/// correct processes: calls `on_closed(observer, subject, start, end)` for
/// each repaired interval in log order, and returns the intervals still open
/// at the end of the log as pair_key -> start. A repeated kSuspected on an
/// open pair keeps the earlier start, as the pair rollup does.
template <typename OnClosed>
std::unordered_map<std::uint64_t, TimePoint> scan_false_suspicions(
    const EventLog& log, const std::vector<bool>& correct,
    OnClosed&& on_closed) {
  std::unordered_map<std::uint64_t, TimePoint> open;
  for (const auto& e : log.events()) {
    if (!is_correct(correct, e.subject) || !is_correct(correct, e.observer)) {
      continue;
    }
    const std::uint64_t key = pair_key(e.observer, e.subject);
    if (e.kind == SuspicionEventKind::kSuspected) {
      open.try_emplace(key, e.when);
    } else if (e.kind == SuspicionEventKind::kCleared) {
      if (auto it = open.find(key); it != open.end()) {
        on_closed(e.observer, e.subject, it->second, e.when);
        open.erase(it);
      }
    }
  }
  return open;
}

}  // namespace

Analysis::Analysis(const EventLog& log, std::uint32_t n, TimePoint /*horizon*/)
    : log_(log), n_(n) {}

std::vector<ProcessId> Analysis::correct() const {
  const auto mask = correct_mask(log_.crashes(), n_);
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (mask[i]) out.push_back(ProcessId{i});
  }
  return out;
}

std::vector<ProcessId> Analysis::faulty() const {
  std::vector<ProcessId> out;
  for (const auto& c : log_.crashes()) out.push_back(c.subject);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Detection> Analysis::detections() const {
  std::vector<Detection> out;
  const auto correct_set = correct();
  out.reserve(log_.crashes().size() * correct_set.size());
  for (const auto& c : log_.crashes()) {
    for (ProcessId obs : correct_set) {
      out.push_back(
          Detection{obs, c.subject, c.when, detected_at(log_, obs, c.subject)});
    }
  }
  return out;
}

std::vector<CrashDetectionSummary> Analysis::crash_summaries() const {
  return summarize_crashes(log_, log_.crashes(),
                           correct_mask(log_.crashes(), n_));
}

RollupSummary Analysis::summary() const {
  return summarize(log_, log_.crashes(), correct_mask(log_.crashes(), n_));
}

std::vector<FalseSuspicion> Analysis::false_suspicions() const {
  std::vector<FalseSuspicion> out;
  const auto open = scan_false_suspicions(
      log_, correct_mask(log_.crashes(), n_),
      [&](ProcessId obs, ProcessId subj, TimePoint start, TimePoint end) {
        out.push_back(FalseSuspicion{obs, subj, start, end});
      });
  // Still-open intervals follow the closed ones in (observer, subject)
  // order, so the unstable sort below sees one fixed input sequence.
  std::vector<std::pair<std::uint64_t, TimePoint>> left(open.begin(),
                                                        open.end());
  std::sort(left.begin(), left.end());
  for (const auto& [key, start] : left) {
    const ProcessId obs{static_cast<std::uint32_t>(key >> 32)};
    const ProcessId subj{static_cast<std::uint32_t>(key)};
    out.push_back(FalseSuspicion{obs, subj, start, std::nullopt});
  }
  std::sort(out.begin(), out.end(),
            [](const FalseSuspicion& a, const FalseSuspicion& b) {
              return a.suspected_at < b.suspected_at;
            });
  return out;
}

std::vector<FalseSuspicionPoint> false_suspicion_series(
    const std::vector<FalseSuspicion>& intervals) {
  struct Edge {
    TimePoint when;
    std::int64_t delta;
  };
  std::vector<Edge> edges;
  for (const auto& fs : intervals) {
    edges.push_back({fs.suspected_at, +1});
    if (fs.cleared_at) edges.push_back({*fs.cleared_at, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.when < b.when; });
  std::vector<FalseSuspicionPoint> series;
  std::int64_t active = 0;
  for (const auto& e : edges) {
    active += e.delta;
    if (!series.empty() && series.back().when == e.when) {
      series.back().active = active;
    } else {
      series.push_back({e.when, active});
    }
  }
  return series;
}

std::optional<TimePoint> Analysis::accuracy_stabilization() const {
  // For each correct p: the last repair of a suspicion of p, or
  // disqualification if one is still open; the earliest such p wins.
  const auto mask = correct_mask(log_.crashes(), n_);
  const Wrongful w = scan_wrongful(log_, mask);
  std::optional<TimePoint> best;
  for (std::uint32_t p = 0; p < n_; ++p) {
    if (!mask[p] || w.open[p]) continue;
    if (!best || w.last_clear[p] < *best) best = w.last_clear[p];
  }
  return best;
}

std::optional<TimePoint> Analysis::full_accuracy_stabilization() const {
  return clean_at(scan_wrongful(log_, correct_mask(log_.crashes(), n_)));
}

bool Analysis::strong_completeness() const {
  const auto summaries = crash_summaries();
  return std::all_of(summaries.begin(), summaries.end(),
                     [](const CrashDetectionSummary& s) {
                       return s.completeness_latency.has_value();
                     });
}

RollupSummary summarize_rollup(const std::vector<PairRollup>& pairs,
                               const std::vector<CrashRecord>& crashes,
                               std::uint32_t n) {
  return summarize(RollupIndex(pairs), crashes, correct_mask(crashes, n));
}

}  // namespace mmrfd::metrics
