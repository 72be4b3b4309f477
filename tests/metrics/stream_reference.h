// Reference ◇S metrics computed by scanning the full event stream, kept as
// the oracle for metrics::Analysis, which reads the per-pair rollup instead.
// An interval opens at the first kSuspected after the pair's last kCleared;
// a repeated kSuspected on an open pair keeps that start.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "metrics/analysis.h"
#include "metrics/event_log.h"

namespace mmrfd::metrics::testing {

inline std::vector<ProcessId> reference_correct(const EventLog& log,
                                                std::uint32_t n) {
  std::vector<bool> mask(n, true);
  for (const auto& c : log.crashes()) {
    if (c.subject.value < n) mask[c.subject.value] = false;
  }
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (mask[i]) out.push_back(ProcessId{i});
  }
  return out;
}

/// One pass over the stream builds the still-open interval per (observer,
/// subject); each (crash, correct observer) is detected at its start.
inline std::vector<Detection> reference_detections(const EventLog& log,
                                                   std::uint32_t n) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, TimePoint> open;
  for (const auto& e : log.events()) {
    const auto key = std::make_pair(e.observer.value, e.subject.value);
    if (e.kind == SuspicionEventKind::kSuspected) {
      open.emplace(key, e.when);
    } else if (e.kind == SuspicionEventKind::kCleared) {
      open.erase(key);
    }
  }
  std::vector<Detection> out;
  for (const auto& c : log.crashes()) {
    for (ProcessId obs : reference_correct(log, n)) {
      Detection d{obs, c.subject, c.when, std::nullopt};
      if (auto it = open.find({obs.value, c.subject.value}); it != open.end()) {
        d.detected_at = it->second;
      }
      out.push_back(d);
    }
  }
  return out;
}

/// reference_detections() grouped per crash record, latencies clamped at
/// zero.
inline std::vector<CrashDetectionSummary> reference_crash_summaries(
    const EventLog& log, std::uint32_t n) {
  const auto all = reference_detections(log, n);
  const std::size_t per_crash = reference_correct(log, n).size();
  std::vector<CrashDetectionSummary> out;
  for (std::size_t k = 0; k < log.crashes().size(); ++k) {
    const CrashRecord& c = log.crashes()[k];
    CrashDetectionSummary s;
    s.subject = c.subject;
    s.crash_at = c.when;
    std::optional<Duration> worst;
    bool all_detected = true;
    for (std::size_t i = k * per_crash; i < (k + 1) * per_crash; ++i) {
      ++s.observers;
      if (auto lat = all[i].latency()) {
        ++s.detected_by;
        s.latencies.add(std::max(0.0, to_seconds(*lat)));
        const Duration clamped = std::max(Duration::zero(), *lat);
        worst = worst ? std::max(*worst, clamped) : clamped;
      } else {
        all_detected = false;
      }
    }
    if (all_detected && s.observers > 0) s.completeness_latency = worst;
    out.push_back(std::move(s));
  }
  return out;
}

inline bool reference_strong_completeness(const EventLog& log,
                                          std::uint32_t n) {
  for (const auto& s : reference_crash_summaries(log, n)) {
    if (!s.completeness_latency) return false;
  }
  return true;
}

/// The std::map interval scan false_suspicions() used before it moved to a
/// hash keyed on (observer, subject): closed intervals in log order, then
/// the still-open ones in (observer, subject) order, then the same sort.
inline std::vector<FalseSuspicion> reference_false_suspicions(
    const EventLog& log, std::uint32_t n) {
  const auto correct = reference_correct(log, n);
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

/// Global cleanliness from a reference interval list: the last repair,
/// unset while any interval is open.
inline std::optional<TimePoint> reference_full_accuracy_stabilization(
    const std::vector<FalseSuspicion>& intervals) {
  std::optional<TimePoint> full = kTimeZero;
  for (const auto& fs : intervals) {
    if (!fs.cleared_at) return std::nullopt;
    full = std::max(*full, *fs.cleared_at);
  }
  return full;
}

/// Eventual weak accuracy from a reference interval list: the earliest
/// last-repair instant over correct subjects with no interval left open.
inline std::optional<TimePoint> reference_accuracy_stabilization(
    const std::vector<FalseSuspicion>& intervals,
    const std::vector<ProcessId>& correct) {
  std::optional<TimePoint> weak;
  for (ProcessId p : correct) {
    TimePoint last = kTimeZero;
    bool open = false;
    for (const auto& fs : intervals) {
      if (fs.subject != p) continue;
      if (!fs.cleared_at) {
        open = true;
      } else {
        last = std::max(last, *fs.cleared_at);
      }
    }
    if (!open && (!weak || last < *weak)) weak = last;
  }
  return weak;
}

}  // namespace mmrfd::metrics::testing
