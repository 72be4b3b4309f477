#include "metrics/event_log.h"

#include <algorithm>

namespace mmrfd::metrics {

void EventLog::apply(TimePoint when, ProcessId observer, ProcessId subject,
                     SuspicionEventKind kind, Tag tag) {
  if (mode_ == LogMode::kFull) {
    events_.push_back(SuspicionEvent{when, observer, subject, kind, tag});
  }
  // The pair summary is maintained in both modes: Analysis reads it for
  // every ◇S metric, and the rollup/full equivalence is testable on one log
  // instance.
  PairRollup& p = pairs_
                      .try_emplace(pair_key(observer, subject),
                                   PairRollup{observer, subject})
                      .first->second;
  switch (kind) {
    case SuspicionEventKind::kSuspected:
      if (!p.open) {
        p.open = true;
        p.open_since = when;
        ++p.episodes;
      }
      break;
    case SuspicionEventKind::kCleared:
      if (p.open) {
        p.open = false;
        p.last_clear = std::max(p.last_clear, when);
      }
      break;
    case SuspicionEventKind::kMistake:
      ++p.mistakes;
      break;
  }
}

void EventLog::record(ProcessId observer, ProcessId subject,
                      SuspicionEventKind kind, Tag tag) {
  apply(sim_.now(), observer, subject, kind, tag);
}

void EventLog::record_crash(ProcessId subject) {
  crashes_.push_back(CrashRecord{subject, sim_.now()});
}

std::vector<PairRollup> EventLog::rollup() const {
  std::vector<PairRollup> out;
  out.reserve(pairs_.size());
  for (const auto& entry : pairs_) out.push_back(entry.second);
  std::sort(out.begin(), out.end(),
            [](const PairRollup& a, const PairRollup& b) {
              if (a.observer != b.observer) return a.observer < b.observer;
              return a.subject < b.subject;
            });
  return out;
}

std::size_t EventLog::approx_retained_bytes() const {
  // unordered_map node overhead (~2 pointers) + bucket array estimate.
  const std::size_t per_pair =
      sizeof(std::uint64_t) + sizeof(PairRollup) + 2 * sizeof(void*);
  const std::size_t map_bytes =
      pairs_.size() * per_pair + pairs_.bucket_count() * sizeof(void*);
  return events_.capacity() * sizeof(SuspicionEvent) +
         crashes_.capacity() * sizeof(CrashRecord) + map_bytes;
}

core::SuspicionObserver* EventLog::observer_for(ProcessId observer_id) {
  adapters_.push_back(std::make_unique<NodeObserver>(*this, observer_id));
  return adapters_.back().get();
}

}  // namespace mmrfd::metrics
