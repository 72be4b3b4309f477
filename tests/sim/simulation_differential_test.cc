// Randomized differential test of sim::Simulation's event heap.
//
// A fixed-seed random loop schedules, cancels and fires events at queue
// depths up to ~16k, from the top level and from inside callbacks, and checks
// every step against a reference model: an ordered set of pending (when, seq)
// keys. The simulator must fire exactly the model's minimum each time, and
// next_event_time(), events_live() and now() must agree with the model
// throughout. Timestamps are drawn from a coarse grid so equal times are
// common and the seq tie-break is exercised on every run.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "sim/simulation.h"

namespace mmrfd::sim {
namespace {

class HeapDifferential {
 public:
  explicit HeapDifferential(std::uint64_t seed) : rng_(seed) {}

  /// Schedules one event at a random grid offset from now(): mostly a few
  /// ticks ahead (many ties), sometimes far out (deep sift paths), and
  /// sometimes at now() itself.
  void schedule_random() {
    const std::uint64_t r = rng_.next_below(100);
    std::int64_t ticks = 0;
    if (r < 60) {
      ticks = static_cast<std::int64_t>(rng_.next_below(8));
    } else if (r < 95) {
      ticks = static_cast<std::int64_t>(rng_.next_below(2000));
    } else if (r < 98) {
      ticks = static_cast<std::int64_t>(rng_.next_below(200000));
    }
    const TimePoint when = sim_.now() + Duration{ticks * kTick};
    const std::uint64_t tag = next_tag_++;
    const EventId id = sim_.schedule_at(when, [this, tag] { fire(tag); });
    ASSERT_NE(id, kNoEvent);
    pending_.emplace(when, tag);
    info_.emplace(tag, Info{when, id});
  }

  /// Cancels a random pending event (or, one time in four, the earliest
  /// pending one — the current heap top). Also retries a stale id.
  void cancel_random() {
    if (info_.empty()) return;
    std::uint64_t tag;
    if (rng_.next_below(4) == 0) {
      tag = pending_.begin()->second;
    } else {
      auto it = info_.lower_bound(rng_.next_below(next_tag_));
      if (it == info_.end()) it = info_.begin();
      tag = it->first;
    }
    const Info victim = info_.at(tag);
    EXPECT_TRUE(sim_.cancel(victim.id));
    EXPECT_FALSE(sim_.cancel(victim.id));  // second cancel is a no-op
    pending_.erase({victim.when, tag});
    info_.erase(tag);
  }

  void check_next_event_time() {
    const TimePoint expect =
        pending_.empty() ? kTimeMax : pending_.begin()->first;
    EXPECT_EQ(sim_.next_event_time(), expect);
    EXPECT_EQ(sim_.events_live(), info_.size());
    EXPECT_GE(sim_.events_pending(), sim_.events_live());
  }

  /// Runs to a random deadline at most three ticks past the model's
  /// earliest event: a handful of events fire, so the queue stays deep.
  void run_random() {
    const TimePoint base =
        pending_.empty() ? sim_.now() : pending_.begin()->first;
    const TimePoint deadline =
        base + Duration{static_cast<std::int64_t>(rng_.next_below(4)) * kTick};
    stopped_ = false;
    sim_.run_until(deadline);
    if (!stopped_) {
      EXPECT_EQ(sim_.now(), deadline);
      EXPECT_TRUE(pending_.empty() || pending_.begin()->first > deadline);
    }
  }

  void run_all() {
    sim_.run_all();
    while (stopped_) {  // a callback may stop() the drain; resume it
      stopped_ = false;
      sim_.run_all();
    }
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(sim_.events_live(), 0u);
  }

  [[nodiscard]] std::size_t depth() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t max_depth() const { return max_depth_; }
  [[nodiscard]] Xoshiro256& rng() { return rng_; }
  void note_depth() {
    if (pending_.size() > max_depth_) max_depth_ = pending_.size();
  }

 private:
  static constexpr std::int64_t kTick = 1000;  // ns per grid step

  struct Info {
    TimePoint when;
    EventId id;
  };

  void fire(std::uint64_t tag) {
    ASSERT_FALSE(pending_.empty());
    const auto [when, expect_tag] = *pending_.begin();
    ASSERT_EQ(tag, expect_tag) << "fired out of (when, seq) order";
    ASSERT_EQ(sim_.now(), when);
    // The slot is released before the callback runs: its own id is stale.
    EXPECT_FALSE(sim_.cancel(info_.at(tag).id));
    pending_.erase(pending_.begin());
    info_.erase(tag);
    ++fired_;
    // Callback-side mutations: successors (often at now() itself, which
    // must fire after every already-pending event of the same time),
    // cancels, and queue probes mid-run.
    const std::uint64_t r = rng_.next_below(100);
    if (r < 45) {
      const std::uint64_t k = 1 + rng_.next_below(3);
      for (std::uint64_t i = 0; i < k; ++i) schedule_random();
    } else if (r < 60) {
      cancel_random();
    } else if (r < 70) {
      check_next_event_time();
    } else if (r < 71) {
      stopped_ = true;
      sim_.stop();
    }
    note_depth();
  }

  Simulation sim_;
  Xoshiro256 rng_;
  std::set<std::pair<TimePoint, std::uint64_t>> pending_;  // (when, seq)
  std::map<std::uint64_t, Info> info_;  // tag (== scheduling order) -> event
  std::uint64_t next_tag_{0};
  std::uint64_t fired_{0};
  std::uint64_t max_depth_{0};
  bool stopped_{false};
};

void drive(std::uint64_t seed, std::size_t target_depth) {
  HeapDifferential h(seed);
  // Phase 1: grow to the target depth with interleaved cancels, probes and
  // short runs, so the heap is deep while it is being popped.
  while (h.depth() < target_depth) {
    const std::uint64_t r = h.rng().next_below(100);
    if (r < 80) {
      h.schedule_random();
    } else if (r < 90) {
      h.cancel_random();
    } else if (r < 95) {
      h.check_next_event_time();
    } else {
      h.run_random();
    }
    h.note_depth();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Phase 2: churn at depth — every step fires a few events, then tops the
  // queue back up and cancels a few entries (the top among them a quarter
  // of the time).
  for (int step = 0; step < 1000; ++step) {
    h.run_random();
    while (h.depth() < target_depth) h.schedule_random();
    for (int i = 0; i < 4; ++i) h.cancel_random();
    h.check_next_event_time();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Phase 3: drain.
  h.run_all();
  h.check_next_event_time();
  EXPECT_GT(h.fired(), target_depth);
  EXPECT_GE(h.max_depth(), target_depth);
}

TEST(SimulationDifferential, ShallowQueueMatchesOrderedSetModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    drive(seed, 64);
    if (HasFatalFailure()) return;
  }
}

TEST(SimulationDifferential, DeepQueueMatchesOrderedSetModel) {
  for (std::uint64_t seed = 101; seed <= 103; ++seed) {
    SCOPED_TRACE(seed);
    drive(seed, 16384);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mmrfd::sim
