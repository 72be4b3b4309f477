// Differential test of DetectorCore's merge kernel: seeded random schedules
// drive the core and a literal reference model of the paper's T1/T2 over two
// std::maps side by side, and after every step both must agree on the sets,
// the round counter, the state epoch, the observer transition sequence and
// every query_for() payload.
//
// The schedules deliberately hit the corners of the core's rank-word fast
// path: suspicion/mistake tag ties, entries about the receiver itself,
// ids >= n, tags in [2^62, 2^64 - 1] (which cannot be packed into a rank),
// interleaved finish_round() and transient-corruption injections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector_core.h"

namespace mmrfd::core {
namespace {

constexpr Tag kHugeTagFloor = Tag{1} << 62;

struct Transition {
  char kind;  // 'S' suspected, 'C' cleared, 'M' mistake
  std::uint32_t id;
  Tag tag;
  friend bool operator==(const Transition&, const Transition&) = default;
};

std::string describe(const std::vector<Transition>& ts) {
  std::string out;
  for (const auto& t : ts) {
    out += t.kind + std::to_string(t.id) + "@" + std::to_string(t.tag) + " ";
  }
  return out;
}

class Recorder final : public SuspicionObserver {
 public:
  void on_suspected(ProcessId s, Tag t) override { log.push_back({'S', s.value, t}); }
  void on_cleared(ProcessId s, Tag t) override { log.push_back({'C', s.value, t}); }
  void on_mistake(ProcessId s, Tag t) override { log.push_back({'M', s.value, t}); }
  std::vector<Transition> log;
};

/// The paper's T1/T2 written out over two maps, with the change journal the
/// delta encoding reads (every add is one record).
class ReferenceModel {
 public:
  ReferenceModel(std::uint32_t n, std::uint32_t self) : n_(n), self_(self) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i != self) known_.insert(i);
    }
  }

  // T2: merge a query from `from`.
  void on_query(std::uint32_t from, const QueryMessage& q) {
    known_.insert(from);
    for (const TaggedEntry& e : q.suspected()) {
      const auto mine = local_tag(e.id.value);
      if (mine && !(*mine < e.tag)) continue;
      if (e.id.value == self_) {
        counter_ = std::max(counter_, e.tag + 1);
        add_mistake(self_, counter_);
      } else {
        mistake_.erase(e.id.value);
        add_suspicion(e.id.value, e.tag);
      }
    }
    for (const TaggedEntry& e : q.mistakes()) {
      const auto mine = local_tag(e.id.value);
      if (mine && !(*mine <= e.tag)) continue;
      if (mine && *mine == e.tag && mistake_.count(e.id.value) != 0) continue;
      add_mistake(e.id.value, e.tag);
    }
  }

  // T1 prologue: a self-suspicion (only corruption plants one) is repaired
  // before the round's queries are built.
  void begin_query() {
    if (const auto it = suspected_.find(self_); it != suspected_.end()) {
      counter_ = std::max(counter_, it->second + 1);
      add_mistake(self_, counter_);
    }
  }

  // T1 lines 9-16 over the round's responders.
  void finish_round(const std::set<std::uint32_t>& responded) {
    for (const std::uint32_t k : known_) {
      if (responded.count(k) != 0 || suspected_.count(k) != 0) continue;
      if (const auto it = mistake_.find(k); it != mistake_.end()) {
        counter_ = std::max(counter_, it->second + 1);
        mistake_.erase(it);
      }
      add_suspicion(k, counter_);
    }
    ++counter_;
  }

  /// Adopts the corrupted state `core` now holds and derives what the
  /// injection must have reported: one transition per changed id < n and
  /// one journal record per id < n that changed or is present.
  void adopt_corruption(const DetectorCore& core) {
    const auto old_suspected = suspected_;
    const auto old_mistake = mistake_;
    suspected_.clear();
    mistake_.clear();
    for (const auto& e : core.suspected_set().entries()) {
      suspected_[e.id.value] = e.tag;
    }
    for (const auto& e : core.mistake_set().entries()) {
      mistake_[e.id.value] = e.tag;
    }
    counter_ = core.counter();
    const auto kind = [](const std::map<std::uint32_t, Tag>& s,
                         const std::map<std::uint32_t, Tag>& m,
                         std::uint32_t i) {
      return s.count(i) != 0 ? 1 : (m.count(i) != 0 ? 2 : 0);
    };
    journal_.clear();
    for (std::uint32_t i = 0; i < n_; ++i) {
      const int was = kind(old_suspected, old_mistake, i);
      const int now = kind(suspected_, mistake_, i);
      const Tag tag = now == 1 ? suspected_.at(i) : (now == 2 ? mistake_.at(i) : 0);
      if (was == 1 && now != 1) {
        transitions_.push_back({'C', i, tag});
      } else if (was != 1 && now == 1) {
        transitions_.push_back({'S', i, tag});
      }
      if (was != 2 && now == 2) transitions_.push_back({'M', i, tag});
      if (now != was || now != 0) journal_.push_back(i);
    }
    ASSERT_GE(core.state_epoch(), journal_.size());
    journal_base_ = core.state_epoch() - journal_.size();
  }

  /// The query for a peer acknowledged at `base` (0 = full), at `epoch`.
  [[nodiscard]] QueryMessage query(QuerySeq seq, Epoch base) const {
    QueryMessage q;
    q.seq = seq;
    q.epoch = epoch();
    if (base == 0) {
      for (const auto& [id, tag] : suspected_) q.push_suspected({ProcessId{id}, tag});
      for (const auto& [id, tag] : mistake_) q.push_mistake({ProcessId{id}, tag});
      return q;
    }
    q.base_epoch = base;
    q.set_delta(true);
    EXPECT_GE(base, journal_base_);
    std::set<std::uint32_t> changed(
        journal_.begin() + static_cast<std::ptrdiff_t>(base - journal_base_),
        journal_.end());
    for (const std::uint32_t id : changed) {
      if (const auto it = suspected_.find(id); it != suspected_.end()) {
        q.push_suspected({ProcessId{id}, it->second});
      } else if (const auto m = mistake_.find(id); m != mistake_.end()) {
        q.push_mistake({ProcessId{id}, m->second});
      }
    }
    return q;
  }

  [[nodiscard]] Epoch epoch() const { return journal_base_ + journal_.size(); }
  [[nodiscard]] Tag counter() const { return counter_; }
  [[nodiscard]] const std::map<std::uint32_t, Tag>& suspected() const {
    return suspected_;
  }
  [[nodiscard]] const std::map<std::uint32_t, Tag>& mistake() const {
    return mistake_;
  }
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

 private:
  [[nodiscard]] std::optional<Tag> local_tag(std::uint32_t id) const {
    if (const auto it = suspected_.find(id); it != suspected_.end()) {
      return it->second;
    }
    if (const auto it = mistake_.find(id); it != mistake_.end()) {
      return it->second;
    }
    return std::nullopt;
  }

  void add_suspicion(std::uint32_t id, Tag tag) {
    const bool was = suspected_.count(id) != 0;
    suspected_[id] = tag;
    journal_.push_back(id);
    if (!was) transitions_.push_back({'S', id, tag});
  }

  void add_mistake(std::uint32_t id, Tag tag) {
    const bool was = suspected_.erase(id) != 0;
    mistake_[id] = tag;
    journal_.push_back(id);
    if (was) transitions_.push_back({'C', id, tag});
    transitions_.push_back({'M', id, tag});
  }

  std::uint32_t n_;
  std::uint32_t self_;
  Tag counter_{0};
  std::map<std::uint32_t, Tag> suspected_;
  std::map<std::uint32_t, Tag> mistake_;
  std::set<std::uint32_t> known_;
  std::vector<std::uint32_t> journal_;  // journal_[k] changed at base + k + 1
  Epoch journal_base_{0};
  std::vector<Transition> transitions_;
};

std::map<std::uint32_t, Tag> as_map(const TaggedSet& s) {
  std::map<std::uint32_t, Tag> out;
  for (const auto& e : s.entries()) out[e.id.value] = e.tag;
  return out;
}

/// A tag from one of three bands: small (ties with local state are
/// common), near the current counter, or unrankable (>= 2^62).
Tag random_tag(Xoshiro256& rng, Tag counter) {
  const std::uint64_t band = rng.next_below(10);
  if (band < 5) return rng.next_below(12);
  if (band < 8) return counter + rng.next_below(4);
  switch (rng.next_below(4)) {
    case 0: return kHugeTagFloor;
    case 1: return std::numeric_limits<Tag>::max();
    case 2: return kHugeTagFloor - 1;  // the largest rankable tag
    default: return kHugeTagFloor + rng.next_below(kHugeTagFloor * 3);
  }
}

QueryMessage random_query(Xoshiro256& rng, std::uint32_t n,
                          const ReferenceModel& ref) {
  QueryMessage q;
  q.seq = 1 + rng.next_below(100);
  const std::size_t entries = rng.next_below(2 * n);
  for (std::size_t k = 0; k < entries; ++k) {
    TaggedEntry e;
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 3 && !(ref.suspected().empty() && ref.mistake().empty())) {
      // Replay a local entry with its own tag, as either kind: the exact
      // ties the mistake-wins rule decides.
      const bool suspicion = !ref.suspected().empty() &&
                             (ref.mistake().empty() || rng.bernoulli(0.5));
      const auto& from = suspicion ? ref.suspected() : ref.mistake();
      auto it = from.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(from.size())));
      e = {ProcessId{it->first}, it->second};
    } else {
      // Ids up to n + 2: self included, and two ids outside Pi.
      e.id = ProcessId{static_cast<std::uint32_t>(rng.next_below(n + 3))};
      e.tag = random_tag(rng, ref.counter());
    }
    if (rng.bernoulli(0.5)) {
      q.push_suspected(e);
    } else {
      q.push_mistake(e);
    }
  }
  return q;
}

void expect_same_state(const DetectorCore& core, const ReferenceModel& ref,
                       const Recorder& rec, std::uint32_t n,
                       const std::string& where) {
  ASSERT_EQ(as_map(core.suspected_set()), ref.suspected()) << where;
  ASSERT_EQ(as_map(core.mistake_set()), ref.mistake()) << where;
  ASSERT_EQ(core.counter(), ref.counter()) << where;
  ASSERT_EQ(core.state_epoch(), ref.epoch()) << where;
  ASSERT_EQ(rec.log, ref.transitions())
      << where << "\ncore: " << describe(rec.log)
      << "\nref:  " << describe(ref.transitions());
  for (std::uint32_t i = 0; i < n + 3; ++i) {
    ASSERT_EQ(core.is_suspected(ProcessId{i}), ref.suspected().count(i) != 0)
        << where << " id " << i;
  }
}

void run_schedule(std::uint64_t seed, std::uint32_t n, std::uint32_t f,
                  int steps) {
  DetectorConfig c;
  c.self = ProcessId{static_cast<std::uint32_t>(seed % n)};
  c.n = n;
  c.f = f;
  c.delta_journal_capacity = 16;  // small: journal overruns happen too
  DetectorCore core(c);
  Recorder rec;
  core.set_observer(&rec);
  ReferenceModel ref(n, c.self.value);
  Xoshiro256 rng(seed);
  std::set<std::uint32_t> responded;
  bool in_round = false;

  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const std::uint64_t op = rng.next_below(20);
    if (op < 11) {
      // T2 merge from a peer, a forged id outside Pi, never from self.
      std::uint32_t from = static_cast<std::uint32_t>(rng.next_below(n + 2));
      if (from == c.self.value) from = n + 2;
      const QueryMessage q = random_query(rng, n, ref);
      const ResponseMessage r = core.on_query(ProcessId{from}, q);
      EXPECT_EQ(r.seq, q.seq) << where;
      ref.on_query(from, q);
    } else if (op < 14 && !in_round) {
      core.begin_query();
      ref.begin_query();
      in_round = true;
      responded = {c.self.value};
      expect_same_state(core, ref, rec, n, where + " begin");
      // Every peer's payload, full or delta, against the reference.
      for (std::uint32_t p = 0; p < n; ++p) {
        if (p == c.self.value) continue;
        const ProcessId peer{p};
        const Epoch base =
            core.full_query_needed(peer) ? 0 : core.acked_epoch(peer);
        ASSERT_EQ(core.query_for(peer), ref.query(core.query_seq(), base))
            << where << " peer " << p << " base " << base;
      }
    } else if (op < 17 && in_round) {
      // Responses acknowledge the epoch the round's queries carried.
      const auto p = static_cast<std::uint32_t>(rng.next_below(n));
      ResponseMessage resp;
      resp.seq = core.query_seq();
      resp.ack_epoch = ref.epoch();
      (void)core.on_response(ProcessId{p}, resp);
      responded.insert(p);
    } else if (op < 19 && in_round) {
      // Top the round up to its quorum, then run T1's suspicion step.
      for (std::uint32_t p = 0; !core.query_terminated(); ++p) {
        ASSERT_LT(p, n) << where;
        (void)core.on_response(ProcessId{p}, ResponseMessage{core.query_seq()});
        responded.insert(p);
      }
      core.finish_round();
      ref.finish_round(responded);
      in_round = false;
    } else if (op == 19 && !in_round &&
               core.counter() < std::numeric_limits<Tag>::max() - 64) {
      // (A counter within 16 of 2^64 would wrap the injector's own draw
      // bounds to zero.)
      core.inject_transient_corruption(rng.next());
      ref.adopt_corruption(core);
    }
    expect_same_state(core, ref, rec, n, where);
  }
}

TEST(MergeDifferential, RandomSchedulesMatchLiteralT2Model) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::uint32_t n = 3 + static_cast<std::uint32_t>(seed % 10);
    run_schedule(seed, n, (n - 1) / 2, 400);
    if (HasFatalFailure()) return;
  }
}

TEST(MergeDifferential, UnrankableTagsRoundTripThroughTheSets) {
  // Tags at and above 2^62 have no rank word; every read of such an entry
  // must still see the set's tag and kind.
  DetectorConfig c;
  c.self = ProcessId{0};
  c.n = 4;
  c.f = 1;
  DetectorCore d(c);
  const Tag top = std::numeric_limits<Tag>::max();
  QueryMessage q;
  q.push_suspected({ProcessId{1}, kHugeTagFloor});
  q.push_mistake({ProcessId{2}, top});
  (void)d.on_query(ProcessId{1}, q);
  EXPECT_TRUE(d.is_suspected(ProcessId{1}));
  EXPECT_FALSE(d.is_suspected(ProcessId{2}));
  EXPECT_EQ(d.mistake_set().tag_of(ProcessId{2}), top);
  // A replay is a no-op; a tie as a mistake beats the suspicion.
  (void)d.on_query(ProcessId{1}, q);
  QueryMessage tie;
  tie.push_mistake({ProcessId{1}, kHugeTagFloor});
  (void)d.on_query(ProcessId{3}, tie);
  EXPECT_FALSE(d.is_suspected(ProcessId{1}));
  EXPECT_EQ(d.mistake_set().tag_of(ProcessId{1}), kHugeTagFloor);
  EXPECT_EQ(d.state_epoch(), 3u);
}

}  // namespace
}  // namespace mmrfd::core
