// Deterministic discrete-event simulator.
//
// This is the substrate the paper's evaluation ran on (the authors used a
// discrete event simulator); we implement our own so the whole repository is
// self-contained. Design goals:
//   * Determinism: events with equal timestamps fire in scheduling order
//     (stable (time, seq) heap ordering), all randomness flows through
//     seeded Xoshiro streams, so a run is a pure function of its seed.
//   * Event heap: an implicit 4-ary min-heap keyed on (time, seq) in one
//     vector. seq is unique, so the key is a strict total order and the
//     firing sequence does not depend on the heap's shape. Four children
//     per node halve the depth of a binary heap (log4 vs log2 levels) and
//     sit side by side (96 bytes, at most two cache lines), so a pop's
//     sift-down — the hot path of a deep queue whose entries arrive at
//     random future times — visits half as many levels for one more
//     comparison per level. Children of index i sit at 4i+1 .. 4i+4, the
//     parent at (i-1)/4.
//     Cancellation is lazy: cancel() only bumps the slot's generation and
//     the stale entry is dropped when it reaches the top.
//   * Cancelability: schedule() returns a generation-checked EventId which
//     can be cancelled; cancelling a fired/cancelled/unknown id is a false
//     no-op.
//   * Allocation-free steady state: event nodes live in a slab and are
//     recycled through a free list; callables up to kCallableInlineSize
//     bytes are stored inline (small-buffer optimisation), so the
//     schedule/fire/cancel cycle performs no heap allocation once the slab
//     and heap vectors have reached their high-water marks.
//   * Virtual time: 64-bit nanoseconds; callbacks observe now() and may
//     schedule further events.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mmrfd::sim {

/// Handle to a scheduled event: packs (slot, generation) so a stale handle —
/// the event fired, was cancelled, or its slot was recycled — is detected
/// instead of aliasing a newer event. kNoEvent never names an event.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

namespace detail {

/// Inline capacity of an event callable. Sized so the simulator's hot
/// closures — network deliveries capturing {Network*, from, to, payload}
/// and detector timers capturing {Detector*, peer} — never heap-allocate.
inline constexpr std::size_t kCallableInlineSize = 80;

/// Move-only type-erased `void()` with small-buffer optimisation. Unlike
/// std::function it never copies, has a fixed 88-byte footprint, and only
/// heap-allocates for captures larger than kCallableInlineSize.
class Callable {
 public:
  Callable() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callable> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callable(F&& f) {  // NOLINT(google-explicit-constructor): function-like
    using Fn = std::decay_t<F>;
    if constexpr (kInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = &InlineOps<Fn>::kVt;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &HeapOps<Fn>::kVt;
    }
  }

  Callable(Callable&& other) noexcept { move_from(other); }
  Callable& operator=(Callable&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callable(const Callable&) = delete;
  Callable& operator=(const Callable&) = delete;
  ~Callable() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  void operator()() {
    assert(vt_ != nullptr);
    vt_->invoke(storage_);
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs dst from src, then destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool kInline =
      sizeof(Fn) <= kCallableInlineSize &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*std::launder(static_cast<Fn*>(p)))(); }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = std::launder(static_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept {
      std::launder(static_cast<Fn*>(p))->~Fn();
    }
    static constexpr VTable kVt{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* ptr(void* p) { return *std::launder(static_cast<Fn**>(p)); }
    static void invoke(void* p) { (*ptr(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn*(ptr(src));
    }
    static void destroy(void* p) noexcept { delete ptr(p); }
    static constexpr VTable kVt{&invoke, &relocate, &destroy};
  };

  void move_from(Callable& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(storage_, other.storage_);
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCallableInlineSize];
  const VTable* vt_{nullptr};
};

}  // namespace detail

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0). Returns an id
  /// usable with cancel().
  template <typename F>
  EventId schedule(Duration delay, F&& fn) {
    assert(delay >= Duration::zero());
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute virtual time (>= now()).
  template <typename F>
  EventId schedule_at(TimePoint when, F&& fn) {
    assert(when >= now_);
    const std::uint32_t slot = acquire_slot();
    Node& node = nodes_[slot];
    node.fn = detail::Callable(std::forward<F>(fn));
    // seq_ is a pure scheduling counter (not reused on recycle): equal
    // timestamps fire in scheduling order, which is what makes a run a pure
    // function of its seed.
    heap_push(HeapEntry{when, next_seq_++, slot, node.generation});
    return pack(slot, node.generation);
  }

  /// Cancels a pending event. Returns true iff the event was still pending;
  /// cancelling an already-fired, already-cancelled or unknown id is a
  /// `false` no-op (the generation check catches recycled slots too).
  bool cancel(EventId id);

  /// Fires every pending event whose time is <= `deadline`, in (time, seq)
  /// order, then advances now() to `deadline` even when the queue ran dry
  /// earlier, so consecutive run_for() calls compose. Two exceptions leave
  /// now() at the last fired event: a stop() during the run, and the
  /// run_all() deadline kTimeMax, which is a sentinel, not a time.
  void run_until(TimePoint deadline);

  /// Runs for `d` of virtual time from now().
  void run_for(Duration d) { run_until(now_ + d); }

  /// Runs until the queue is empty (use with care: periodic tasks never
  /// drain the queue).
  void run_all();

  /// Requests the current run_*() call to return after the current event.
  void stop() { stop_requested_ = true; }

  /// Number of events fired so far (diagnostics/benchmarks).
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }

  /// Number of heap entries currently pending (including entries whose
  /// event was cancelled and not yet popped).
  [[nodiscard]] std::size_t events_pending() const { return heap_.size(); }

  /// Number of live (scheduled, not yet fired/cancelled) events.
  [[nodiscard]] std::size_t events_live() const { return live_; }

  /// Timestamp of the earliest pending event, or kTimeMax when the queue is
  /// empty. Non-const: stale residue of cancelled events is popped on the
  /// way (the same lazy sweep run_until performs). The sharded engine uses
  /// this to size the next conservative window without firing anything.
  [[nodiscard]] TimePoint next_event_time();

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct Node {
    detail::Callable fn;
    /// Bumped every time the slot is disarmed (fire or cancel), so stale
    /// EventIds and stale heap entries are recognised. Wraps after 2^32
    /// arms of one slot — far beyond any run this simulator drives.
    std::uint32_t generation{0};
    std::uint32_t next_free{kNilSlot};
  };

  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Heap order: earlier time first, then scheduling order (stable FIFO
  /// among equal timestamps).
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  static constexpr std::size_t kArity = 4;

  static constexpr EventId pack(std::uint32_t slot, std::uint32_t generation) {
    // +1 keeps kNoEvent (0) unreachable.
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// Pops a node off the free list (growing the slab if empty).
  std::uint32_t acquire_slot();
  /// Disarms `slot`: bumps the generation, drops the callable, recycles.
  void release_slot(std::uint32_t slot);

  /// Inserts `e` (sift-up from the new leaf).
  void heap_push(const HeapEntry& e);
  /// Removes heap_.front() (the last leaf sifts down from the root).
  void heap_pop();
  /// True iff the top entry belongs to a cancelled event.
  [[nodiscard]] bool top_is_stale() const {
    const HeapEntry& top = heap_.front();
    return nodes_[top.slot].generation != top.generation;
  }

  TimePoint now_{kTimeZero};
  std::uint64_t next_seq_{1};
  std::uint64_t events_fired_{0};
  std::size_t live_{0};
  bool stop_requested_{false};
  std::vector<HeapEntry> heap_;  // 4-ary min-heap under before()
  std::vector<Node> nodes_;
  std::uint32_t free_head_{kNilSlot};
};

}  // namespace mmrfd::sim
