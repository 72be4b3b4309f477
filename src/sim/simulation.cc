#include "sim/simulation.h"

namespace mmrfd::sim {

std::uint32_t Simulation::acquire_slot() {
  std::uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = nodes_[slot].next_free;
    nodes_[slot].next_free = kNilSlot;
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    assert(slot != kNilSlot);
    nodes_.emplace_back();
  }
  ++live_;
  return slot;
}

void Simulation::release_slot(std::uint32_t slot) {
  Node& node = nodes_[slot];
  ++node.generation;  // invalidates every outstanding id/heap entry
  node.fn.reset();
  node.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void Simulation::heap_push(const HeapEntry& e) {
  // Hole technique: walk the hole up from the new leaf, moving each later
  // parent down into it, and write `e` once where it stops.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Simulation::heap_pop() {
  assert(!heap_.empty());
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  // Sift the old last leaf down from the root: at each level promote the
  // earliest of up to kArity children into the hole while it precedes
  // `last`.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t end = first + kArity < size ? first + kArity : size;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

bool Simulation::cancel(EventId id) {
  if (id == kNoEvent) return false;
  const auto slot_plus_one = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot_plus_one == 0 || slot_plus_one > nodes_.size()) return false;
  const std::uint32_t slot = slot_plus_one - 1;
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (nodes_[slot].generation != generation) {
    return false;  // already fired, already cancelled, or recycled
  }
  // The heap entry stays behind (lazy removal); popping recognises it as
  // stale by its generation and skips it without touching the node.
  release_slot(slot);
  return true;
}

TimePoint Simulation::next_event_time() {
  while (!heap_.empty() && top_is_stale()) {
    heap_pop();  // cancelled event's residue
  }
  return heap_.empty() ? kTimeMax : heap_.front().when;
}

void Simulation::run_until(TimePoint deadline) {
  stop_requested_ = false;
  while (!heap_.empty() && !stop_requested_) {
    if (top_is_stale()) {
      heap_pop();  // cancelled event's residue
      continue;
    }
    const HeapEntry top = heap_.front();
    if (top.when > deadline) break;
    heap_pop();
    // Move the callable out and recycle the slot *before* invoking, so the
    // callback can schedule (and even cancel) freely; its own id is already
    // stale by the time it runs.
    detail::Callable fn = std::move(nodes_[top.slot].fn);
    release_slot(top.slot);
    now_ = top.when;
    ++events_fired_;
    fn();
  }
  // Advance idle time to the deadline so run_for() composes, but never jump
  // to the run_all() sentinel.
  if (deadline != kTimeMax && now_ < deadline && !stop_requested_) {
    now_ = deadline;
  }
}

void Simulation::run_all() { run_until(kTimeMax); }

}  // namespace mmrfd::sim
