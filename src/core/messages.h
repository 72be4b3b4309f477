// Wire messages of the query-response protocol.
//
// A QUERY carries the sender's suspected and mistake sets (tagged entries);
// a RESPONSE carries the echoed query sequence number plus the delta-mode
// acknowledgement — all failure information travels in queries, exactly as
// in the paper.
//
// Two encodings exist for the query payload:
//   * full  — the canonical reference: every entry of both sets. This is
//     what the paper sends and what the equivalence harness diffs against.
//   * delta — only the entries changed since `base_epoch`, the epoch this
//     peer last acknowledged; the long-stable remainder of the sets is
//     *interned* by that single integer (see common::ChangeJournal).
// Both encodings merge to identical receiver state: tags are monotone, so
// every entry a delta omits would have been a no-op replay.
//
// Layout note: the suspected and mistake entries share ONE vector
// (suspected first, `suspected_count` marks the split). Besides halving the
// allocations per query, this keeps sizeof(QueryMessage) at 56 bytes so a
// simulated delivery event capturing {Network*, from, to, variant<Query,
// Response>} still fits the simulator's 80-byte inline-callable budget —
// growing the message would silently push every delivery onto the heap.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/tagged_set.h"
#include "common/types.h"

namespace mmrfd::core {

struct QueryMessage {
  QuerySeq seq{0};

  /// Sender-state epoch this query brings the receiver to (0 when the
  /// sender does not track epochs, i.e. reference full mode). Echoed back
  /// in ResponseMessage::ack_epoch.
  Epoch epoch{0};

  /// Delta encoding only: the previously-acknowledged epoch this delta
  /// builds on. 0 (with the delta flag clear) means self-contained.
  Epoch base_epoch{0};

  /// entries[0, suspected_count) are suspicions; the rest are mistakes.
  std::vector<TaggedEntry> entries;
  std::uint32_t suspected_count{0};

  /// Bit 0: delta encoding (entries list only changes since base_epoch).
  std::uint8_t flags{0};

  static constexpr std::uint8_t kDeltaFlag = 1;

  [[nodiscard]] bool is_delta() const { return (flags & kDeltaFlag) != 0; }
  void set_delta(bool delta) {
    flags = delta ? (flags | kDeltaFlag)
                  : static_cast<std::uint8_t>(flags & ~kDeltaFlag);
  }

  [[nodiscard]] std::span<const TaggedEntry> suspected() const {
    return {entries.data(), suspected_count};
  }
  [[nodiscard]] std::span<const TaggedEntry> mistakes() const {
    return {entries.data() + suspected_count,
            entries.size() - suspected_count};
  }

  /// Builder helpers maintaining the suspected-before-mistakes split.
  void push_suspected(TaggedEntry e) {
    entries.insert(entries.begin() + suspected_count, e);
    ++suspected_count;
  }
  void push_mistake(TaggedEntry e) { entries.push_back(e); }

  friend bool operator==(const QueryMessage&, const QueryMessage&) = default;
};

struct ResponseMessage {
  QuerySeq seq{0};

  /// Echo of the query's epoch: everything up to it is now merged (0 from
  /// epoch-less full-mode queries).
  Epoch ack_epoch{0};

  /// Set when the responder received a delta whose base it never
  /// acknowledged (state loss / restart): the sender must drop its
  /// watermark for this peer and fall back to the full encoding.
  bool need_full{false};

  /// The responder's *own* current round sequence at the moment it
  /// answered (0 = not carried). Purely observational — never read by the
  /// protocol, nor by the TraceAssembler: the querier records it as a
  /// kPeerRound trace record, which only `mmrfd-trace timeline` shows. Only
  /// the live path sets it; the simulator leaves it 0, keeping encoded
  /// bytes and fixed-seed digests identical.
  QuerySeq origin_seq{0};

  friend bool operator==(const ResponseMessage&,
                         const ResponseMessage&) = default;
};

// The 56-byte bound is an ABI fact of libstdc++/libc++ (24-byte vector);
// MSVC debug iterators make vectors 32 bytes, where the simulator budget
// does not apply anyway (the event-heap perf work targets the Linux build).
#if defined(__GLIBCXX__) || defined(_LIBCPP_VERSION)
static_assert(sizeof(QueryMessage) <= 56,
              "QueryMessage must stay within the simulator's inline-event "
              "budget (see layout note above)");
#endif

}  // namespace mmrfd::core
