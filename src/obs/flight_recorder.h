// Flight recorder: a fixed-size ring of compact binary trace records for
// post-hoc "what did this node actually do" forensics.
//
// Each record is 24 bytes — timestamp, monotone sequence number, two
// 32-bit operands and a kind tag. The clock is pluggable so the same
// recorder works stamped by simulated time inside a deterministic run and
// by the wall clock inside a real process; recording never draws
// randomness, never schedules events, and never allocates (the ring is
// sized once at construction), so it is safe to wire through the
// fixed-seed golden-digest paths.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mmrfd::obs {

// Pluggable timestamp source: a plain function pointer plus context so the
// recorder can be stamped from a Simulation without obs depending on sim.
struct TraceClock {
  std::uint64_t (*now_ns)(const void* ctx) = nullptr;
  const void* ctx = nullptr;

  std::uint64_t now() const { return now_ns ? now_ns(ctx) : 0; }
};

// UNIX-epoch nanoseconds from the system clock — the live-path default.
TraceClock wall_trace_clock();

enum class TraceKind : std::uint8_t {
  kRoundOpen = 1,    // a = round seq
  kRoundClose = 2,   // a = round seq, b = |suspected|
  kQueryRx = 3,      // a = peer, b = query seq
  kSuspectAdd = 4,   // a = subject, b = low 32 bits of tag
  kSuspectDrop = 5,  // a = subject, b = low 32 bits of tag
  kNeedFullTx = 6,   // a = peer (we could not decode their delta)
  kNeedFullRx = 7,   // a = peer (they could not decode ours)
  kResync = 8,       // a = journal epoch at reset
  kGiveUpSkip = 9,   // a = peer skipped this round
  kResendWave = 10,  // a = wave number, b = silent peer count

  // Causal-tracing kinds: these name the *remote* event a local record was
  // caused by, so the TraceAssembler can stitch per-node rings into one
  // cross-node happened-before graph.
  kQuorum = 11,         // a = round seq (low 32), b = responders at quorum
  kQueryTxSeq = 12,     // a = peer, b = our round seq (low 32)
  kResponseTxSeq = 13,  // a = peer, b = echoed query seq (low 32)
  kResponseRxSeq = 14,  // a = peer, b = echoed query seq (low 32)
  kPeerRound = 15,      // a = peer, b = peer's own round seq off the wire
};

// Largest valid TraceKind value; kinds are numbered densely, so anything
// outside [1, kMaxTraceKind] in a loaded dump is a torn or corrupt record
// and gets dropped.
inline constexpr std::uint8_t kMaxTraceKind = 15;

std::string_view trace_kind_name(TraceKind kind);

// Inverse of trace_kind_name, for parsing text dumps. Returns 0 (an
// invalid kind) when the name is unknown.
TraceKind trace_kind_from_name(std::string_view name);

struct TraceRecord {
  std::uint64_t t_ns{0};  // clock stamp
  std::uint64_t seq{0};   // monotone per-recorder sequence number
  std::uint32_t a{0};
  std::uint32_t b{0};
  TraceKind kind{};

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity,
                          TraceClock clock = wall_trace_clock());

  void set_clock(TraceClock clock);

  void record(TraceKind kind, std::uint32_t a = 0, std::uint32_t b = 0);

  // Surviving records, oldest first. At most capacity() entries; once the
  // ring wraps, the oldest records are the ones overwritten.
  std::vector<TraceRecord> snapshot() const;

  // Total records ever written (>= snapshot().size()).
  std::uint64_t recorded() const;
  std::size_t capacity() const { return ring_.size(); }

  // Human-readable dump, one record per line:
  //   <t_ns> #<seq> <kind> a=<a> b=<b>
  void dump_text(std::ostream& out) const;
  // dump_text to `path` (truncate); returns false on I/O failure.
  bool dump_to_file(const std::string& path) const;

  // Binary dump, ASYNC-SIGNAL-SAFE: no locks, no allocation, no iostream —
  // only write(2) on an already-open fd. Intended for fatal-signal
  // handlers, where a concurrently-writing recorder may leave one torn
  // record in the ring; the loader drops records whose kind falls outside
  // [1, kMaxTraceKind]. Layout (little-endian):
  //   8-byte magic "MMRTRCB2", u64 total, u64 capacity,
  //   capacity x { u64 t_ns, u64 seq, u32 a, u32 b, u8 kind }
  // Returns false if any write(2) fails.
  bool dump_binary_fd(int fd) const noexcept;
  // dump_binary_fd to `path` (truncate). Also lock-free — only call from
  // a quiescent recorder outside the signal path (tests, shutdown).
  bool dump_binary_to_file(const std::string& path) const;

  // First bytes of every binary dump, so loaders can sniff the format. The
  // last byte names the TraceKind numbering: a dump written under another
  // numbering is rejected rather than misread.
  static constexpr char kBinaryMagic[8] = {'M', 'M', 'R', 'T',
                                           'R', 'C', 'B', '2'};

 private:
  mutable std::mutex mutex_;
  TraceClock clock_;
  std::vector<TraceRecord> ring_;
  std::uint64_t total_{0};
};

}  // namespace mmrfd::obs
