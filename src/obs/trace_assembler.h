// TraceAssembler — stitches per-node flight-recorder rings into one
// cluster-wide causal timeline with detection-latency attribution.
//
// Input: one record stream per (node, incarnation) — loaded from SIGUSR1
// text dumps, crash-handler binary dumps, or taken straight from an
// in-memory FlightRecorder — plus the run's crash schedule. Output, per
// crash: the critical path crash → first missed query → each observer's
// permanent suspicion → cluster-stable detection, with every observer's
// detection latency split into three exactly-summing components:
//
//   round-pacing — time the detecting round had not yet opened (the crash
//                  fell inside the previous round / pacing window) plus
//                  the post-quorum pacing wait before finish_round;
//   resend-wait  — round open until the last resend wave the round needed
//                  (0 when the first transmission reached quorum);
//   wire         — last (re)transmission until the quorum instant: actual
//                  message propagation and response assembly.
//
// Clocks: each node stamps its ring with its own clock. The assembler
// estimates per-node skew NTP-style from matched query/response pairs —
// the kQueryTxSeq / kQueryRx / kResponseTxSeq / kResponseRxSeq causal
// records give (t1, t2, t3, t4) quadruples; the minimum-RTT sample per
// directed pair yields the midpoint offset estimate, and a min-RTT
// spanning tree (Prim) anchors every node to the lowest-id reference.
// With estimate_skew off (the simulator, where all rings share sim time)
// alignment is the identity and assembled latencies reproduce
// metrics::Analysis exactly — the differential test that certifies the
// assembler before it is trusted on live UDP dumps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"

namespace mmrfd::obs {

/// One (node, incarnation) record stream. Incarnations of the same node
/// are merged in increasing-incarnation order (a re-exec'd node's ring
/// continues, not replaces, its predecessor's timeline).
struct TraceNodeInput {
  std::uint32_t node{0};
  std::uint32_t incarnation{0};
  std::vector<TraceRecord> records;
};

struct AssemblerOptions {
  /// Cluster size (0 = infer as max node id + 1).
  std::uint32_t n{0};
  /// Estimate per-node clock skew from matched query/response pairs.
  /// Off = all rings share one clock frame (the simulator's ground truth).
  bool estimate_skew{true};
  /// Subtracted from every record stamp before alignment, translating
  /// wall-clock rings into the supervisor's origin-relative frame (the
  /// frame crash times are stamped in). 0 for simulator rings.
  std::uint64_t origin_ns{0};
  /// Keep the merged, aligned record stream in the result (timeline CLI).
  bool keep_timeline{false};
};

/// Estimated clock offset of one node relative to the reference node
/// (lowest node id present): aligned_t = local_t - offset_ns.
struct SkewEstimate {
  std::uint32_t node{0};
  std::int64_t offset_ns{0};
  std::uint64_t min_rtt_ns{0};  ///< RTT of the spanning-tree edge used
  std::size_t samples{0};       ///< matched quadruples involving this node
  bool reachable{true};         ///< false = no matched path to reference
};

/// One observer's detection of one crash, with the latency attribution.
/// pacing + resend_wait + wire == latency, exactly (negative latencies —
/// a pre-crash suspicion that stuck — degenerate to pacing == latency).
struct ObserverBreakdown {
  std::uint32_t observer{0};
  std::int64_t detect_ns{0};   ///< aligned instant of the final suspicion
  std::int64_t latency_ns{0};  ///< detect - crash (raw, can be negative)
  std::int64_t pacing_ns{0};
  std::int64_t resend_wait_ns{0};
  std::int64_t wire_ns{0};
  std::uint32_t round_seq{0};     ///< the detecting round at this observer
  std::uint32_t resend_waves{0};  ///< waves the detecting round needed
};

/// Critical path of one crash across the whole cluster.
struct CrashTimeline {
  std::uint32_t victim{0};
  std::int64_t crash_ns{0};
  /// Last aligned instant any observer heard from the victim.
  std::optional<std::int64_t> last_heard_ns;
  /// First aligned query transmission to the victim at/after the crash —
  /// the first response that will never come.
  std::optional<std::int64_t> first_missed_ns;
  std::vector<ObserverBreakdown> observers;  ///< detecting observers only
  /// Cluster-stable instant (every observer detected); unset otherwise.
  std::optional<std::int64_t> stable_ns;
  std::uint32_t undetected{0};  ///< observers with no permanent suspicion
};

/// One merged-timeline entry (populated only with keep_timeline).
struct TimelineEvent {
  std::int64_t t_ns{0};  ///< aligned, origin-relative
  std::uint32_t node{0};
  std::uint32_t incarnation{0};
  TraceRecord record;
};

struct AssembledTrace {
  std::vector<SkewEstimate> skew;
  std::vector<CrashTimeline> crashes;
  std::vector<TimelineEvent> timeline;  ///< empty unless keep_timeline
  std::size_t records{0};
  std::size_t matched_pairs{0};  ///< quadruples used for skew estimation
  /// Matched tx->rx pairs whose aligned order is inverted — 0 means the
  /// alignment never reordered causally-linked records.
  std::size_t causal_violations{0};
};

class TraceAssembler {
 public:
  explicit TraceAssembler(AssemblerOptions options);

  void add_node(TraceNodeInput input);
  void add_crash(std::uint32_t victim, std::int64_t at_ns);

  [[nodiscard]] AssembledTrace assemble() const;

 private:
  AssemblerOptions options_;
  std::vector<TraceNodeInput> inputs_;
  std::vector<std::pair<std::uint32_t, std::int64_t>> crashes_;
};

// --- dump loading ------------------------------------------------------------

/// Loads a `.trace` dump, sniffing the format: binary (kBinaryMagic, as
/// written by the fatal-signal handler) or text (dump_text lines). Torn or
/// corrupt binary records are dropped; nullopt = unreadable file / bad
/// header, including a binary dump of another kind numbering (another
/// version byte after the magic's "MMRTRCB"). Records come back seq-ordered.
std::optional<std::vector<TraceRecord>> load_trace_records(
    const std::string& path);

/// Parses node id and incarnation from a dump filename shaped like
/// `node<i>.g<g>[...]` (the supervisor's report naming).
std::optional<std::pair<std::uint32_t, std::uint32_t>> parse_trace_filename(
    std::string_view filename);

// --- run manifest ------------------------------------------------------------

/// What the supervisor writes next to the dumps so offline assembly knows
/// the run's shape. Plain line-oriented text ("mmrfd-trace-manifest v1").
struct TraceManifest {
  std::uint32_t n{0};
  std::uint64_t origin_ns{0};
  std::uint64_t pacing_ns{0};
  std::uint64_t resend_ns{0};
  struct Crash {
    std::uint32_t victim{0};
    std::int64_t at_ns{0};
    bool restarted{false};
  };
  std::vector<Crash> crashes;
  struct Entry {
    std::uint32_t node{0};
    std::uint32_t incarnation{0};
    std::string file;  ///< relative to the manifest's directory
  };
  std::vector<Entry> traces;
};

inline constexpr std::string_view kTraceManifestName = "trace_manifest.txt";

bool write_manifest(const std::string& path, const TraceManifest& manifest);
std::optional<TraceManifest> load_manifest(const std::string& path);

/// Loads `<dir>/trace_manifest.txt` plus every dump it lists and runs the
/// assembler. nullopt = missing/unreadable manifest.
std::optional<AssembledTrace> assemble_from_dir(const std::string& dir,
                                                bool estimate_skew = true,
                                                bool keep_timeline = false);

// --- emitters ----------------------------------------------------------------

/// Whole-result JSON document (skew, crashes, attribution; timeline
/// included when present).
std::string to_json(const AssembledTrace& trace);

/// Human-readable per-crash breakdown tables.
void write_text(std::ostream& out, const AssembledTrace& trace);

/// Chronological merged event listing (requires keep_timeline).
void write_timeline(std::ostream& out, const AssembledTrace& trace);

}  // namespace mmrfd::obs
