#include "obs/trace_assembler.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace mmrfd::obs {
namespace {

// One merged per-node event: record + which incarnation it came from.
struct NodeEvent {
  TraceRecord record;
  std::uint32_t incarnation{0};
};

// (peer, seq) -> first stamp + occurrence count, per causal role. Keys hit
// more than once (resent queries, duplicated responses) are excluded from
// skew matching: only clean first-try exchanges make trustworthy samples.
struct RoleSample {
  std::uint64_t t{0};
  std::uint32_t count{0};
};
using RoleMap = std::unordered_map<std::uint64_t, RoleSample>;

std::uint64_t role_key(std::uint32_t peer, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(peer) << 32) | seq;
}

void note(RoleMap& map, std::uint32_t peer, std::uint32_t seq,
          std::uint64_t t) {
  auto [it, inserted] = map.try_emplace(role_key(peer, seq), RoleSample{t, 1});
  if (!inserted) ++it->second.count;
}

const RoleSample* once(const RoleMap& map, std::uint64_t key) {
  const auto it = map.find(key);
  if (it == map.end() || it->second.count != 1) return nullptr;
  return &it->second;
}

struct PairEstimate {
  std::int64_t offset{0};  // clock(to) - clock(from), midpoint estimate
  std::uint64_t rtt{std::numeric_limits<std::uint64_t>::max()};
  std::size_t samples{0};
};

}  // namespace

TraceAssembler::TraceAssembler(AssemblerOptions options)
    : options_(options) {}

void TraceAssembler::add_node(TraceNodeInput input) {
  inputs_.push_back(std::move(input));
}

void TraceAssembler::add_crash(std::uint32_t victim, std::int64_t at_ns) {
  crashes_.emplace_back(victim, at_ns);
}

AssembledTrace TraceAssembler::assemble() const {
  AssembledTrace out;

  // --- merge incarnations per node, increasing (incarnation, seq) -----------
  std::map<std::uint32_t, std::vector<NodeEvent>> streams;
  for (const TraceNodeInput& in : inputs_) {
    auto& stream = streams[in.node];
    for (const TraceRecord& r : in.records) {
      stream.push_back(NodeEvent{r, in.incarnation});
    }
  }
  for (auto& [node, stream] : streams) {
    std::stable_sort(stream.begin(), stream.end(),
                     [](const NodeEvent& a, const NodeEvent& b) {
                       if (a.incarnation != b.incarnation) {
                         return a.incarnation < b.incarnation;
                       }
                       return a.record.seq < b.record.seq;
                     });
    out.records += stream.size();
  }

  // --- collect causal role maps ---------------------------------------------
  // Per node: qt = queries we sent (kQueryTxSeq), qr = queries we received,
  // rt = responses we sent, rr = responses we received.
  std::map<std::uint32_t, RoleMap> qt, qr, rt, rr;
  for (const auto& [node, stream] : streams) {
    for (const NodeEvent& e : stream) {
      const TraceRecord& r = e.record;
      switch (r.kind) {
        case TraceKind::kQueryTxSeq:
          note(qt[node], r.a, r.b, r.t_ns);
          break;
        case TraceKind::kQueryRx:
          note(qr[node], r.a, r.b, r.t_ns);
          break;
        case TraceKind::kResponseTxSeq:
          note(rt[node], r.a, r.b, r.t_ns);
          break;
        case TraceKind::kResponseRxSeq:
          note(rr[node], r.a, r.b, r.t_ns);
          break;
        default:
          break;
      }
    }
  }

  // --- match quadruples, estimate per-pair offsets --------------------------
  // For A's round s queried at B: t1 = A tx, t2 = B rx, t3 = B response tx,
  // t4 = A response rx. offset(B - A) = ((t2-t1) + (t3-t4)) / 2,
  // rtt = (t4-t1) - (t3-t2). Min-RTT sample per directed pair wins.
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairEstimate> pairs;
  std::map<std::uint32_t, std::size_t> node_samples;
  for (const auto& [a, a_qt] : qt) {
    for (const auto& [key, tx] : a_qt) {
      if (tx.count != 1) continue;
      const auto b = static_cast<std::uint32_t>(key >> 32);
      const auto b_it_qr = qr.find(b);
      const auto b_it_rt = rt.find(b);
      const auto a_it_rr = rr.find(a);
      if (b_it_qr == qr.end() || b_it_rt == rt.end() || a_it_rr == rr.end()) {
        continue;
      }
      const std::uint64_t seq = key & 0xffffffffu;
      const RoleSample* t2 = once(b_it_qr->second, role_key(a, seq));
      const RoleSample* t3 = once(b_it_rt->second, role_key(a, seq));
      const RoleSample* t4 = once(a_it_rr->second, role_key(b, seq));
      if (t2 == nullptr || t3 == nullptr || t4 == nullptr) continue;
      const auto t1s = static_cast<std::int64_t>(tx.t);
      const auto t2s = static_cast<std::int64_t>(t2->t);
      const auto t3s = static_cast<std::int64_t>(t3->t);
      const auto t4s = static_cast<std::int64_t>(t4->t);
      const std::int64_t rtt = (t4s - t1s) - (t3s - t2s);
      if (t4s < t1s || t3s < t2s || rtt < 0) continue;  // inconsistent
      const std::int64_t offset = ((t2s - t1s) + (t3s - t4s)) / 2;
      ++out.matched_pairs;
      ++node_samples[a];
      ++node_samples[b];
      auto& est = pairs[{a, b}];
      ++est.samples;
      if (static_cast<std::uint64_t>(rtt) < est.rtt) {
        est.rtt = static_cast<std::uint64_t>(rtt);
        est.offset = offset;
      }
    }
  }

  // --- anchor offsets via a min-RTT spanning tree (Prim) --------------------
  std::map<std::uint32_t, std::int64_t> offset;
  std::map<std::uint32_t, std::uint64_t> tree_rtt;
  if (!streams.empty()) {
    const std::uint32_t reference = streams.begin()->first;
    offset[reference] = 0;
    tree_rtt[reference] = 0;
    if (!options_.estimate_skew) {
      // One shared clock frame (the simulator): identity alignment.
      for (const auto& [node, stream] : streams) {
        offset[node] = 0;
        tree_rtt[node] = 0;
      }
    } else {
      while (true) {
        std::uint64_t best_rtt = std::numeric_limits<std::uint64_t>::max();
        std::uint32_t best_node = 0;
        std::int64_t best_offset = 0;
        bool found = false;
        for (const auto& [edge, est] : pairs) {
          const auto [u, v] = edge;
          // Edge usable in either direction: u settled extends to v, or v
          // settled extends to u (negated estimate).
          if (offset.contains(u) && !offset.contains(v) &&
              streams.contains(v) && est.rtt < best_rtt) {
            best_rtt = est.rtt;
            best_node = v;
            best_offset = offset.at(u) + est.offset;
            found = true;
          } else if (offset.contains(v) && !offset.contains(u) &&
                     streams.contains(u) && est.rtt < best_rtt) {
            best_rtt = est.rtt;
            best_node = u;
            best_offset = offset.at(v) - est.offset;
            found = true;
          }
        }
        if (!found) break;
        offset[best_node] = best_offset;
        tree_rtt[best_node] = best_rtt;
      }
    }
  }
  for (const auto& [node, stream] : streams) {
    SkewEstimate s;
    s.node = node;
    if (const auto it = offset.find(node); it != offset.end()) {
      s.offset_ns = it->second;
      s.min_rtt_ns = tree_rtt.at(node);
    } else {
      offset[node] = 0;  // unreachable: best effort, keep own clock
      s.reachable = false;
    }
    if (const auto it = node_samples.find(node); it != node_samples.end()) {
      s.samples = it->second;
    }
    out.skew.push_back(s);
  }

  const std::int64_t origin = static_cast<std::int64_t>(options_.origin_ns);
  const auto align = [&](std::uint32_t node, std::uint64_t t) {
    return static_cast<std::int64_t>(t) - origin - offset.at(node);
  };

  // --- causal sanity: alignment must never invert a matched tx -> rx pair ---
  for (const auto& [a, a_qt] : qt) {
    for (const auto& [key, tx] : a_qt) {
      if (tx.count != 1) continue;
      const auto b = static_cast<std::uint32_t>(key >> 32);
      const std::uint64_t seq = key & 0xffffffffu;
      if (const auto it = qr.find(b); it != qr.end()) {
        if (const RoleSample* rx = once(it->second, role_key(a, seq))) {
          if (align(b, rx->t) < align(a, tx.t)) ++out.causal_violations;
        }
      }
    }
  }
  for (const auto& [b, b_rt] : rt) {
    for (const auto& [key, tx] : b_rt) {
      if (tx.count != 1) continue;
      const auto a = static_cast<std::uint32_t>(key >> 32);
      const std::uint64_t seq = key & 0xffffffffu;
      if (const auto it = rr.find(a); it != rr.end()) {
        if (const RoleSample* rx = once(it->second, role_key(b, seq))) {
          if (align(a, rx->t) < align(b, tx.t)) ++out.causal_violations;
        }
      }
    }
  }

  // --- per-crash critical paths ---------------------------------------------
  std::vector<std::uint32_t> victims;
  for (const auto& [victim, at] : crashes_) victims.push_back(victim);
  for (const auto& [victim, crash_ns] : crashes_) {
    CrashTimeline timeline;
    timeline.victim = victim;
    timeline.crash_ns = crash_ns;
    for (const auto& [node, stream] : streams) {
      if (std::find(victims.begin(), victims.end(), node) != victims.end()) {
        continue;  // mirror Analysis::correct(): crashed nodes never observe
      }
      // Victim-related narrative instants.
      for (const NodeEvent& e : stream) {
        const TraceRecord& r = e.record;
        if (r.a != victim) continue;
        const std::int64_t t = align(node, r.t_ns);
        if (r.kind == TraceKind::kQueryRx ||
            r.kind == TraceKind::kResponseRxSeq) {
          if (!timeline.last_heard_ns || t > *timeline.last_heard_ns) {
            timeline.last_heard_ns = t;
          }
        } else if (r.kind == TraceKind::kQueryTxSeq && t >= crash_ns) {
          if (!timeline.first_missed_ns || t < *timeline.first_missed_ns) {
            timeline.first_missed_ns = t;
          }
        }
      }
      // Final (permanent) suspicion of the victim — same definition as
      // metrics::Analysis: last kSuspectAdd with no later kSuspectDrop.
      std::ptrdiff_t suspect_idx = -1;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const TraceRecord& r = stream[i].record;
        if (r.a != victim) continue;
        if (r.kind == TraceKind::kSuspectAdd) {
          suspect_idx = static_cast<std::ptrdiff_t>(i);
        } else if (r.kind == TraceKind::kSuspectDrop) {
          suspect_idx = -1;
        }
      }
      if (suspect_idx < 0) {
        ++timeline.undetected;
        continue;
      }
      ObserverBreakdown ob;
      ob.observer = node;
      ob.detect_ns = align(node, stream[suspect_idx].record.t_ns);
      ob.latency_ns = ob.detect_ns - crash_ns;
      // The detecting round: last kRoundOpen (same incarnation) before the
      // suspicion record.
      std::ptrdiff_t open_idx = -1;
      for (std::ptrdiff_t i = suspect_idx - 1; i >= 0; --i) {
        if (stream[i].incarnation != stream[suspect_idx].incarnation) break;
        if (stream[i].record.kind == TraceKind::kRoundOpen) {
          open_idx = i;
          break;
        }
      }
      if (ob.latency_ns < 0 || open_idx < 0) {
        // Pre-crash suspicion that stuck, or a ring too small to still hold
        // the round open: no meaningful split — fold it all into pacing so
        // the components still sum to the latency.
        ob.pacing_ns = ob.latency_ns;
        timeline.observers.push_back(ob);
        continue;
      }
      ob.round_seq = stream[open_idx].record.a;
      const std::int64_t t_open = align(node, stream[open_idx].record.t_ns);
      std::optional<std::int64_t> t_quorum;
      std::optional<std::int64_t> t_last_wave;
      for (std::ptrdiff_t i = open_idx + 1; i < suspect_idx; ++i) {
        const TraceRecord& r = stream[i].record;
        if (r.kind == TraceKind::kResendWave) {
          ++ob.resend_waves;
          t_last_wave = align(node, r.t_ns);
        } else if (r.kind == TraceKind::kQuorum && r.a == ob.round_seq &&
                   !t_quorum) {
          t_quorum = align(node, r.t_ns);
        }
      }
      // Exactly-summing split (see header). base..tq is the in-round span;
      // everything outside it is pacing. All clamps only move boundaries
      // within [base, detect], so pacing + resend_wait + wire == latency.
      const std::int64_t base = std::max(crash_ns, t_open);
      const std::int64_t tq =
          t_quorum ? std::clamp(*t_quorum, base, ob.detect_ns) : ob.detect_ns;
      const std::int64_t wave =
          t_last_wave ? std::clamp(*t_last_wave, base, tq) : base;
      ob.resend_wait_ns = wave - base;
      ob.wire_ns = tq - wave;
      ob.pacing_ns = std::max<std::int64_t>(0, t_open - crash_ns) +
                     (ob.detect_ns - tq);
      timeline.observers.push_back(ob);
    }
    if (timeline.undetected == 0 && !timeline.observers.empty()) {
      std::int64_t stable = timeline.observers.front().detect_ns;
      for (const ObserverBreakdown& ob : timeline.observers) {
        stable = std::max(stable, ob.detect_ns);
      }
      timeline.stable_ns = stable;
    }
    out.crashes.push_back(std::move(timeline));
  }

  // --- optional merged timeline ---------------------------------------------
  if (options_.keep_timeline) {
    for (const auto& [node, stream] : streams) {
      for (const NodeEvent& e : stream) {
        out.timeline.push_back(TimelineEvent{align(node, e.record.t_ns), node,
                                             e.incarnation, e.record});
      }
    }
    std::stable_sort(out.timeline.begin(), out.timeline.end(),
                     [](const TimelineEvent& a, const TimelineEvent& b) {
                       return a.t_ns < b.t_ns;
                     });
  }
  return out;
}

// --- dump loading ------------------------------------------------------------

namespace {

std::optional<std::vector<TraceRecord>> load_binary(const std::string& data) {
  constexpr std::size_t kHeader = 24;
  constexpr std::size_t kRecord = 29;
  if (data.size() < kHeader) return std::nullopt;
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    return v;
  };
  const auto u32_at = [&](std::size_t pos) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    return v;
  };
  const std::uint64_t total = u64_at(8);
  const std::uint64_t capacity = u64_at(16);
  // A fatal-signal dump may be truncated mid-stream — take every complete
  // record that made it out, but reject a capacity the header itself lies
  // about (bigger than the file could ever hold).
  const std::size_t stored = (data.size() - kHeader) / kRecord;
  if (capacity > (1u << 26) || stored > capacity) return std::nullopt;
  std::vector<TraceRecord> records;
  records.reserve(stored);
  for (std::size_t i = 0; i < stored; ++i) {
    const std::size_t pos = kHeader + i * kRecord;
    TraceRecord r;
    r.t_ns = u64_at(pos);
    r.seq = u64_at(pos + 8);
    r.a = u32_at(pos + 16);
    r.b = u32_at(pos + 20);
    const auto kind = static_cast<unsigned char>(data[pos + 28]);
    if (kind == 0 || kind > kMaxTraceKind) continue;  // unused or torn slot
    if (r.seq >= total) continue;                     // torn seq
    r.kind = static_cast<TraceKind>(kind);
    records.push_back(r);
  }
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.seq < b.seq;
            });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const TraceRecord& a, const TraceRecord& b) {
                              return a.seq == b.seq;
                            }),
                records.end());
  return records;
}

std::optional<std::vector<TraceRecord>> load_text(const std::string& data) {
  std::vector<TraceRecord> records;
  std::istringstream in(data);
  std::string line;
  while (std::getline(in, line)) {
    // <t_ns> #<seq> <kind> a=<a> b=<b>
    std::istringstream ls(line);
    std::uint64_t t_ns = 0;
    std::string seq_tok, name, a_tok, b_tok;
    if (!(ls >> t_ns >> seq_tok >> name >> a_tok >> b_tok)) continue;
    if (seq_tok.size() < 2 || seq_tok[0] != '#') continue;
    if (a_tok.rfind("a=", 0) != 0 || b_tok.rfind("b=", 0) != 0) continue;
    const TraceKind kind = trace_kind_from_name(name);
    if (static_cast<std::uint8_t>(kind) == 0) continue;  // unknown kind
    TraceRecord r;
    r.t_ns = t_ns;
    r.kind = kind;
    try {
      r.seq = std::stoull(seq_tok.substr(1));
      r.a = static_cast<std::uint32_t>(std::stoul(a_tok.substr(2)));
      r.b = static_cast<std::uint32_t>(std::stoul(b_tok.substr(2)));
    } catch (...) {
      continue;
    }
    records.push_back(r);
  }
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.seq < b.seq;
            });
  return records;
}

}  // namespace

std::optional<std::vector<TraceRecord>> load_trace_records(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  constexpr std::size_t kMagic = sizeof(FlightRecorder::kBinaryMagic);
  if (data.size() >= kMagic &&
      data.compare(0, kMagic - 1, FlightRecorder::kBinaryMagic,
                   kMagic - 1) == 0) {
    // Binary, but possibly under another TraceKind numbering (the version
    // byte): reject it rather than misread its kinds.
    if (data[kMagic - 1] != FlightRecorder::kBinaryMagic[kMagic - 1]) {
      return std::nullopt;
    }
    return load_binary(data);
  }
  return load_text(data);
}

std::optional<std::pair<std::uint32_t, std::uint32_t>> parse_trace_filename(
    std::string_view filename) {
  // node<i>.g<g>[...], the supervisor's report naming.
  constexpr std::string_view kPrefix = "node";
  if (filename.rfind(kPrefix, 0) != 0) return std::nullopt;
  std::size_t pos = kPrefix.size();
  const auto digits = [&](std::uint32_t& out_value) {
    std::uint64_t v = 0;
    std::size_t len = 0;
    while (pos < filename.size() && filename[pos] >= '0' &&
           filename[pos] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(filename[pos] - '0');
      if (v > std::numeric_limits<std::uint32_t>::max()) return false;
      ++pos;
      ++len;
    }
    out_value = static_cast<std::uint32_t>(v);
    return len > 0;
  };
  std::uint32_t node = 0;
  std::uint32_t gen = 0;
  if (!digits(node)) return std::nullopt;
  if (filename.compare(pos, 2, ".g") != 0) return std::nullopt;
  pos += 2;
  if (!digits(gen)) return std::nullopt;
  return std::make_pair(node, gen);
}

// --- run manifest ------------------------------------------------------------

bool write_manifest(const std::string& path, const TraceManifest& manifest) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "mmrfd-trace-manifest v1\n";
  out << "n " << manifest.n << '\n';
  out << "origin_ns " << manifest.origin_ns << '\n';
  out << "pacing_ns " << manifest.pacing_ns << '\n';
  out << "resend_ns " << manifest.resend_ns << '\n';
  for (const auto& c : manifest.crashes) {
    out << "crash " << c.victim << ' ' << c.at_ns << ' '
        << (c.restarted ? 1 : 0) << '\n';
  }
  for (const auto& t : manifest.traces) {
    out << "trace " << t.node << ' ' << t.incarnation << ' ' << t.file
        << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

std::optional<TraceManifest> load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "mmrfd-trace-manifest v1") {
    return std::nullopt;
  }
  TraceManifest m;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;
    if (tag == "n") {
      ls >> m.n;
    } else if (tag == "origin_ns") {
      ls >> m.origin_ns;
    } else if (tag == "pacing_ns") {
      ls >> m.pacing_ns;
    } else if (tag == "resend_ns") {
      ls >> m.resend_ns;
    } else if (tag == "crash") {
      TraceManifest::Crash c;
      int restarted = 0;
      if (ls >> c.victim >> c.at_ns >> restarted) {
        c.restarted = restarted != 0;
        m.crashes.push_back(c);
      }
    } else if (tag == "trace") {
      TraceManifest::Entry e;
      if (ls >> e.node >> e.incarnation >> e.file) {
        m.traces.push_back(std::move(e));
      }
    }
  }
  return m;
}

std::optional<AssembledTrace> assemble_from_dir(const std::string& dir,
                                                bool estimate_skew,
                                                bool keep_timeline) {
  const auto manifest =
      load_manifest(dir + "/" + std::string(kTraceManifestName));
  if (!manifest) return std::nullopt;
  AssemblerOptions options;
  options.n = manifest->n;
  options.origin_ns = manifest->origin_ns;
  options.estimate_skew = estimate_skew;
  options.keep_timeline = keep_timeline;
  TraceAssembler assembler(options);
  for (const auto& entry : manifest->traces) {
    auto records = load_trace_records(dir + "/" + entry.file);
    if (!records) continue;  // a missing dump degrades, not fails, assembly
    assembler.add_node(
        TraceNodeInput{entry.node, entry.incarnation, std::move(*records)});
  }
  for (const auto& crash : manifest->crashes) {
    assembler.add_crash(crash.victim, crash.at_ns);
  }
  return assembler.assemble();
}

// --- emitters ----------------------------------------------------------------

namespace {

void json_opt(std::ostringstream& out, std::string_view key,
              const std::optional<std::int64_t>& v) {
  out << '"' << key << "\": ";
  if (v) {
    out << *v;
  } else {
    out << "null";
  }
}

}  // namespace

std::string to_json(const AssembledTrace& trace) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"records\": " << trace.records << ",\n";
  out << "  \"matched_pairs\": " << trace.matched_pairs << ",\n";
  out << "  \"causal_violations\": " << trace.causal_violations << ",\n";
  out << "  \"skew\": [\n";
  for (std::size_t i = 0; i < trace.skew.size(); ++i) {
    const SkewEstimate& s = trace.skew[i];
    out << "    {\"node\": " << s.node << ", \"offset_ns\": " << s.offset_ns
        << ", \"min_rtt_ns\": " << s.min_rtt_ns
        << ", \"samples\": " << s.samples
        << ", \"reachable\": " << (s.reachable ? "true" : "false") << "}"
        << (i + 1 < trace.skew.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"crashes\": [\n";
  for (std::size_t i = 0; i < trace.crashes.size(); ++i) {
    const CrashTimeline& c = trace.crashes[i];
    out << "    {\"victim\": " << c.victim << ", \"crash_ns\": " << c.crash_ns
        << ", ";
    json_opt(out, "last_heard_ns", c.last_heard_ns);
    out << ", ";
    json_opt(out, "first_missed_ns", c.first_missed_ns);
    out << ", ";
    json_opt(out, "stable_ns", c.stable_ns);
    out << ", \"undetected\": " << c.undetected << ",\n";
    out << "     \"observers\": [\n";
    for (std::size_t j = 0; j < c.observers.size(); ++j) {
      const ObserverBreakdown& ob = c.observers[j];
      out << "       {\"observer\": " << ob.observer
          << ", \"detect_ns\": " << ob.detect_ns
          << ", \"latency_ns\": " << ob.latency_ns
          << ", \"pacing_ns\": " << ob.pacing_ns
          << ", \"resend_wait_ns\": " << ob.resend_wait_ns
          << ", \"wire_ns\": " << ob.wire_ns
          << ", \"round_seq\": " << ob.round_seq
          << ", \"resend_waves\": " << ob.resend_waves << "}"
          << (j + 1 < c.observers.size() ? "," : "") << '\n';
    }
    out << "     ]}" << (i + 1 < trace.crashes.size() ? "," : "") << '\n';
  }
  out << "  ]";
  if (!trace.timeline.empty()) {
    out << ",\n  \"timeline\": [\n";
    for (std::size_t i = 0; i < trace.timeline.size(); ++i) {
      const TimelineEvent& e = trace.timeline[i];
      out << "    {\"t_ns\": " << e.t_ns << ", \"node\": " << e.node
          << ", \"incarnation\": " << e.incarnation << ", \"kind\": \""
          << trace_kind_name(e.record.kind) << "\", \"a\": " << e.record.a
          << ", \"b\": " << e.record.b << "}"
          << (i + 1 < trace.timeline.size() ? "," : "") << '\n';
    }
    out << "  ]";
  }
  out << "\n}\n";
  return out.str();
}

namespace {

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void write_text(std::ostream& out, const AssembledTrace& trace) {
  out << "assembled " << trace.records << " records, "
      << trace.matched_pairs << " matched query/response pairs, "
      << trace.causal_violations << " causal violations\n";
  out << "clock skew (vs lowest-id node):\n";
  for (const SkewEstimate& s : trace.skew) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  node %-4u offset %+10.3f ms  min-rtt %8.3f ms  "
                  "samples %zu%s\n",
                  s.node, ms(s.offset_ns),
                  ms(static_cast<std::int64_t>(s.min_rtt_ns)), s.samples,
                  s.reachable ? "" : "  (UNREACHABLE — offset unknown)");
    out << line;
  }
  for (const CrashTimeline& c : trace.crashes) {
    out << "crash of node " << c.victim << " at " << ms(c.crash_ns)
        << " ms:\n";
    if (c.last_heard_ns) {
      out << "  last heard from victim: " << ms(*c.last_heard_ns) << " ms\n";
    }
    if (c.first_missed_ns) {
      out << "  first missed query:     " << ms(*c.first_missed_ns)
          << " ms\n";
    }
    out << "  observer   detect_ms   latency_ms    pacing_ms  "
           "resend_wait_ms      wire_ms  round  waves\n";
    for (const ObserverBreakdown& ob : c.observers) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-8u %11.3f %12.3f %12.3f %15.3f %12.3f %6u %6u\n",
                    ob.observer, ms(ob.detect_ns), ms(ob.latency_ns),
                    ms(ob.pacing_ns), ms(ob.resend_wait_ns), ms(ob.wire_ns),
                    ob.round_seq, ob.resend_waves);
      out << line;
    }
    if (c.stable_ns) {
      out << "  cluster-stable at " << ms(*c.stable_ns) << " ms ("
          << ms(*c.stable_ns - c.crash_ns) << " ms after the crash)\n";
    } else {
      out << "  NOT cluster-stable: " << c.undetected
          << " observer(s) never permanently suspected the victim\n";
    }
  }
}

void write_timeline(std::ostream& out, const AssembledTrace& trace) {
  for (const TimelineEvent& e : trace.timeline) {
    char line[160];
    std::snprintf(line, sizeof(line), "%14.6f ms  node %-4u g%-2u  %-16s",
                  ms(e.t_ns), e.node, e.incarnation,
                  std::string(trace_kind_name(e.record.kind)).c_str());
    out << line << " a=" << e.record.a << " b=" << e.record.b << '\n';
  }
}

}  // namespace mmrfd::obs
