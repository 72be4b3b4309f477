// TraceAssembler unit suite: clock-skew recovery from synthetic rings with
// injected offsets, causal-order preservation, incarnation merging, the
// text/binary dump loaders (including torn fatal-signal dumps), filename
// parsing and the manifest round-trip.
#include "obs/trace_assembler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/flight_recorder.h"

namespace mmrfd::obs {
namespace {

// Builds per-node synthetic rings for a cluster where node i's clock reads
// true_time + offset[i]. Each exchange(a, b, seq, t1, d_out, proc, d_back)
// plants the full causal quadruple: A's query tx, B's rx, B's response tx,
// A's response rx — all stamped through the nodes' skewed clocks.
class SyntheticCluster {
 public:
  explicit SyntheticCluster(std::vector<std::int64_t> offsets)
      : offsets_(std::move(offsets)), seqs_(offsets_.size(), 0) {}

  void exchange(std::uint32_t a, std::uint32_t b, std::uint32_t seq,
                std::uint64_t t1, std::uint64_t d_out, std::uint64_t proc,
                std::uint64_t d_back) {
    add(a, TraceKind::kQueryTxSeq, b, seq, t1);
    add(b, TraceKind::kQueryRx, a, seq, t1 + d_out);
    add(b, TraceKind::kResponseTxSeq, a, seq, t1 + d_out + proc);
    add(a, TraceKind::kResponseRxSeq, b, seq, t1 + d_out + proc + d_back);
  }

  void add(std::uint32_t node, TraceKind kind, std::uint32_t a,
           std::uint32_t b, std::uint64_t true_t) {
    TraceRecord r;
    r.t_ns = static_cast<std::uint64_t>(static_cast<std::int64_t>(true_t) +
                                        offsets_[node]);
    r.seq = seqs_[node]++;
    r.a = a;
    r.b = b;
    r.kind = kind;
    records_[node].push_back(r);
  }

  [[nodiscard]] TraceAssembler assembler(bool estimate_skew = true) const {
    AssemblerOptions options;
    options.n = static_cast<std::uint32_t>(offsets_.size());
    options.estimate_skew = estimate_skew;
    TraceAssembler out(options);
    for (std::uint32_t i = 0; i < offsets_.size(); ++i) {
      auto it = records_.find(i);
      out.add_node(TraceNodeInput{
          i, 0,
          it == records_.end() ? std::vector<TraceRecord>{} : it->second});
    }
    return out;
  }

 private:
  std::vector<std::int64_t> offsets_;
  std::vector<std::uint64_t> seqs_;
  std::map<std::uint32_t, std::vector<TraceRecord>> records_;
};

constexpr std::uint64_t kBase = 1'000'000'000;  // keep skewed stamps positive

TEST(TraceAssembler, RecoversInjectedOffsetsExactlyUnderSymmetricDelays) {
  // Symmetric one-way delays make the NTP midpoint estimate exact: the
  // recovered offsets must match the injected ones to the nanosecond.
  const std::vector<std::int64_t> offsets = {0, 5'000'000, -3'000'000};
  SyntheticCluster cluster(offsets);
  for (std::uint32_t s = 1; s <= 4; ++s) {
    const std::uint64_t t = kBase + s * 10'000'000ull;
    cluster.exchange(0, 1, s, t, 400'000, 50'000, 400'000);
    cluster.exchange(0, 2, s, t + 1000, 300'000, 50'000, 300'000);
    cluster.exchange(1, 2, s, t + 2000, 500'000, 50'000, 500'000);
  }
  const AssembledTrace trace = cluster.assembler().assemble();
  ASSERT_EQ(trace.skew.size(), 3u);
  EXPECT_EQ(trace.matched_pairs, 12u);
  EXPECT_EQ(trace.causal_violations, 0u);
  for (const SkewEstimate& s : trace.skew) {
    EXPECT_TRUE(s.reachable) << "node " << s.node;
    EXPECT_EQ(s.offset_ns, offsets[s.node]) << "node " << s.node;
  }
}

TEST(TraceAssembler, RecoversOffsetsWithinJitterUnderAsymmetricDelays) {
  // Asymmetric per-sample jitter bounds the midpoint error by half the
  // asymmetry; the min-RTT sample keeps the estimate inside that band, and
  // alignment must never reorder a matched tx -> rx pair (the error stays
  // far below the one-way delay floor).
  const std::vector<std::int64_t> offsets = {-2'000'000, 0, 7'000'000,
                                             -500'000};
  constexpr std::uint64_t kFloor = 500'000;   // one-way delay floor (ns)
  constexpr std::uint64_t kJitter = 200'000;  // worst per-leg extra delay
  SyntheticCluster cluster(offsets);
  Xoshiro256 rng(42);
  for (std::uint32_t s = 1; s <= 32; ++s) {
    const std::uint64_t t = kBase + s * 5'000'000ull;
    for (std::uint32_t a = 0; a < 4; ++a) {
      for (std::uint32_t b = 0; b < 4; ++b) {
        if (a == b) continue;
        const auto jit = [&] {
          return static_cast<std::uint64_t>(rng.next_double() *
                                            static_cast<double>(kJitter));
        };
        cluster.exchange(a, b, s, t + a * 1000 + b, kFloor + jit(), 20'000,
                         kFloor + jit());
      }
    }
  }
  const AssembledTrace trace = cluster.assembler().assemble();
  ASSERT_EQ(trace.skew.size(), 4u);
  EXPECT_EQ(trace.causal_violations, 0u);
  for (const SkewEstimate& s : trace.skew) {
    EXPECT_TRUE(s.reachable);
    // Estimates are relative to the reference (lowest-id) node's clock.
    EXPECT_NEAR(static_cast<double>(s.offset_ns),
                static_cast<double>(offsets[s.node] - offsets[0]),
                static_cast<double>(kJitter) / 2.0)
        << "node " << s.node;
  }
}

TEST(TraceAssembler, SlowDriftStaysWithinToleranceAndCausallyOrdered) {
  // A 50 ppm relative drift over a 2 s window moves the true offset by
  // 100 us end to end; the single recovered offset must land inside the
  // swept range and alignment must still respect every matched pair.
  SyntheticCluster cluster({0, 0});
  for (std::uint32_t s = 1; s <= 40; ++s) {
    const std::uint64_t t = kBase + s * 50'000'000ull;
    // Node 1's clock gains 50 ppm: its stamps carry a drift that grows with
    // true time, applied by hand to its two legs of each quadruple.
    const auto drift = static_cast<std::int64_t>((t - kBase) / 20'000);
    cluster.add(0, TraceKind::kQueryTxSeq, 1, s, t);
    cluster.add(1, TraceKind::kQueryRx, 0, s,
                t + 400'000 + static_cast<std::uint64_t>(drift));
    cluster.add(1, TraceKind::kResponseTxSeq, 0, s,
                t + 420'000 + static_cast<std::uint64_t>(drift));
    cluster.add(0, TraceKind::kResponseRxSeq, 1, s, t + 820'000);
  }
  const AssembledTrace trace = cluster.assembler().assemble();
  ASSERT_EQ(trace.skew.size(), 2u);
  EXPECT_EQ(trace.causal_violations, 0u);
  const std::int64_t recovered = trace.skew[1].offset_ns;
  EXPECT_GE(recovered, 0);
  EXPECT_LE(recovered, 100'000);  // within the swept drift range
}

TEST(TraceAssembler, ResentExchangesAreExcludedFromSkewMatching) {
  SyntheticCluster cluster({0, 0});
  cluster.exchange(0, 1, 1, kBase, 400'000, 50'000, 400'000);
  cluster.exchange(0, 1, 2, kBase + 10'000'000, 400'000, 50'000, 400'000);
  // Round 2's query was retransmitted: a second kQueryTxSeq with the same
  // (peer, seq) disqualifies the whole quadruple — which of the two sends
  // the rx answered is unknowable.
  cluster.add(0, TraceKind::kQueryTxSeq, 1, 2, kBase + 11'000'000);
  const AssembledTrace trace = cluster.assembler().assemble();
  EXPECT_EQ(trace.matched_pairs, 1u);
}

TEST(TraceAssembler, IncarnationsMergeInOrderNotBySeq) {
  // A re-exec'd node restarts its recorder: incarnation 1's sequence
  // numbers start over at 0. The merged stream must still put incarnation
  // 0 first — here g0 suspects the victim and g1 (fresh state) drops the
  // suspicion, so the node's final verdict is "not suspected". Merging by
  // seq alone would invert that.
  AssemblerOptions options;
  options.n = 2;
  options.estimate_skew = false;
  TraceAssembler assembler(options);
  TraceRecord add;
  add.t_ns = kBase;
  add.seq = 500;  // deep into incarnation 0's life
  add.a = 1;
  add.kind = TraceKind::kSuspectAdd;
  TraceRecord drop;
  drop.t_ns = kBase + 1'000'000;
  drop.seq = 3;  // early in incarnation 1's life
  drop.a = 1;
  drop.kind = TraceKind::kSuspectDrop;
  assembler.add_node(TraceNodeInput{0, 0, {add}});
  assembler.add_node(TraceNodeInput{0, 1, {drop}});
  assembler.add_crash(1, static_cast<std::int64_t>(kBase) - 1000);
  const AssembledTrace trace = assembler.assemble();
  ASSERT_EQ(trace.crashes.size(), 1u);
  EXPECT_EQ(trace.crashes[0].undetected, 1u);
  EXPECT_TRUE(trace.crashes[0].observers.empty());
}

TEST(TraceAssembler, BreakdownComponentsSumToLatencyExactly) {
  // Full detecting-round shape: round open after the crash, one resend
  // wave, quorum, then the suspicion. pacing + resend_wait + wire must
  // reproduce the latency to the nanosecond.
  SyntheticCluster cluster({0, 0});
  const std::int64_t crash = static_cast<std::int64_t>(kBase);
  cluster.add(0, TraceKind::kRoundOpen, 7, 0, kBase + 40'000'000);
  cluster.add(0, TraceKind::kResendWave, 1, 1, kBase + 90'000'000);
  cluster.add(0, TraceKind::kQuorum, 7, 3, kBase + 95'000'000);
  cluster.add(0, TraceKind::kSuspectAdd, 1, 0, kBase + 96'000'000);
  TraceAssembler assembler = cluster.assembler(false);
  assembler.add_crash(1, crash);
  const AssembledTrace trace = assembler.assemble();
  ASSERT_EQ(trace.crashes.size(), 1u);
  ASSERT_EQ(trace.crashes[0].observers.size(), 1u);
  const ObserverBreakdown& ob = trace.crashes[0].observers[0];
  EXPECT_EQ(ob.latency_ns, 96'000'000);
  EXPECT_EQ(ob.pacing_ns, 40'000'000 + 1'000'000);  // pre-open + post-quorum
  EXPECT_EQ(ob.resend_wait_ns, 50'000'000);
  EXPECT_EQ(ob.wire_ns, 5'000'000);
  EXPECT_EQ(ob.pacing_ns + ob.resend_wait_ns + ob.wire_ns, ob.latency_ns);
  EXPECT_EQ(ob.round_seq, 7u);
  EXPECT_EQ(ob.resend_waves, 1u);
}

// --- dump loaders ------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("mmrfd_trace_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

std::uint64_t fixed_clock(const void*) { return 123'456'789; }

TEST(TraceLoader, TextAndBinaryDumpsRoundTrip) {
  TempDir dir;
  FlightRecorder recorder(16, TraceClock{&fixed_clock, nullptr});
  recorder.record(TraceKind::kRoundOpen, 1);
  recorder.record(TraceKind::kQueryTxSeq, 2, 1);
  recorder.record(TraceKind::kQuorum, 1, 5);
  recorder.record(TraceKind::kPeerRound, 3, 9);
  const auto expected = recorder.snapshot();

  ASSERT_TRUE(recorder.dump_to_file(dir.path("dump.trace")));
  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("dump.bin.trace")));
  const auto text = load_trace_records(dir.path("dump.trace"));
  const auto binary = load_trace_records(dir.path("dump.bin.trace"));
  ASSERT_TRUE(text.has_value());
  ASSERT_TRUE(binary.has_value());
  EXPECT_EQ(*text, expected);
  EXPECT_EQ(*binary, expected);
}

TEST(TraceLoader, BinaryLoaderDropsTornRecordsAndTruncatedTails) {
  TempDir dir;
  FlightRecorder recorder(8, TraceClock{&fixed_clock, nullptr});
  for (int i = 0; i < 6; ++i) recorder.record(TraceKind::kRoundOpen, i);
  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("full.trace")));

  // Truncate mid-record: the loader keeps every complete record.
  std::ifstream in(dir.path("full.trace"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t cut = 24 + 3 * 29 + 11;  // header + 3 records + partial
  ASSERT_LT(cut, data.size());
  {
    std::ofstream out(dir.path("torn.trace"), std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(cut));
  }
  const auto torn = load_trace_records(dir.path("torn.trace"));
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(torn->size(), 3u);

  // Corrupt one record's kind byte past kMaxTraceKind: dropped, not fatal.
  data[24 + 29 + 28] = static_cast<char>(200);
  {
    std::ofstream out(dir.path("corrupt.trace"), std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  const auto corrupt = load_trace_records(dir.path("corrupt.trace"));
  ASSERT_TRUE(corrupt.has_value());
  EXPECT_EQ(corrupt->size(), 5u);
}

TEST(TraceLoader, BinaryDumpOfAnotherKindNumberingIsRejected) {
  TempDir dir;
  FlightRecorder recorder(4, TraceClock{&fixed_clock, nullptr});
  recorder.record(TraceKind::kRoundOpen, 1);
  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("now.trace")));
  ASSERT_TRUE(load_trace_records(dir.path("now.trace")).has_value());

  // The same bytes under the previous magic ("MMRTRCB1", whose kinds were
  // numbered differently) must not load, neither as binary nor as text.
  std::ifstream in(dir.path("now.trace"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(data[7], '2');
  data[7] = '1';
  {
    std::ofstream out(dir.path("old.trace"), std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  EXPECT_FALSE(load_trace_records(dir.path("old.trace")).has_value());
}

TEST(TraceLoader, ParseTraceFilename) {
  const auto a = parse_trace_filename("node3.g2.bin.trace");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first, 3u);
  EXPECT_EQ(a->second, 2u);
  const auto b = parse_trace_filename("node12.g0.bin.crash.trace");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first, 12u);
  EXPECT_EQ(b->second, 0u);
  EXPECT_FALSE(parse_trace_filename("foo.trace").has_value());
  EXPECT_FALSE(parse_trace_filename("node.g1.trace").has_value());
  EXPECT_FALSE(parse_trace_filename("node1g2.trace").has_value());
}

TEST(TraceManifestIo, RoundTrips) {
  TempDir dir;
  TraceManifest manifest;
  manifest.n = 8;
  manifest.origin_ns = 1'700'000'000'000'000'000ull;
  manifest.pacing_ns = 100'000'000;
  manifest.resend_ns = 500'000'000;
  manifest.crashes.push_back({7, 1'900'000'000, true});
  manifest.crashes.push_back({2, 2'500'000'000, false});
  manifest.traces.push_back({0, 0, "node0.g0.bin.trace"});
  manifest.traces.push_back({7, 1, "node7.g1.bin.crash.trace"});

  const std::string path = dir.path(std::string(kTraceManifestName));
  ASSERT_TRUE(write_manifest(path, manifest));
  const auto loaded = load_manifest(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->n, manifest.n);
  EXPECT_EQ(loaded->origin_ns, manifest.origin_ns);
  EXPECT_EQ(loaded->pacing_ns, manifest.pacing_ns);
  EXPECT_EQ(loaded->resend_ns, manifest.resend_ns);
  ASSERT_EQ(loaded->crashes.size(), 2u);
  EXPECT_EQ(loaded->crashes[0].victim, 7u);
  EXPECT_EQ(loaded->crashes[0].at_ns, 1'900'000'000);
  EXPECT_TRUE(loaded->crashes[0].restarted);
  EXPECT_FALSE(loaded->crashes[1].restarted);
  ASSERT_EQ(loaded->traces.size(), 2u);
  EXPECT_EQ(loaded->traces[1].node, 7u);
  EXPECT_EQ(loaded->traces[1].incarnation, 1u);
  EXPECT_EQ(loaded->traces[1].file, "node7.g1.bin.crash.trace");

  EXPECT_FALSE(load_manifest(dir.path("missing.txt")).has_value());
}

TEST(TraceAssemblerDir, AssemblesFromManifestAndToleratesMissingDumps) {
  TempDir dir;
  FlightRecorder recorder(16, TraceClock{&fixed_clock, nullptr});
  recorder.record(TraceKind::kSuspectAdd, 1);
  ASSERT_TRUE(recorder.dump_to_file(dir.path("node0.g0.bin.trace")));

  TraceManifest manifest;
  manifest.n = 2;
  manifest.traces.push_back({0, 0, "node0.g0.bin.trace"});
  manifest.traces.push_back({1, 0, "node1.g0.bin.trace"});  // never written
  manifest.crashes.push_back({1, 1000, false});
  ASSERT_TRUE(write_manifest(dir.path(std::string(kTraceManifestName)),
                             manifest));

  const auto trace = assemble_from_dir(dir.path(""), false);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->records, 1u);
  ASSERT_EQ(trace->crashes.size(), 1u);
  ASSERT_EQ(trace->crashes[0].observers.size(), 1u);
  EXPECT_EQ(trace->crashes[0].observers[0].observer, 0u);

  EXPECT_FALSE(assemble_from_dir(dir.path("nope")).has_value());
}

}  // namespace
}  // namespace mmrfd::obs
