// NodeReport binary codec: round-trip fidelity, total decoding of corrupt
// input, and the atomic file write the SIGKILL-at-any-instant crash model
// depends on.
#include "live/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace mmrfd::live {
namespace {

NodeReport sample_report() {
  NodeReport r;
  r.self = 3;
  r.n = 8;
  r.f = 2;
  r.delta = true;
  r.pacing_ns = 50'000'000;
  r.origin_ns = 1'234'567'890'000ull;
  r.snapshot_ns = 9'876'543'210ull;
  r.metrics.counters = {
      {"codec.malformed", 4},
      {"fault.dropped", 5},
      {"rt.delta_queries_sent", 2961},
      {"rt.full_queries_sent", 112},
      {"rt.need_full_received", 1},
      {"rt.need_full_sent", 2},
      {"rt.queries_received", 3001},
      {"rt.query_bytes_sent", 77'000},
      {"rt.response_bytes_sent", 42'000},
      {"rt.responses_received", 2999},
      {"rt.responses_sent", 3001},
      {"rt.rounds", 431},
      {"udp.bytes_received", 150'000},
      {"udp.bytes_sent", 160'000},
      {"udp.datagrams_received", 6000},
      {"udp.datagrams_sent", 6100},
      {"udp.recv_errors", 0},
      {"udp.send_errors", 2},
      {"udp.truncated", 1},
  };
  r.metrics.gauges = {{"udp.rcvbuf_bytes", 425'984}};
  {
    obs::HistogramSnapshot h;
    h.name = "rt.round_rtt_ns";
    h.count = 431;
    h.sum = 431'000'000;
    h.buckets = {{200, 430}, {212, 1}};
    r.metrics.histograms = {std::move(h)};
  }
  r.suspected = {5, 7};
  r.events = {
      ReportEvent{1'000'000, 5, 0, 3},
      ReportEvent{2'000'000, 5, 2, 4},
      ReportEvent{2'000'001, 5, 1, 4},
      ReportEvent{7'000'000, 7, 0, 9},
  };
  return r;
}

TEST(NodeReportCodec, RoundTripsEveryField) {
  const NodeReport r = sample_report();
  const auto bytes = encode_report(r);
  const auto decoded = decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(NodeReportCodec, EmptySetsRoundTrip) {
  NodeReport r;
  r.self = 0;
  r.n = 2;
  r.f = 1;
  const auto decoded = decode_report(encode_report(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
  EXPECT_TRUE(decoded->suspected.empty());
  EXPECT_TRUE(decoded->events.empty());
}

TEST(NodeReportCodec, EveryTruncationDecodesToNullopt) {
  // A SIGKILL mid-write must never crash the aggregator: every prefix of a
  // valid report is rejected cleanly (the atomic rename makes torn files
  // unreachable in practice, but decode stays total regardless).
  const auto bytes = encode_report(sample_report());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_report(std::span(bytes.data(), len)).has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(NodeReportCodec, GarbageLengthFieldRejectedWithoutAllocating) {
  // A corrupt count must fail against the bytes actually present, not
  // drive a reserve() of gigabytes before the first element read fails.
  const NodeReport r = sample_report();
  auto bytes = encode_report(r);
  const std::size_t event_count_at = bytes.size() - r.events.size() * 21 - 4;
  for (std::size_t i = 0; i < 4; ++i) bytes[event_count_at + i] = 0xFF;
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(NodeReportCodec, GarbageMetricCountsRejected) {
  // The embedded registry snapshot's counts are sanity-checked against the
  // buffer size too: flood the counter-count field (the first u32 after the
  // fixed header of 4 magic + 4 version + 12 ids + 1 bool + 3 u64s).
  auto bytes = encode_report(sample_report());
  const std::size_t counter_count_at = 4 + 4 + 12 + 1 + 3 * 8;
  for (std::size_t i = 0; i < 4; ++i) bytes[counter_count_at + i] = 0xFF;
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(NodeReportCodec, RejectsBadMagicVersionAndTrailingGarbage) {
  auto bytes = encode_report(sample_report());
  ASSERT_EQ(bytes[4], 4);  // the version this build writes
  auto corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_FALSE(decode_report(corrupted).has_value());
  corrupted = bytes;
  corrupted[4] = 0xFF;  // version
  EXPECT_FALSE(decode_report(corrupted).has_value());
  corrupted[4] = 2;  // a v2 report, which still carried named counter fields
  EXPECT_FALSE(decode_report(corrupted).has_value());
  corrupted[4] = 3;  // a v3 report, which still carried the reliable flag
  EXPECT_FALSE(decode_report(corrupted).has_value());
  corrupted = bytes;
  corrupted.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_report(corrupted).has_value());
}

TEST(NodeReportFile, WriteReadRoundTripAndMissingFile) {
  const std::string dir =
      "report_test_tmp." + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/node3.g0.bin";
  const NodeReport r = sample_report();
  ASSERT_TRUE(write_report_file(r, path));
  const auto back = read_report_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  // No leftover temp file (the write renamed it into place).
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(read_report_file(dir + "/absent.bin").has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mmrfd::live
