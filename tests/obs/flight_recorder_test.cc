// Unit tests for the flight recorder: ring wraparound order, pluggable
// clock stamping, and the text/file dump format.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace mmrfd::obs {
namespace {

std::uint64_t fake_now(const void* ctx) {
  return *static_cast<const std::uint64_t*>(ctx);
}

TEST(FlightRecorder, RecordsArriveOldestFirstWithMonotoneSeq) {
  std::uint64_t now = 100;
  FlightRecorder rec(8, TraceClock{&fake_now, &now});
  rec.record(TraceKind::kRoundOpen, 1);
  now = 200;
  rec.record(TraceKind::kQueryTxSeq, 2, 64);
  now = 300;
  rec.record(TraceKind::kRoundClose, 1, 0);

  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0],
            (TraceRecord{100, 0, 1, 0, TraceKind::kRoundOpen}));
  EXPECT_EQ(records[1], (TraceRecord{200, 1, 2, 64, TraceKind::kQueryTxSeq}));
  EXPECT_EQ(records[2], (TraceRecord{300, 2, 1, 0, TraceKind::kRoundClose}));
  EXPECT_EQ(rec.recorded(), 3u);
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestRecords) {
  std::uint64_t now = 0;
  FlightRecorder rec(4, TraceClock{&fake_now, &now});
  for (std::uint32_t i = 0; i < 10; ++i) {
    now = i;
    rec.record(TraceKind::kSuspectAdd, i);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The survivors are the last four writes, oldest first.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);
    EXPECT_EQ(records[i].a, 6 + i);
    EXPECT_EQ(records[i].t_ns, 6 + i);
  }
}

TEST(FlightRecorder, ZeroCapacityStillHoldsTheLatestRecord) {
  FlightRecorder rec(0, TraceClock{});
  EXPECT_EQ(rec.capacity(), 1u);
  rec.record(TraceKind::kResync, 1);
  rec.record(TraceKind::kResync, 2);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].a, 2u);
  EXPECT_EQ(records[0].seq, 1u);
}

TEST(FlightRecorder, NullClockStampsZero) {
  FlightRecorder rec(2, TraceClock{});
  rec.record(TraceKind::kRoundOpen);
  EXPECT_EQ(rec.snapshot().at(0).t_ns, 0u);
}

TEST(FlightRecorder, SetClockAffectsSubsequentRecords) {
  std::uint64_t now = 42;
  FlightRecorder rec(4, TraceClock{});
  rec.record(TraceKind::kRoundOpen);
  rec.set_clock(TraceClock{&fake_now, &now});
  rec.record(TraceKind::kRoundClose);
  const auto records = rec.snapshot();
  EXPECT_EQ(records.at(0).t_ns, 0u);
  EXPECT_EQ(records.at(1).t_ns, 42u);
}

TEST(TraceKindName, CoversEveryKind) {
  EXPECT_EQ(trace_kind_name(TraceKind::kRoundOpen), "round_open");
  EXPECT_EQ(trace_kind_name(TraceKind::kRoundClose), "round_close");
  EXPECT_EQ(trace_kind_name(TraceKind::kQueryRx), "query_rx");
  EXPECT_EQ(trace_kind_name(TraceKind::kSuspectAdd), "suspect_add");
  EXPECT_EQ(trace_kind_name(TraceKind::kSuspectDrop), "suspect_drop");
  EXPECT_EQ(trace_kind_name(TraceKind::kNeedFullTx), "need_full_tx");
  EXPECT_EQ(trace_kind_name(TraceKind::kNeedFullRx), "need_full_rx");
  EXPECT_EQ(trace_kind_name(TraceKind::kResync), "resync");
  EXPECT_EQ(trace_kind_name(TraceKind::kGiveUpSkip), "giveup_skip");
  EXPECT_EQ(trace_kind_name(TraceKind::kResendWave), "resend_wave");
  EXPECT_EQ(trace_kind_name(TraceKind::kQuorum), "quorum");
  EXPECT_EQ(trace_kind_name(TraceKind::kQueryTxSeq), "query_tx_seq");
  EXPECT_EQ(trace_kind_name(TraceKind::kResponseTxSeq), "response_tx_seq");
  EXPECT_EQ(trace_kind_name(TraceKind::kResponseRxSeq), "response_rx_seq");
  EXPECT_EQ(trace_kind_name(TraceKind::kPeerRound), "peer_round");
  // Every valid kind value maps to a distinct name, and the parser inverts
  // the mapping — the text-dump loader depends on this round trip.
  for (std::uint8_t k = 1; k <= kMaxTraceKind; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    const std::string_view name = trace_kind_name(kind);
    EXPECT_NE(name, "unknown") << "kind " << int{k} << " has no name";
    EXPECT_EQ(trace_kind_from_name(name), kind) << "kind " << int{k};
  }
  EXPECT_EQ(static_cast<std::uint8_t>(trace_kind_from_name("bogus")), 0);
  // Kinds are numbered densely: the names above are all of them.
  EXPECT_EQ(kMaxTraceKind, 15);
  // Deleted kinds (their records duplicated the *_seq ones) no longer
  // parse, so a text dump naming them loads without those lines.
  for (const std::string_view gone : {"query_tx", "response_tx", "response_rx"}) {
    EXPECT_EQ(static_cast<std::uint8_t>(trace_kind_from_name(gone)), 0)
        << gone;
  }
}

TEST(FlightRecorder, DumpTextFormat) {
  std::uint64_t now = 1234;
  FlightRecorder rec(4, TraceClock{&fake_now, &now});
  rec.record(TraceKind::kQueryTxSeq, 3, 57);
  std::ostringstream os;
  rec.dump_text(os);
  EXPECT_EQ(os.str(), "1234 #0 query_tx_seq a=3 b=57\n");
}

TEST(FlightRecorder, DumpToFileRoundTrips) {
  std::uint64_t now = 7;
  FlightRecorder rec(4, TraceClock{&fake_now, &now});
  rec.record(TraceKind::kRoundOpen, 11);
  rec.record(TraceKind::kRoundClose, 11, 2);

  const std::string path =
      testing::TempDir() + "/mmrfd_flight_recorder_test.trace";
  ASSERT_TRUE(rec.dump_to_file(path));
  std::ifstream is(path);
  std::stringstream content;
  content << is.rdbuf();
  std::ostringstream expected;
  rec.dump_text(expected);
  EXPECT_EQ(content.str(), expected.str());
  std::remove(path.c_str());

  EXPECT_FALSE(rec.dump_to_file("/nonexistent-dir-zz/x.trace"));
}

}  // namespace
}  // namespace mmrfd::obs
