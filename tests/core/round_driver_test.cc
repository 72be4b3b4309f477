// Unit tests for core::RoundDriver: round plans, resend waves, shared
// payloads, causal-trace records and round instruments — all driven by
// hand with explicit time points, no sockets and no simulator.
#include "core/round_driver.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace mmrfd::core {
namespace {

std::vector<ProcessId> ids(std::initializer_list<std::uint32_t> values) {
  std::vector<ProcessId> out;
  for (const std::uint32_t v : values) out.push_back(ProcessId{v});
  return out;
}

DetectorConfig config(std::uint32_t n, std::uint32_t f,
                      std::uint32_t giveup_rounds) {
  DetectorConfig c;
  c.self = ProcessId{0};
  c.n = n;
  c.f = f;
  c.giveup_rounds = giveup_rounds;
  return c;
}

std::vector<ProcessId> recipients(const RoundDriver<DetectorCore>& driver) {
  std::vector<ProcessId> out;
  for (const QuerySend& s : driver.sends()) out.push_back(s.to);
  return out;
}

// A clock that ticks once per reading: deterministic, strictly increasing
// stamps.
std::uint64_t tick(const void* ctx) {
  return ++*static_cast<std::uint64_t*>(const_cast<void*>(ctx));
}

// One whole round: plan, the given peers respond acknowledging what they
// were sent, quorum, finish.
void run_round(RoundDriver<DetectorCore>& driver, DetectorCore& core,
               std::initializer_list<std::uint32_t> responders) {
  driver.begin(kTimeZero);
  for (const std::uint32_t r : responders) {
    ResponseMessage resp;
    resp.seq = core.query_seq();
    for (const QuerySend& s : driver.sends()) {
      if (s.to != ProcessId{r}) continue;
      resp.ack_epoch = driver.payloads()[s.payload].epoch;
    }
    (void)core.on_response(ProcessId{r}, resp);
  }
  ASSERT_TRUE(core.query_terminated());
  driver.on_quorum(kTimeZero);
  driver.finish();
}

// n = 5, f = 1, K = 2: p4 stays silent for three rounds, so its streak (3)
// puts it in round 4's skip set (budget n - quorum = 1).
struct SkipFixture {
  DetectorCore core{config(5, 1, 2)};
  std::vector<ProcessId> peers = ids({1, 2, 3, 4});
  RoundDriver<DetectorCore> driver{core, peers, nullptr, "sim", nullptr};

  SkipFixture() {
    for (int i = 0; i < 3; ++i) run_round(driver, core, {1, 2, 3});
  }
};

TEST(RoundDriver, SkipSetHonouredByPlanAndFirstResendWave) {
  SkipFixture f;
  f.driver.begin(kTimeZero);
  ASSERT_FALSE(f.core.should_query(ProcessId{4}));
  EXPECT_EQ(recipients(f.driver), ids({1, 2, 3}));

  (void)f.core.on_response(ProcessId{2}, ResponseMessage{f.core.query_seq()});
  ASSERT_TRUE(f.driver.plan_resend());
  EXPECT_EQ(recipients(f.driver), ids({1, 3}));  // silent, minus the skip set
}

TEST(RoundDriver, LaterResendWavesQueryEverySilentPeerIncludingSkipped) {
  // The give-up x resend regression: a round still short of quorum after a
  // whole resend interval must reach the skipped peers too, or a wrong skip
  // decision starves the quorum forever.
  SkipFixture f;
  f.driver.begin(kTimeZero);
  (void)f.core.on_response(ProcessId{2}, ResponseMessage{f.core.query_seq()});
  ASSERT_TRUE(f.driver.plan_resend());
  ASSERT_TRUE(f.driver.plan_resend());
  EXPECT_EQ(f.driver.waves(), 2u);
  EXPECT_EQ(recipients(f.driver), ids({1, 3, 4}));
  ASSERT_TRUE(f.driver.plan_resend());
  EXPECT_EQ(recipients(f.driver), ids({1, 3, 4}));
  // Resends are the self-contained encoding, one payload for the wave.
  ASSERT_EQ(f.driver.payloads().size(), 1u);
  EXPECT_FALSE(f.driver.payloads()[0].is_delta());
  for (const QuerySend& s : f.driver.sends()) EXPECT_EQ(s.payload, 0u);
}

TEST(RoundDriver, EmptyResendWaveRecordsNothing) {
  DetectorCore core(config(3, 1, 0));
  const std::vector<ProcessId> peers = ids({1, 2});
  obs::MetricsRegistry registry;
  std::uint64_t now = 0;
  obs::FlightRecorder recorder(16, obs::TraceClock{&tick, &now});
  RoundDriver<DetectorCore> driver(core, peers, &registry, "rt", &recorder);
  driver.begin(kTimeZero);
  (void)core.on_response(ProcessId{1}, ResponseMessage{core.query_seq()});
  (void)core.on_response(ProcessId{2}, ResponseMessage{core.query_seq()});
  EXPECT_FALSE(driver.plan_resend());  // termination raced the timer
  EXPECT_EQ(driver.waves(), 1u);
  EXPECT_TRUE(driver.sends().empty());
  EXPECT_EQ(registry.snapshot().counter_value("rt.resend_waves"), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(RoundDriver, OneFullPayloadSharedByAllFullNeedingPeers) {
  DetectorCore core(config(6, 2, 0));
  const std::vector<ProcessId> peers = ids({1, 2, 3, 4, 5});
  RoundDriver<DetectorCore> driver(core, peers, nullptr, "sim", nullptr);

  // First contact: nobody acked anything, so everyone shares one payload.
  driver.begin(kTimeZero);
  ASSERT_EQ(driver.payloads().size(), 1u);
  EXPECT_FALSE(driver.payloads()[0].is_delta());
  EXPECT_EQ(driver.sends().size(), 5u);
  for (const QuerySend& s : driver.sends()) EXPECT_EQ(s.payload, 0u);
  // Finish it with p5 silent: the suspicion advances the state epoch.
  for (const std::uint32_t r : {1u, 2u, 3u}) {
    (void)core.on_response(ProcessId{r}, ResponseMessage{core.query_seq()});
  }
  driver.finish();
  // p1 and p2 acknowledge the new epoch; p3 answers without an ack and p4
  // never acked anything.
  driver.begin(kTimeZero);
  const Epoch epoch = driver.payloads()[0].epoch;
  ASSERT_GT(epoch, 0u);
  for (const std::uint32_t r : {1u, 2u}) {
    (void)core.on_response(ProcessId{r},
                           ResponseMessage{core.query_seq(), epoch});
  }
  (void)core.on_response(ProcessId{3}, ResponseMessage{core.query_seq()});
  driver.finish();

  driver.begin(kTimeZero);
  std::vector<std::uint32_t> slot(6, 99);
  for (const QuerySend& s : driver.sends()) slot[s.to.value] = s.payload;
  std::uint32_t full_payloads = 0;
  for (const QueryMessage& q : driver.payloads()) {
    if (!q.is_delta()) ++full_payloads;
  }
  EXPECT_EQ(full_payloads, 1u);
  EXPECT_EQ(driver.payloads().size(), 2u);
  EXPECT_TRUE(driver.payloads()[slot[1]].is_delta());
  EXPECT_EQ(slot[1], slot[2]);  // same acknowledged base, same message
  EXPECT_FALSE(driver.payloads()[slot[3]].is_delta());
  EXPECT_EQ(slot[3], slot[4]);
  EXPECT_EQ(slot[3], slot[5]);
  EXPECT_EQ(driver.payloads()[slot[3]], core.full_query());
  EXPECT_EQ(driver.payloads()[slot[1]], core.query_for(ProcessId{1}));
}

TEST(RoundDriver, SendOrderFollowsPeerOrderAndStampsEachSend) {
  DetectorCore core(config(5, 1, 0));
  const std::vector<ProcessId> peers = ids({3, 1, 4, 2});
  std::uint64_t now = 0;
  obs::FlightRecorder recorder(64, obs::TraceClock{&tick, &now});
  RoundDriver<DetectorCore> driver(core, peers, nullptr, "rt", &recorder);
  driver.begin(kTimeZero);
  EXPECT_EQ(recipients(driver), peers);

  // Each kQueryTxSeq lands immediately before its own send.
  std::vector<std::uint64_t> send_stamps;
  driver.for_each_send([&](const QuerySend& s) {
    const auto records = recorder.snapshot();
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back().kind, obs::TraceKind::kQueryTxSeq);
    EXPECT_EQ(records.back().a, s.to.value);
    EXPECT_EQ(records.back().b, core.query_seq());
    send_stamps.push_back(records.back().t_ns);
    recorder.record(obs::TraceKind::kQueryTx, s.to.value, 0);
  });
  ASSERT_EQ(send_stamps.size(), 4u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[2 * i].a, peers[i].value);
    EXPECT_EQ(records[2 * i].t_ns, send_stamps[i]);
  }
}

TEST(RoundDriver, QuorumOfSelfAloneTerminatesAtBegin) {
  // f = n - 1: the self-response is the whole quorum, so the round is over
  // the moment it opens — the peers are still queried.
  DetectorCore core(config(3, 2, 0));
  const std::vector<ProcessId> peers = ids({1, 2});
  obs::MetricsRegistry registry;
  std::uint64_t now = 0;
  obs::FlightRecorder recorder(16, obs::TraceClock{&tick, &now});
  RoundDriver<DetectorCore> driver(core, peers, &registry, "sim", &recorder);
  driver.begin(from_millis(5));
  EXPECT_TRUE(core.query_terminated());
  EXPECT_EQ(recipients(driver), peers);
  driver.on_quorum(from_millis(5));
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::TraceKind::kQuorum);
  EXPECT_EQ(records[0].a, core.query_seq());
  EXPECT_EQ(records[0].b, 1u);  // responders at quorum: self
  driver.finish();
  EXPECT_EQ(core.rounds_completed(), 1u);
}

TEST(RoundDriver, RoundInstrumentsUseThePrefixedNames) {
  DetectorCore core(config(3, 1, 0));
  const std::vector<ProcessId> peers = ids({1, 2});
  obs::MetricsRegistry registry;
  RoundDriver<DetectorCore> driver(core, peers, &registry, "sim", nullptr);
  driver.begin(TimePoint{1000});
  (void)core.on_response(ProcessId{1}, ResponseMessage{core.query_seq()});
  driver.on_quorum(TimePoint{1250});
  EXPECT_EQ(registry.snapshot().counter_value("sim.rounds"), 0u);
  driver.finish();
  const obs::RegistrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("sim.rounds"), 1u);
  const obs::HistogramSnapshot* rtt = snap.find_histogram("sim.round_rtt_ns");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->count, 1u);
  EXPECT_EQ(rtt->sum, 250u);
}

TEST(RoundDriver, TagFreeCoreGetsOneFullPayloadPerRound) {
  SimpleDetectorConfig c;
  c.self = ProcessId{0};
  c.n = 4;
  c.f = 1;
  SimpleDetectorCore core(c);
  const std::vector<ProcessId> peers = ids({1, 2, 3});
  RoundDriver<SimpleDetectorCore> driver(core, peers, nullptr, "sim", nullptr);
  driver.begin(kTimeZero);
  ASSERT_EQ(driver.payloads().size(), 1u);
  EXPECT_EQ(driver.payloads()[0], core.full_query());
  EXPECT_EQ(driver.sends().size(), 3u);
  (void)core.on_response(ProcessId{1}, ResponseMessage{core.query_seq()});
  ASSERT_TRUE(driver.plan_resend());
  ASSERT_EQ(driver.sends().size(), 2u);
  EXPECT_EQ(driver.sends()[0].to, ProcessId{2});
  EXPECT_EQ(driver.sends()[1].to, ProcessId{3});
}

}  // namespace
}  // namespace mmrfd::core
