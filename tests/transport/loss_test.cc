// The detector under deterministic datagram loss, with no reliability layer
// under the codec:
//
//   * liveness: a 3-node RealTimeDetector cluster over links that drop every
//     4th datagram keeps completing rounds, and a stopped node is still
//     detected. Resend waves (planned by core::RoundDriver) are the only
//     loss recovery;
//   * resync: node b is "restarted" (fresh DetectorCore) while every 3rd
//     datagram is lost, and a lost query simply closes a's round without b.
//     The next delta query from a names a base epoch the new b never
//     acknowledged — b must answer need_full, a must drop its watermark,
//     send one full encoding, and return to the delta path.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/detector_core.h"
#include "obs/metrics_registry.h"
#include "transport/inmemory_transport.h"
#include "transport/realtime_detector.h"
#include "transport/typed_transport.h"

namespace mmrfd::transport {
namespace {

using namespace std::chrono_literals;

template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

TEST(LossyLinks, FullDetectorStackKeepsDetecting) {
  // detector -> typed codec -> lossy in-memory links. A quorum-short round
  // is re-issued every `resend` to its silent peers until it terminates, so
  // rounds keep turning and a stopped node is detected. Accuracy is not
  // asserted: a lost response legitimately costs a transient suspicion.
  constexpr std::uint32_t kN = 3;
  InMemoryHub hub(kN);
  hub.set_loss_every(4);
  std::vector<std::unique_ptr<TypedTransport>> typed;
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    typed.push_back(
        std::make_unique<TypedTransport>(hub.endpoint(ProcessId{i})));
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    RealTimeConfig cfg;
    cfg.detector.self = ProcessId{i};
    cfg.detector.n = kN;
    cfg.detector.f = 1;
    cfg.pacing = from_millis(20);
    cfg.resend = from_millis(10);
    nodes.push_back(std::make_unique<RealTimeDetector>(*typed[i], cfg));
  }
  for (auto& n : nodes) n->start();
  // Generous budgets: this runs under parallel test load and sanitizers.
  ASSERT_TRUE(eventually(
      [&] {
        for (auto& n : nodes) {
          if (n->rounds_completed() < 5) return false;
        }
        return true;
      },
      30000ms));

  nodes[2]->stop();
  // With n = 3 and f = 1 each survivor's quorum is itself plus the other
  // survivor, so from here on every lost query or response between them
  // must be repaired by a resend wave for the round to terminate.
  const std::uint64_t rounds_at_stop[2] = {nodes[0]->rounds_completed(),
                                           nodes[1]->rounds_completed()};
  EXPECT_TRUE(eventually(
      [&] {
        return nodes[0]->is_suspected(ProcessId{2}) &&
               nodes[1]->is_suspected(ProcessId{2});
      },
      30000ms));
  EXPECT_TRUE(eventually(
      [&] {
        return nodes[0]->rounds_completed() >= rounds_at_stop[0] + 10 &&
               nodes[1]->rounds_completed() >= rounds_at_stop[1] + 10;
      },
      30000ms));
  nodes[0]->stop();
  nodes[1]->stop();

  // The loss injection was real and the resend waves worked for it.
  EXPECT_GT(hub.dropped(), 0u);
  std::uint64_t resend_waves = 0;
  for (const auto& n : nodes) {
    resend_waves += n->metrics().snapshot().counter_value("rt.resend_waves");
  }
  EXPECT_GT(resend_waves, 0u);
}

TEST(LossyLinks, NeedFullResyncAfterPeerRestart) {
  constexpr ProcessId kA{0};
  constexpr ProcessId kB{1};
  InMemoryHub hub(2);
  hub.set_loss_every(3);
  TypedTransport ta(hub.endpoint(kA));
  TypedTransport tb(hub.endpoint(kB));

  core::DetectorConfig cfg_a;
  cfg_a.self = kA;
  cfg_a.n = 2;
  cfg_a.f = 1;  // quorum 1: a's own response terminates each query
  core::DetectorConfig cfg_b = cfg_a;
  cfg_b.self = kB;

  // One mutex guards both cores and the counters; handlers run on the hub's
  // dispatch threads.
  std::mutex mu;
  core::DetectorCore a(cfg_a);
  auto b = std::make_unique<core::DetectorCore>(cfg_b);
  int need_full_responses = 0;

  ta.set_handler([&](ProcessId from, const WireMessage& msg) {
    if (const auto* r = std::get_if<core::ResponseMessage>(&msg)) {
      std::lock_guard lock(mu);
      a.on_response(from, *r);
      if (r->need_full) ++need_full_responses;
    }
  });
  tb.set_handler([&](ProcessId from, const WireMessage& msg) {
    if (const auto* q = std::get_if<core::QueryMessage>(&msg)) {
      core::ResponseMessage response;
      {
        std::lock_guard lock(mu);
        response = b->on_query(from, *q);
      }
      tb.send(from, WireMessage{response});
    }
  });
  ta.start();
  tb.start();

  // Runs query rounds at a (sending only to b) until `pred` holds, waiting
  // within each round for b's response (or the predicate) before closing
  // it. Nothing retransmits: when the query or the response is lost, the
  // round closes without b, as the protocol does.
  const auto drive_rounds_until = [&](auto pred, int max_rounds) {
    for (int round = 0; round < max_rounds; ++round) {
      core::QueryMessage q;
      {
        std::lock_guard lock(mu);
        a.begin_query();
        q = a.query_for(kB);
      }
      ta.send(kB, WireMessage{q});
      eventually(
          [&] {
            std::lock_guard lock(mu);
            return a.rec_from().size() >= 2 || pred();
          },
          500ms);
      std::lock_guard lock(mu);
      a.finish_round();
      if (pred()) return true;
    }
    std::lock_guard lock(mu);
    return pred();
  };

  // Round 1, closed with the query deliberately never sent: b cannot have
  // responded, so it becomes suspected — the state churn that moves a's
  // epoch off 0 (an epoch-0 sender has nothing to delta against and would
  // stay on the full encoding forever).
  {
    std::lock_guard lock(mu);
    a.begin_query();
    a.finish_round();
    EXPECT_TRUE(a.is_suspected(kB));
    EXPECT_GT(a.state_epoch(), 0u);
  }

  // The delta path engages once b has acknowledged a post-churn epoch.
  ASSERT_TRUE(drive_rounds_until(
      [&] { return a.acked_epoch(kB) > 0 && !a.full_query_needed(kB); }, 50));

  // "Restart" b: fresh core, all watermark state lost — exactly what a
  // SIGKILL + re-exec of a live node does.
  {
    std::lock_guard lock(mu);
    b = std::make_unique<core::DetectorCore>(cfg_b);
  }

  // a still believes b acked a positive epoch, so its next queries are
  // deltas on a base the new b never saw: b must answer need_full, and the
  // ack must drop a's watermark onto the full fallback.
  ASSERT_TRUE(drive_rounds_until([&] { return need_full_responses > 0; }, 50));
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(a.acked_epoch(kB), 0u);
    EXPECT_TRUE(a.full_query_needed(kB));
  }

  // One full encoding resynchronizes the peer and re-arms the delta path.
  ASSERT_TRUE(drive_rounds_until(
      [&] { return a.acked_epoch(kB) > 0 && !a.full_query_needed(kB); }, 50));

  // The loss injection was real.
  EXPECT_GT(hub.dropped(), 0u);

  ta.stop();
  tb.stop();
}

}  // namespace
}  // namespace mmrfd::transport
