// Real-transport integration: the simulator-verified core over threads and
// sockets. These tests use generous wall-clock budgets and liveness-style
// assertions (eventually-suspects / eventually-clean) to stay robust on
// loaded CI machines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "runtime/cluster.h"
#include "transport/codec.h"
#include "transport/inmemory_transport.h"
#include "transport/realtime_detector.h"
#include "transport/udp_transport.h"

namespace mmrfd::transport {
namespace {

using namespace std::chrono_literals;

RealTimeConfig rt_config(std::uint32_t self, std::uint32_t n,
                         std::uint32_t f) {
  RealTimeConfig c;
  c.detector.self = ProcessId{self};
  c.detector.n = n;
  c.detector.f = f;
  c.pacing = from_millis(10);
  return c;
}

/// Polls `cond` for up to `budget`; returns true as soon as it holds.
template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

/// One detector per endpoint of `hub`.
std::vector<std::unique_ptr<RealTimeDetector>> detectors(
    InMemoryHub& hub, std::uint32_t f,
    const std::vector<obs::FlightRecorder*>& recorders = {}) {
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < hub.size(); ++i) {
    RealTimeConfig cfg = rt_config(i, hub.size(), f);
    if (!recorders.empty()) cfg.recorder = recorders[i];
    nodes.push_back(
        std::make_unique<RealTimeDetector>(hub.endpoint(ProcessId{i}), cfg));
  }
  return nodes;
}

TEST(InMemoryTransport, DeliversPointToPoint) {
  InMemoryHub hub(2);
  const std::vector<std::uint8_t> sent{7, 0, 9};
  std::mutex mu;
  std::vector<std::uint8_t> got;
  hub.endpoint(ProcessId{1}).set_handler(
      [&](std::span<const std::uint8_t> datagram) {
        std::lock_guard lock(mu);
        got.assign(datagram.begin(), datagram.end());
      });
  hub.endpoint(ProcessId{0}).set_handler([](std::span<const std::uint8_t>) {});
  hub.endpoint(ProcessId{0}).start();
  hub.endpoint(ProcessId{1}).start();
  hub.endpoint(ProcessId{0}).send(ProcessId{1}, sent);
  EXPECT_TRUE(eventually([&] {
    std::lock_guard lock(mu);
    return got == sent;
  }));
  hub.endpoint(ProcessId{0}).stop();
  hub.endpoint(ProcessId{1}).stop();
}

TEST(RealTimeDetector, MalformedDatagramsCountedAndDropped) {
  // A running detector p1 (n = 2, f = 1: it completes rounds on its own)
  // receives datagrams that must never reach the protocol, on the
  // transport's receive thread.
  InMemoryHub hub(2);
  obs::MetricsRegistry reg;
  RealTimeConfig cfg = rt_config(1, 2, 1);
  cfg.registry = &reg;
  RealTimeDetector detector(hub.endpoint(ProcessId{1}), cfg);
  DatagramTransport& raw = hub.endpoint(ProcessId{0});
  raw.set_handler([](std::span<const std::uint8_t>) {});
  raw.start();
  detector.start();

  core::QueryMessage q;
  q.seq = 3;
  q.push_suspected({ProcessId{1}, 9});
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  std::vector<std::uint8_t> truncated = encode_envelope(ProcessId{0}, q);
  truncated.pop_back();
  const std::vector<std::uint8_t> outsider = encode_envelope(ProcessId{2}, q);
  raw.send(ProcessId{1}, garbage);
  raw.send(ProcessId{1}, truncated);
  raw.send(ProcessId{1}, outsider);
  // One in-order dispatch queue per receiver: once the well-formed query is
  // counted, every datagram before it has been handled.
  raw.send(ProcessId{1}, encode_envelope(ProcessId{0}, q));
  const auto counter = [&](const char* name) {
    return reg.snapshot().counter_value(name);
  };
  EXPECT_TRUE(eventually([&] { return counter("rt.queries_received") == 1; }));
  EXPECT_EQ(counter("codec.malformed"), 3u);
  EXPECT_EQ(counter("rt.responses_received"), 0u);
  EXPECT_TRUE(eventually([&] { return detector.rounds_completed() >= 1; }));
  detector.stop();
  raw.stop();
}

TEST(RealTimeDetector, InMemoryClusterRunsRoundsAndStaysClean) {
  InMemoryHub hub(4);
  auto nodes = detectors(hub, 1);
  for (auto& n : nodes) n->start();
  // "Eventually clean": under machine load a driver thread can be
  // descheduled past the pacing window, causing a *transient* suspicion
  // that the protocol then repairs — assert the stable state, not an
  // instantaneous snapshot.
  EXPECT_TRUE(eventually([&] {
    for (auto& n : nodes) {
      if (n->rounds_completed() < 10) return false;
      if (!n->suspected().empty()) return false;
    }
    return true;
  }));
  for (auto& n : nodes) n->stop();
}

TEST(RealTimeDetector, InMemoryClusterDetectsStoppedNode) {
  InMemoryHub hub(4);
  auto nodes = detectors(hub, 1);
  for (auto& n : nodes) n->start();
  ASSERT_TRUE(
      eventually([&] { return nodes[0]->rounds_completed() >= 5; }));
  nodes[3]->stop();  // "crash"
  EXPECT_TRUE(eventually([&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      if (!nodes[i]->is_suspected(ProcessId{3})) return false;
    }
    return true;
  }));
  // The crashed node must never be "repaired", and the survivors settle
  // back to suspecting only it.
  std::this_thread::sleep_for(100ms);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(nodes[i]->is_suspected(ProcessId{3}));
  }
  EXPECT_TRUE(eventually([&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      if (nodes[i]->suspected() != std::vector<ProcessId>{ProcessId{3}}) {
        return false;
      }
    }
    return true;
  }));
  for (std::uint32_t i = 0; i < 3; ++i) nodes[i]->stop();
}

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpTransport t0({ProcessId{0}, 2, 39200});
  UdpTransport t1({ProcessId{1}, 2, 39200});
  core::QueryMessage q;
  q.seq = 3;
  q.push_suspected({ProcessId{1}, 9});
  std::atomic<int> got{0};
  t0.set_handler([](std::span<const std::uint8_t>) {});
  t1.set_handler([&](std::span<const std::uint8_t> datagram) {
    const auto decoded = decode_envelope(datagram);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->sender, ProcessId{0});
    EXPECT_EQ(decoded->message, WireMessage{q});
    ++got;
  });
  try {
    t0.start();
    t1.start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  t0.send(ProcessId{1}, encode_envelope(ProcessId{0}, q));
  EXPECT_TRUE(eventually([&] { return got.load() == 1; }));
  t0.stop();
  t1.stop();
}

TEST(UdpTransport, FullDetectorClusterOverSockets) {
  constexpr std::uint32_t kN = 3;
  std::vector<std::unique_ptr<UdpTransport>> udp;
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    udp.push_back(
        std::make_unique<UdpTransport>(UdpConfig{ProcessId{i}, kN, 39300}));
    nodes.push_back(
        std::make_unique<RealTimeDetector>(*udp[i], rt_config(i, kN, 1)));
  }
  try {
    for (auto& n : nodes) n->start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  EXPECT_TRUE(eventually(
      [&] {
        for (auto& n : nodes) {
          if (n->rounds_completed() < 5) return false;
          if (!n->suspected().empty()) return false;
        }
        return true;
      },
      15000ms));
  nodes[2]->stop();
  EXPECT_TRUE(eventually(
      [&] {
        return nodes[0]->is_suspected(ProcessId{2}) &&
               nodes[1]->is_suspected(ProcessId{2});
      },
      15000ms));
  nodes[0]->stop();
  nodes[1]->stop();
}

TEST(RealTimeDetector, StopIsIdempotentAndRestartable) {
  InMemoryHub hub(2);
  RealTimeDetector a(hub.endpoint(ProcessId{0}), rt_config(0, 2, 1));
  RealTimeDetector b(hub.endpoint(ProcessId{1}), rt_config(1, 2, 1));
  a.start();
  b.start();
  EXPECT_TRUE(eventually([&] { return a.rounds_completed() >= 2; }));
  a.stop();
  a.stop();  // idempotent
  b.stop();
}

std::set<obs::TraceKind> kinds_of(const obs::FlightRecorder& recorder) {
  std::set<obs::TraceKind> kinds;
  for (const obs::TraceRecord& r : recorder.snapshot()) kinds.insert(r.kind);
  return kinds;
}

TEST(RealTimeDetector, WritesTheSimulatorsTraceKinds) {
  // Trace records come only from DetectorCore and RoundDriver, which the
  // simulator and the live adapter share, so a clean simulated cluster and
  // a clean in-memory one write the same kinds. Excluded on both sides:
  // the kinds whose presence depends on timing (suspicions, resyncs,
  // give-up skips, resend waves). kPeerRound is the live path's only
  // extra: it carries origin_seq, which only the live adapter sets.
  const std::set<obs::TraceKind> timing_dependent = {
      obs::TraceKind::kSuspectAdd,  obs::TraceKind::kSuspectDrop,
      obs::TraceKind::kNeedFullTx,  obs::TraceKind::kNeedFullRx,
      obs::TraceKind::kResync,      obs::TraceKind::kGiveUpSkip,
      obs::TraceKind::kResendWave};
  constexpr std::uint32_t kN = 4;

  runtime::MmrClusterConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.f = 1;
  sim_cfg.pacing = from_millis(10);
  sim_cfg.trace_capacity = 1u << 14;
  runtime::MmrCluster cluster(sim_cfg);
  cluster.start();
  cluster.run_for(from_seconds(1));
  std::set<obs::TraceKind> sim_kinds;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto kinds = kinds_of(*cluster.trace(ProcessId{i}));
    sim_kinds.insert(kinds.begin(), kinds.end());
  }

  InMemoryHub hub(kN);
  std::vector<std::unique_ptr<obs::FlightRecorder>> rings;
  std::vector<obs::FlightRecorder*> recorders;
  for (std::uint32_t i = 0; i < kN; ++i) {
    rings.push_back(std::make_unique<obs::FlightRecorder>(1u << 14));
    recorders.push_back(rings.back().get());
  }
  auto nodes = detectors(hub, 1, recorders);
  for (auto& n : nodes) n->start();
  ASSERT_TRUE(eventually([&] {
    for (auto& n : nodes) {
      if (n->rounds_completed() < 10) return false;
    }
    return true;
  }));
  for (auto& n : nodes) n->stop();
  std::set<obs::TraceKind> live_kinds;
  for (const auto& ring : rings) {
    const auto kinds = kinds_of(*ring);
    live_kinds.insert(kinds.begin(), kinds.end());
  }

  EXPECT_TRUE(live_kinds.contains(obs::TraceKind::kPeerRound));
  EXPECT_FALSE(sim_kinds.contains(obs::TraceKind::kPeerRound));
  live_kinds.erase(obs::TraceKind::kPeerRound);
  for (const obs::TraceKind k : timing_dependent) {
    sim_kinds.erase(k);
    live_kinds.erase(k);
  }
  EXPECT_EQ(sim_kinds, live_kinds);
  // Every per-message and per-round kind is in both.
  EXPECT_EQ(sim_kinds.size(), 7u);
}

}  // namespace
}  // namespace mmrfd::transport
