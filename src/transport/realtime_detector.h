// RealTimeDetector — the DetectorCore driven by wall-clock pacing over a
// real datagram transport (UDP or in-memory threads). The production-facing
// face of the library: the exact state machine verified under simulation,
// bound to sockets and threads. Round policy and query serving are
// core::RoundDriver's, shared with the simulator; this adapter owns the
// wall clock, the envelope codec, the transport, the lock and the resend
// timer.
//
// Threading model: one driver thread runs the query loop (send the plan,
// wait for quorum on a condition variable, pace, finish round); the
// transport's receive thread funnels into on_datagram(), which decodes the
// envelope and hands it to the driver. A single mutex guards the core — its
// per-event work is microseconds (see bench/micro_core), far below any
// contention concern at protocol rates.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/detector_core.h"
#include "core/round_driver.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "transport/datagram.h"

namespace mmrfd::transport {

struct RealTimeConfig {
  core::DetectorConfig detector;
  /// Inter-query pacing Delta (wall clock).
  Duration pacing{from_millis(100)};
  /// Loss recovery for real (unreliable) transports: while a query is short
  /// of quorum, re-issue it (a RoundDriver resend wave) at this interval. The
  /// paper's model assumes reliable channels; a lost datagram (startup race
  /// — a peer's socket not bound yet — or receive-buffer overflow under
  /// fan-in) would otherwise wedge the round FOREVER, because the time-free
  /// protocol never re-sends on its own. Re-issuing is idempotent (same
  /// seq; responders are deduplicated) and carries no failure judgement —
  /// this is retransmission, not a timeout.
  Duration resend{from_millis(500)};
  /// Shared metrics registry for the rt.* and codec.* instruments; the
  /// detector owns a private one when null. Sharing one registry across the
  /// node's whole stack gives the report writer a single snapshot to embed.
  /// Query and response bytes are the encoded datagrams handed to the
  /// transport, resend-wave copies included, so directly over UdpTransport
  /// they sum to udp.bytes_sent.
  obs::MetricsRegistry* registry{nullptr};
  /// Flight recorder for the round driver's and the core's trace records
  /// (may be null).
  obs::FlightRecorder* recorder{nullptr};
};

class RealTimeDetector final : public core::FailureDetector {
 public:
  /// `transport` must belong to config.detector.self in a cluster of
  /// config.detector.n. Inbound datagrams that do not decode, or that name
  /// a sender id >= n, are counted in codec.malformed and dropped.
  RealTimeDetector(DatagramTransport& transport, const RealTimeConfig& config);
  ~RealTimeDetector() override;

  RealTimeDetector(const RealTimeDetector&) = delete;
  RealTimeDetector& operator=(const RealTimeDetector&) = delete;

  /// Starts the transport and the query loop.
  void start();
  /// Stops the loop and the transport. Idempotent.
  void stop();

  /// Registers a suspicion-transition observer (forwarded to the core).
  /// Call before start(); callbacks fire with the detector mutex held, so
  /// the observer must not call back into this detector.
  void set_observer(core::SuspicionObserver* observer);

  [[nodiscard]] std::vector<ProcessId> suspected() const override;
  [[nodiscard]] bool is_suspected(ProcessId id) const override;

  /// Rounds completed so far (monotone; for liveness checks in tests).
  [[nodiscard]] std::uint64_t rounds_completed() const;

  /// The registry backing the rt.* and codec.* instruments
  /// (config.registry or the private fallback).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return *registry_;
  }

 private:
  void driver_loop();
  /// Sends the driver's current plan; called without the lock held.
  void send_plan();
  void on_datagram(std::span<const std::uint8_t> datagram);

  DatagramTransport& transport_;
  RealTimeConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable quorum_cv_;
  core::DetectorCore core_;
  std::vector<ProcessId> peers_;  // every id but self, ascending
  bool running_{false};
  bool stopping_{false};
  std::thread driver_;

  // Instruments are registry-backed relaxed atomics, not mutex-guarded
  // state: the driver thread bumps the tx side outside the core lock (sends
  // happen unlocked) and report writers read the registry without
  // contending. References are resolved once in the constructor and stay
  // valid for the registry's lifetime.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_{nullptr};
  obs::Counter* malformed_{nullptr};
  obs::Counter* full_queries_sent_{nullptr};
  obs::Counter* delta_queries_sent_{nullptr};
  obs::Counter* queries_received_{nullptr};
  obs::Counter* responses_received_{nullptr};
  obs::Counter* responses_sent_{nullptr};
  obs::Counter* need_full_sent_{nullptr};
  obs::Counter* need_full_received_{nullptr};
  obs::Counter* query_bytes_sent_{nullptr};
  obs::Counter* response_bytes_sent_{nullptr};

  // The plan is touched only by the driver thread: written under the lock
  // (begin/plan_resend read the core) and sent by send_plan() without it.
  // The receive thread calls only serve()/accept(), under the lock.
  core::RoundDriver<core::DetectorCore> round_driver_;
  // send_plan()'s buffer: each distinct payload encoded once per plan.
  std::vector<std::vector<std::uint8_t>> encoded_;
};

}  // namespace mmrfd::transport
