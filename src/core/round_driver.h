// RoundDriver — the one implementation of the paper's query round (T1:
// query, wait for n - f responses, suspect the silent peers), shared by the
// simulator adapter (runtime::SimHost) and the live one
// (transport::RealTimeDetector). Sans-I/O like the cores it drives: the
// driver owns round policy and hands the host a plan; the host owns the
// clock, the I/O, the scheduling or locking, and the resend timer.
//
//   driver.begin(now);            // core.begin_query() + the send plan
//   driver.for_each_send(send);   // stamps each kQueryTxSeq, then sends
//   ... driver.serve(from, query) answers each query (T2),
//       driver.accept(from, response) feeds each response to the core ...
//   if (short of quorum when the host's resend timer fires)
//     if (driver.plan_resend()) driver.for_each_send(send);
//   driver.on_quorum(now);        // kQuorum record + round-RTT sample
//   driver.finish();              // after pacing: core.finish_round()
//
// A plan lists the peers in the host's order (topology neighbours in the
// simulator, every other id live) minus the give-up skip set, each with a
// payload: one per distinct message, so every peer needing the full
// encoding shares one, as does every group of peers that acked the same
// epoch. Resend waves are full-encoding plans to the still-silent peers:
// wave 0 honours the skip set, later waves query everyone silent — a round
// short of quorum a whole interval later means the skips were wrong.
// Retransmission over lossy, non-FIFO channels is part of the protocol, not
// a transport detail, so its policy lives here. Plans reuse their buffers.
//
// Every trace record of a round comes from here or from the core, so a
// simulated and a live node write the same record kinds.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/detector_core.h"
#include "core/messages.h"
#include "core/simple_detector.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace mmrfd::core {

/// One planned query transmission: `payload` indexes the plan's payloads().
struct QuerySend {
  ProcessId to;
  std::uint32_t payload{0};
};

template <typename Core>
class RoundDriver {
 public:
  /// `peers` must outlive the driver. `registry` (may be null) receives the
  /// `<metric_prefix>.rounds` and `<metric_prefix>.resend_waves` counters
  /// and the `<metric_prefix>.round_rtt_ns` histogram.
  /// `recorder` (may be null) receives the kQueryTxSeq / kResendWave /
  /// kQuorum / kQueryRx / kResponseTxSeq / kResponseRxSeq / kPeerRound
  /// causal records.
  RoundDriver(Core& core, std::span<const ProcessId> peers,
              obs::MetricsRegistry* registry, std::string_view metric_prefix,
              obs::FlightRecorder* recorder);

  /// Opens a round at `now`: starts the core's query and plans one send per
  /// peer not in the skip set. With f = n - 1 the round is already
  /// terminated on return (the self-response alone is the quorum); the
  /// plan still queries every peer.
  void begin(TimePoint now);

  /// Re-plans the open round as its next resend wave: the full encoding to
  /// every peer still missing from rec_from (wave 0 minus the skip set).
  /// Returns false — and records nothing — when no peer is left to query.
  bool plan_resend();

  /// Hands each planned send to `send(const QuerySend&)` in plan order,
  /// recording its kQueryTxSeq immediately before. Touches only the plan,
  /// never the core, so a threaded host may call it without holding the
  /// core's lock.
  template <typename SendFn>
  void for_each_send(SendFn&& send) {
    for (const QuerySend& s : sends_) {
      trace(obs::TraceKind::kQueryTxSeq, s.to.value, round_seq_);
      send(s);
    }
  }

  /// Answers `query` from `from` (the paper's task T2): records kQueryRx,
  /// runs the core's query handler and records kResponseTxSeq. Like
  /// accept(), it touches only the core and the recorder, never the plan,
  /// so a threaded host calls both from its receive thread under the
  /// core's lock while its driver thread sends the plan unlocked.
  ResponseMessage serve(ProcessId from, const QueryMessage& query) {
    trace(obs::TraceKind::kQueryRx, from.value,
          static_cast<std::uint32_t>(query.seq));
    const ResponseMessage response = core_.on_query(from, query);
    trace(obs::TraceKind::kResponseTxSeq, from.value,
          static_cast<std::uint32_t>(response.seq));
    return response;
  }

  /// Feeds `response` from `from` to the core; true when it completed the
  /// quorum. Records kResponseRxSeq, plus kPeerRound when the responder
  /// named its own round (origin_seq != 0).
  bool accept(ProcessId from, const ResponseMessage& response) {
    trace(obs::TraceKind::kResponseRxSeq, from.value,
          static_cast<std::uint32_t>(response.seq));
    if (response.origin_seq != 0) {
      trace(obs::TraceKind::kPeerRound, from.value,
            static_cast<std::uint32_t>(response.origin_seq));
    }
    return core_.on_response(from, response);
  }

  /// The plan's distinct messages. The host wraps each once and may move
  /// from it; the driver rebuilds them per plan.
  [[nodiscard]] std::span<QueryMessage> payloads() { return payloads_; }
  [[nodiscard]] std::span<const QuerySend> sends() const { return sends_; }
  /// Resend waves planned so far this round (including empty ones).
  [[nodiscard]] std::uint32_t waves() const { return waves_; }

  /// Quorum reached at `now`: records kQuorum and the round's RTT (begin to
  /// quorum).
  void on_quorum(TimePoint now);

  /// Closes the round (the core's suspicion step) and counts it.
  void finish();

 private:
  void trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t b) const {
    if (recorder_ != nullptr) recorder_->record(kind, a, b);
  }
  /// Adds `to` to the plan, sharing the payload built for `base` (0 = the
  /// full encoding) if this plan has one already.
  void plan_send(ProcessId to, Epoch base);

  Core& core_;
  std::span<const ProcessId> peers_;
  obs::FlightRecorder* recorder_;
  obs::Counter* rounds_{nullptr};
  obs::Counter* resend_waves_{nullptr};
  obs::Histogram* round_rtt_ns_{nullptr};

  std::uint32_t round_seq_{0};
  TimePoint round_start_{};
  std::uint32_t waves_{0};
  std::vector<QuerySend> sends_;
  std::vector<QueryMessage> payloads_;
  std::vector<Epoch> payload_bases_;  // parallel to payloads_
  std::vector<bool> responded_;       // plan_resend buffer, indexed by id
};

extern template class RoundDriver<DetectorCore>;
extern template class RoundDriver<SimpleDetectorCore>;

}  // namespace mmrfd::core
