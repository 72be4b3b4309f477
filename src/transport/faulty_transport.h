// FaultyTransport — an adversarial-channel decorator for any
// DatagramTransport: the live-path sibling of net::Network's fault knobs.
//
// Inserted between UdpTransport and RealTimeDetector (so the detector's
// envelope decoding is fed malformed bytes and its resend waves face real
// loss), it perturbs outgoing datagrams:
//
//   * drop        — the datagram never hits the wire;
//   * duplicate   — sent twice back-to-back;
//   * reorder     — held back and emitted after the *next* send to the same
//                   peer (bounded out-of-order delivery without timers);
//   * corrupt     — 1–4 random bytes flipped, so the receiver's decode path
//                   sees plausible-but-wrong bytes;
//   * truncate    — a random strict prefix is sent, so decoders exercise
//                   their end-of-buffer checks.
//
// All decisions come from one seeded RNG under a mutex: a fixed seed gives
// a reproducible fault schedule for a fixed send sequence. Receive is
// passed through untouched — in a two-sided deployment each side's sender
// perturbs its own output, which is where real networks damage datagrams.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "transport/datagram.h"

namespace mmrfd::transport {

struct FaultConfig {
  double drop_rate{0.0};
  double duplicate_rate{0.0};
  double reorder_rate{0.0};
  double corrupt_rate{0.0};
  double truncate_rate{0.0};
  std::uint64_t seed{1};
  /// Shared metrics registry for the fault.* counters; the decorator owns a
  /// private one when null.
  obs::MetricsRegistry* registry{nullptr};
};

class FaultyTransport final : public DatagramTransport {
 public:
  FaultyTransport(DatagramTransport& inner, const FaultConfig& config);

  void set_handler(DatagramHandler handler) override {
    inner_.set_handler(std::move(handler));
  }
  void start() override { inner_.start(); }
  void stop() override;
  void send(ProcessId to, std::span<const std::uint8_t> datagram) override;

  [[nodiscard]] ProcessId self() const override { return inner_.self(); }
  [[nodiscard]] std::uint32_t cluster_size() const override {
    return inner_.cluster_size();
  }

 private:
  /// Applies corruption/truncation to a private copy and emits it.
  void emit(ProcessId to, std::vector<std::uint8_t> datagram);

  DatagramTransport& inner_;
  FaultConfig config_;

  mutable std::mutex mutex_;
  Xoshiro256 rng_;
  // Registry-backed counters (config.registry or the private fallback).
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* sent_{nullptr};
  obs::Counter* dropped_{nullptr};
  obs::Counter* duplicated_{nullptr};
  obs::Counter* reordered_{nullptr};
  obs::Counter* corrupted_{nullptr};
  obs::Counter* truncated_{nullptr};
  /// Per-destination holdback slot for reordering: a stashed datagram is
  /// emitted right after the next send to the same peer (and flushed by
  /// stop(), so nothing is silently swallowed at shutdown).
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> held_;
};

}  // namespace mmrfd::transport
