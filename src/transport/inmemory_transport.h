// In-memory threaded transport: n endpoints exchanging raw datagrams through
// per-receiver queues, each drained by a dedicated dispatch thread. The
// multi-threaded analogue of net::Network — real concurrency, loopback
// latency — used by the transport integration tests and the lossy-link
// tests of the detector's resend waves (see set_loss_every).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "transport/datagram.h"

namespace mmrfd::transport {

class InMemoryHub {
 public:
  explicit InMemoryHub(std::uint32_t n);
  ~InMemoryHub();

  InMemoryHub(const InMemoryHub&) = delete;
  InMemoryHub& operator=(const InMemoryHub&) = delete;

  /// The datagram endpoint for process `id`; owned by the hub.
  [[nodiscard]] DatagramTransport& endpoint(ProcessId id);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Deterministic loss injection: every k-th datagram enqueued hub-wide is
  /// dropped (0 = no loss). For the lossy-link tests.
  void set_loss_every(std::uint64_t k) { loss_every_.store(k); }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

 private:
  struct Node;
  class Endpoint;

  void enqueue(ProcessId to, std::vector<std::uint8_t> datagram);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<std::uint64_t> send_counter_{0};
  std::atomic<std::uint64_t> loss_every_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace mmrfd::transport
