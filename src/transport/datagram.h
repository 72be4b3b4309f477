// Byte-level transport abstraction.
//
// The transport stack is layered like a production system's:
//
//   RealTimeDetector                (protocol driver)
//        │ WireMessage (typed)
//   TypedTransport                  (codec: envelope encode/decode)
//        │ datagrams (bytes)
//   [FaultyTransport]               (optional: adversarial channel)
//        │ datagrams (bytes)
//   UdpTransport / InMemoryHub      (sockets / threads)
//
// The paper's model assumes reliable channels; on loopback UDP that is
// effectively true. Loss recovery is not a layer here: RealTimeDetector's
// resend waves (planned by core::RoundDriver) re-issue a quorum-short query
// to the still-silent peers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/types.h"

namespace mmrfd::transport {

class DatagramTransport {
 public:
  /// Receive callback: the raw datagram bytes. Invoked from the transport's
  /// receive thread; the payload is only valid for the duration of the call.
  using DatagramHandler =
      std::function<void(std::span<const std::uint8_t> datagram)>;

  virtual ~DatagramTransport() = default;

  virtual void set_handler(DatagramHandler handler) = 0;
  virtual void start() = 0;
  virtual void stop() = 0;

  /// Sends one datagram to a peer. Thread-safe. Best-effort: may drop.
  virtual void send(ProcessId to, std::span<const std::uint8_t> datagram) = 0;

  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual std::uint32_t cluster_size() const = 0;
};

}  // namespace mmrfd::transport
