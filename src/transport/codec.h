// Compact binary wire codec.
//
// Used by the real transports (UDP / in-memory threaded) and by the
// message-cost experiment (E4) to account bytes-on-the-wire for every
// protocol message. Format: little-endian fixed-width integers, length-
// prefixed sequences; every datagram is an envelope
//   [u32 sender][u8 type][payload...]
// Query payload:
//   [u64 seq][u8 flags][uvarint epoch if flags&kHasEpoch]
//   [uvarint base_epoch if flags&kDelta][u32 suspected_count][u32 total]
//   [total x (u32 id, u64 tag)]
// A delta query (flags & kDelta) lists only entries changed since
// base_epoch; the stable remainder of the sets travels as that one interned
// integer. Response payload:
//   [u64 seq][u8 flags][uvarint ack_epoch if flags&kHasAck]
//   [uvarint origin_seq if flags&kHasOrigin]
// origin_seq is the responder's own round sequence when it answered; only
// the live path sets it (simulator bytes are unchanged). The querier turns
// it into a kPeerRound trace record, which only `mmrfd-trace timeline`
// shows; the trace assembler never reads it.
// Epoch fields are LEB128 varints (epochs count state changes — small for
// most of a run, so the delta header costs single-digit bytes). Decoding is
// total: malformed input yields nullopt, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/messages.h"

namespace mmrfd::transport {

class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128: 7 value bits per byte, high bit = continuation (1-10 bytes).
  void uvarint(std::uint64_t v);
  void entries(std::span<const TaggedEntry> es);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8();
  [[nodiscard]] std::optional<std::uint32_t> u32();
  [[nodiscard]] std::optional<std::uint64_t> u64();
  [[nodiscard]] std::optional<std::uint64_t> uvarint();
  [[nodiscard]] std::optional<std::vector<TaggedEntry>> entries();

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

// --- query-response protocol messages ---------------------------------------

void encode(Encoder& e, const core::QueryMessage& m);
void encode(Encoder& e, const core::ResponseMessage& m);
[[nodiscard]] std::optional<core::QueryMessage> decode_query(Decoder& d);
[[nodiscard]] std::optional<core::ResponseMessage> decode_response(Decoder& d);

/// Exact wire size (envelope included) — the size_fn used by experiment E4.
[[nodiscard]] std::size_t wire_size(const core::QueryMessage& m);
[[nodiscard]] std::size_t wire_size(const core::ResponseMessage& m);

/// Encoded length of a LEB128 varint.
[[nodiscard]] std::size_t uvarint_size(std::uint64_t v);

// --- envelopes ---------------------------------------------------------------

using WireMessage = std::variant<core::QueryMessage, core::ResponseMessage>;

[[nodiscard]] std::vector<std::uint8_t> encode_envelope(
    ProcessId sender, const core::QueryMessage& m);
[[nodiscard]] std::vector<std::uint8_t> encode_envelope(
    ProcessId sender, const core::ResponseMessage& m);
[[nodiscard]] std::vector<std::uint8_t> encode_envelope(ProcessId sender,
                                                        const WireMessage& m);
struct DecodedEnvelope {
  ProcessId sender;
  WireMessage message;
};
[[nodiscard]] std::optional<DecodedEnvelope> decode_envelope(
    std::span<const std::uint8_t> datagram);

}  // namespace mmrfd::transport
