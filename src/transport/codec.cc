#include "transport/codec.h"

namespace mmrfd::transport {

namespace {
constexpr std::uint8_t kTypeQuery = 1;
constexpr std::uint8_t kTypeResponse = 2;

// Query payload flags.
constexpr std::uint8_t kQueryDelta = 1;     // == QueryMessage::kDeltaFlag
constexpr std::uint8_t kQueryHasEpoch = 2;  // epoch field present (nonzero)

// Response payload flags.
constexpr std::uint8_t kRespNeedFull = 1;
constexpr std::uint8_t kRespHasAck = 2;    // ack_epoch field present (nonzero)
constexpr std::uint8_t kRespHasOrigin = 4;  // origin_seq field present (nonzero)
}  // namespace

void Encoder::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Encoder::entries(std::span<const TaggedEntry> es) {
  u32(static_cast<std::uint32_t>(es.size()));
  for (const auto& e : es) {
    u32(e.id.value);
    u64(e.tag);
  }
}

std::optional<std::uint8_t> Decoder::u8() {
  if (pos_ + 1 > data_.size()) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint32_t> Decoder::u32() {
  if (pos_ + 4 > data_.size()) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> Decoder::u64() {
  if (pos_ + 8 > data_.size()) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> Decoder::uvarint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return std::nullopt;
    const std::uint8_t byte = data_[pos_++];
    // The 10th byte (shift 63) may only contribute the final value bit.
    if (shift == 63 && (byte & ~std::uint8_t{1}) != 0) return std::nullopt;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return std::nullopt;  // unreachable: shift 63 always returns
}

std::optional<std::vector<TaggedEntry>> Decoder::entries() {
  const auto count = u32();
  if (!count) return std::nullopt;
  // Sanity bound: each entry takes 12 bytes of the *remaining* buffer, not
  // the whole datagram — a count that only fits if the already-consumed
  // header were re-counted is a lying prefix, and the reserve() below must
  // never be driven past what the buffer can actually hold.
  if (static_cast<std::size_t>(*count) * 12 > data_.size() - pos_) {
    return std::nullopt;
  }
  std::vector<TaggedEntry> out;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto id = u32();
    const auto tag = u64();
    if (!id || !tag) return std::nullopt;
    out.push_back(TaggedEntry{ProcessId{*id}, *tag});
  }
  return out;
}

void encode(Encoder& e, const core::QueryMessage& m) {
  e.u64(m.seq);
  std::uint8_t flags = 0;
  if (m.is_delta()) flags |= kQueryDelta;
  if (m.epoch != 0) flags |= kQueryHasEpoch;
  e.u8(flags);
  if (m.epoch != 0) e.uvarint(m.epoch);
  if (m.is_delta()) e.uvarint(m.base_epoch);
  e.u32(m.suspected_count);
  e.entries(m.entries);
}

void encode(Encoder& e, const core::ResponseMessage& m) {
  e.u64(m.seq);
  std::uint8_t flags = 0;
  if (m.need_full) flags |= kRespNeedFull;
  if (m.ack_epoch != 0) flags |= kRespHasAck;
  if (m.origin_seq != 0) flags |= kRespHasOrigin;
  e.u8(flags);
  if (m.ack_epoch != 0) e.uvarint(m.ack_epoch);
  if (m.origin_seq != 0) e.uvarint(m.origin_seq);
}

std::optional<core::QueryMessage> decode_query(Decoder& d) {
  core::QueryMessage m;
  const auto seq = d.u64();
  const auto flags = d.u8();
  if (!seq || !flags) return std::nullopt;
  if ((*flags & ~(kQueryDelta | kQueryHasEpoch)) != 0) return std::nullopt;
  // A delta promises the receiver an epoch to ack; every real sender tracks
  // epochs in delta mode (epoch >= base_epoch > 0), so delta-without-epoch
  // only arises from corrupted flag bytes. Reject rather than hand the core
  // a message shape it never produces.
  if ((*flags & kQueryDelta) != 0 && (*flags & kQueryHasEpoch) == 0) {
    return std::nullopt;
  }
  m.seq = *seq;
  if ((*flags & kQueryHasEpoch) != 0) {
    const auto epoch = d.uvarint();
    if (!epoch || *epoch == 0) return std::nullopt;  // canonical: flag <=> nonzero
    m.epoch = *epoch;
  }
  if ((*flags & kQueryDelta) != 0) {
    m.set_delta(true);
    const auto base = d.uvarint();
    if (!base) return std::nullopt;
    m.base_epoch = *base;
  }
  const auto split = d.u32();
  if (!split) return std::nullopt;
  auto entries = d.entries();
  if (!entries) return std::nullopt;
  if (*split > entries->size()) return std::nullopt;  // lying split
  m.suspected_count = *split;
  m.entries = std::move(*entries);
  return m;
}

std::optional<core::ResponseMessage> decode_response(Decoder& d) {
  const auto seq = d.u64();
  const auto flags = d.u8();
  if (!seq || !flags) return std::nullopt;
  if ((*flags & ~(kRespNeedFull | kRespHasAck | kRespHasOrigin)) != 0) {
    return std::nullopt;
  }
  core::ResponseMessage m;
  m.seq = *seq;
  m.need_full = (*flags & kRespNeedFull) != 0;
  if ((*flags & kRespHasAck) != 0) {
    const auto ack = d.uvarint();
    if (!ack || *ack == 0) return std::nullopt;
    m.ack_epoch = *ack;
  }
  if ((*flags & kRespHasOrigin) != 0) {
    const auto origin = d.uvarint();
    if (!origin || *origin == 0) return std::nullopt;  // canonical: flag <=> nonzero
    m.origin_seq = *origin;
  }
  return m;
}

namespace {
constexpr std::size_t kEnvelopeHeader = 4 + 1;  // sender + type
}

std::size_t uvarint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}

std::size_t wire_size(const core::QueryMessage& m) {
  std::size_t size = kEnvelopeHeader + 8 + 1;  // seq + flags
  if (m.epoch != 0) size += uvarint_size(m.epoch);
  if (m.is_delta()) size += uvarint_size(m.base_epoch);
  return size + 4 + 4 + 12 * m.entries.size();
}

std::size_t wire_size(const core::ResponseMessage& m) {
  return kEnvelopeHeader + 8 + 1 +
         (m.ack_epoch != 0 ? uvarint_size(m.ack_epoch) : 0) +
         (m.origin_seq != 0 ? uvarint_size(m.origin_seq) : 0);
}

std::vector<std::uint8_t> encode_envelope(ProcessId sender,
                                          const core::QueryMessage& m) {
  Encoder e;
  e.u32(sender.value);
  e.u8(kTypeQuery);
  encode(e, m);
  return e.take();
}

std::vector<std::uint8_t> encode_envelope(ProcessId sender,
                                          const core::ResponseMessage& m) {
  Encoder e;
  e.u32(sender.value);
  e.u8(kTypeResponse);
  encode(e, m);
  return e.take();
}

std::vector<std::uint8_t> encode_envelope(ProcessId sender,
                                          const WireMessage& m) {
  return std::visit(
      [sender](const auto& msg) { return encode_envelope(sender, msg); }, m);
}

std::optional<DecodedEnvelope> decode_envelope(
    std::span<const std::uint8_t> datagram) {
  Decoder d(datagram);
  const auto sender = d.u32();
  const auto type = d.u8();
  if (!sender || !type) return std::nullopt;
  if (*type == kTypeQuery) {
    auto q = decode_query(d);
    if (!q || !d.exhausted()) return std::nullopt;
    return DecodedEnvelope{ProcessId{*sender}, std::move(*q)};
  }
  if (*type == kTypeResponse) {
    auto r = decode_response(d);
    if (!r || !d.exhausted()) return std::nullopt;
    return DecodedEnvelope{ProcessId{*sender}, *r};
  }
  return std::nullopt;
}

}  // namespace mmrfd::transport
