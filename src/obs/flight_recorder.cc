#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <ostream>

namespace mmrfd::obs {
namespace {

std::uint64_t wall_now_ns(const void*) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceClock wall_trace_clock() { return TraceClock{&wall_now_ns, nullptr}; }

std::string_view trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRoundOpen:
      return "round_open";
    case TraceKind::kRoundClose:
      return "round_close";
    case TraceKind::kQueryRx:
      return "query_rx";
    case TraceKind::kSuspectAdd:
      return "suspect_add";
    case TraceKind::kSuspectDrop:
      return "suspect_drop";
    case TraceKind::kNeedFullTx:
      return "need_full_tx";
    case TraceKind::kNeedFullRx:
      return "need_full_rx";
    case TraceKind::kResync:
      return "resync";
    case TraceKind::kGiveUpSkip:
      return "giveup_skip";
    case TraceKind::kResendWave:
      return "resend_wave";
    case TraceKind::kQuorum:
      return "quorum";
    case TraceKind::kQueryTxSeq:
      return "query_tx_seq";
    case TraceKind::kResponseTxSeq:
      return "response_tx_seq";
    case TraceKind::kResponseRxSeq:
      return "response_rx_seq";
    case TraceKind::kPeerRound:
      return "peer_round";
  }
  return "unknown";
}

TraceKind trace_kind_from_name(std::string_view name) {
  for (std::uint8_t k = 1; k <= kMaxTraceKind; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    if (trace_kind_name(kind) == name) return kind;
  }
  return static_cast<TraceKind>(0);
}

FlightRecorder::FlightRecorder(std::size_t capacity, TraceClock clock)
    : clock_(clock), ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::set_clock(TraceClock clock) {
  std::lock_guard lock(mutex_);
  clock_ = clock;
}

void FlightRecorder::record(TraceKind kind, std::uint32_t a,
                            std::uint32_t b) {
  std::lock_guard lock(mutex_);
  TraceRecord& slot = ring_[total_ % ring_.size()];
  slot.t_ns = clock_.now();
  slot.seq = total_;
  slot.a = a;
  slot.b = b;
  slot.kind = kind;
  ++total_;
}

std::vector<TraceRecord> FlightRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceRecord> out;
  const std::uint64_t live =
      total_ < ring_.size() ? total_ : static_cast<std::uint64_t>(ring_.size());
  out.reserve(static_cast<std::size_t>(live));
  const std::uint64_t first = total_ - live;
  for (std::uint64_t s = first; s < total_; ++s) {
    out.push_back(ring_[s % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(mutex_);
  return total_;
}

void FlightRecorder::dump_text(std::ostream& out) const {
  for (const TraceRecord& r : snapshot()) {
    out << r.t_ns << " #" << r.seq << ' ' << trace_kind_name(r.kind)
        << " a=" << r.a << " b=" << r.b << '\n';
  }
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  dump_text(out);
  out.flush();
  return static_cast<bool>(out);
}

namespace {

// Little-endian scalar append into a flat byte buffer (signal path: the
// buffer lives on the caller's stack, no allocation).
template <typename T>
void put_le(unsigned char* dst, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

bool write_all(int fd, const unsigned char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool FlightRecorder::dump_binary_fd(int fd) const noexcept {
  // Deliberately lock-free: taking mutex_ inside a SIGSEGV handler could
  // self-deadlock if the fault happened under record(). At worst one slot
  // is torn mid-write; the loader's kind/seq validation drops it.
  unsigned char header[24];
  for (std::size_t i = 0; i < sizeof(kBinaryMagic); ++i) {
    header[i] = static_cast<unsigned char>(kBinaryMagic[i]);
  }
  put_le(header + 8, total_);
  put_le(header + 16, static_cast<std::uint64_t>(ring_.size()));
  if (!write_all(fd, header, sizeof(header))) return false;

  unsigned char rec[29];
  for (const TraceRecord& r : ring_) {
    put_le(rec + 0, r.t_ns);
    put_le(rec + 8, r.seq);
    put_le(rec + 16, r.a);
    put_le(rec + 20, r.b);
    rec[28] = static_cast<unsigned char>(r.kind);
    if (!write_all(fd, rec, sizeof(rec))) return false;
  }
  return true;
}

bool FlightRecorder::dump_binary_to_file(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump_binary_fd(fd);
  ::close(fd);
  return ok;
}

}  // namespace mmrfd::obs
