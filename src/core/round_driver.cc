#include "core/round_driver.h"

#include <string>

namespace mmrfd::core {

namespace {

// DetectorCore speaks the delta encoding and runs the give-up policy; the
// tag-free SimpleDetectorCore does neither.
template <typename Core>
constexpr bool kDeltaCore = requires(Core& c, ProcessId p) { c.query_for(p); };

template <typename Core>
bool skipped_by_policy(const Core& core, ProcessId peer) {
  if constexpr (requires { core.should_query(peer); }) {
    return !core.should_query(peer);
  }
  return false;
}

}  // namespace

template <typename Core>
RoundDriver<Core>::RoundDriver(Core& core, std::span<const ProcessId> peers,
                               obs::MetricsRegistry* registry,
                               std::string_view metric_prefix,
                               obs::FlightRecorder* recorder)
    : core_(core), peers_(peers), recorder_(recorder) {
  if (registry != nullptr) {
    const std::string prefix(metric_prefix);
    rounds_ = &registry->counter(prefix + ".rounds");
    resend_waves_ = &registry->counter(prefix + ".resend_waves");
    round_rtt_ns_ = &registry->histogram(prefix + ".round_rtt_ns");
  }
  sends_.reserve(peers_.size());  // the largest plan; never regrown
}

template <typename Core>
void RoundDriver<Core>::begin(TimePoint now) {
  sends_.clear();
  payloads_.clear();
  payload_bases_.clear();
  waves_ = 0;
  round_start_ = now;
  if constexpr (kDeltaCore<Core>) {
    core_.begin_query();
  } else {
    payloads_.push_back(core_.start_query());
    payload_bases_.push_back(0);
  }
  // The round sequence stamped into every causal-trace record of the round.
  round_seq_ = static_cast<std::uint32_t>(core_.query_seq());
  for (const ProcessId to : peers_) {
    if (skipped_by_policy(core_, to)) continue;
    Epoch base = 0;
    if constexpr (kDeltaCore<Core>) {
      if (!core_.full_query_needed(to)) base = core_.acked_epoch(to);
    }
    plan_send(to, base);
  }
}

template <typename Core>
void RoundDriver<Core>::plan_send(ProcessId to, Epoch base) {
  std::uint32_t slot = 0;
  while (slot < payload_bases_.size() && payload_bases_[slot] != base) ++slot;
  if (slot == payloads_.size()) {
    // DetectorCore::query_for builds the delta against acked_epoch(to), so
    // every peer with the same base gets an identical message.
    if constexpr (kDeltaCore<Core>) {
      payloads_.push_back(base == 0 ? core_.full_query() : core_.query_for(to));
    } else {
      payloads_.push_back(core_.full_query());
    }
    payload_bases_.push_back(base);
  }
  sends_.push_back({to, slot});
}

template <typename Core>
bool RoundDriver<Core>::plan_resend() {
  const std::uint32_t n = core_.config().n;
  responded_.assign(n, false);
  for (const ProcessId p : core_.rec_from()) {
    if (p.value < n) responded_[p.value] = true;
  }
  // A peer the give-up policy elided was never queried: resending to it in
  // the first wave would undo the policy (dead peers are exactly the ones
  // that stay silent). A round still short of quorum one interval later
  // means the skips were wrong, so later waves query everyone silent.
  const bool honour_skips = waves_ == 0;
  ++waves_;
  sends_.clear();
  payloads_.clear();
  payload_bases_.clear();
  for (const ProcessId to : peers_) {
    if (to.value < n && responded_[to.value]) continue;
    if (honour_skips && skipped_by_policy(core_, to)) continue;
    // Always the self-contained encoding: it merges whatever the peer last
    // acknowledged.
    plan_send(to, 0);
  }
  if (sends_.empty()) return false;
  if (resend_waves_ != nullptr) resend_waves_->add(1);
  trace(obs::TraceKind::kResendWave, waves_,
        static_cast<std::uint32_t>(sends_.size()));
  return true;
}

template <typename Core>
void RoundDriver<Core>::on_quorum(TimePoint now) {
  trace(obs::TraceKind::kQuorum, round_seq_,
        static_cast<std::uint32_t>(core_.rec_from().size()));
  if (round_rtt_ns_ != nullptr) {
    round_rtt_ns_->observe(
        static_cast<std::uint64_t>((now - round_start_).count()));
  }
}

template <typename Core>
void RoundDriver<Core>::finish() {
  core_.finish_round();
  if (rounds_ != nullptr) rounds_->add(1);
}

template class RoundDriver<DetectorCore>;
template class RoundDriver<SimpleDetectorCore>;

}  // namespace mmrfd::core
