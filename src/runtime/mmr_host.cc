#include "runtime/mmr_host.h"

#include <cassert>

namespace mmrfd::runtime {

namespace {

// MmrHostConfig's extras over the {detector, pacing, initial_delay} every
// host config carries; all off for configs without them (SimpleHostConfig).
struct HostExtras {
  double pacing_jitter{0.0};
  std::uint64_t jitter_seed{0};
  obs::MetricsRegistry* registry{nullptr};
  obs::FlightRecorder* recorder{nullptr};
};

template <typename Config>
HostExtras extras_of(const Config& c) {
  if constexpr (requires {
                  c.pacing_jitter;
                  c.jitter_seed;
                  c.registry;
                  c.recorder;
                }) {
    return {c.pacing_jitter, c.jitter_seed, c.registry, c.recorder};
  } else {
    return {};
  }
}

}  // namespace

template <typename Core, typename Config>
SimHost<Core, Config>::SimHost(sim::Simulation& simulation,
                               MmrNetwork& network, const Config& config,
                               core::PropertyRecorder* recorder,
                               core::SuspicionObserver* observer)
    : sim_(simulation),
      net_(network),
      config_(config),
      core_(config.detector),
      recorder_(recorder),
      driver_(core_, net_.topology().neighbors(config.detector.self),
              extras_of(config).registry, "sim", extras_of(config).recorder),
      jitter_rng_(derive_seed(extras_of(config).jitter_seed, "host.jitter",
                              config.detector.self.value)),
      pacing_jitter_(extras_of(config).pacing_jitter) {
  assert(pacing_jitter_ >= 0.0 && pacing_jitter_ < 1.0);
  if constexpr (requires { core_.set_recorder(nullptr); }) {
    core_.set_recorder(extras_of(config).recorder);
  }
  core_.set_observer(observer);
  net_.set_handler(id(), [this](ProcessId from, const MmrMessage& msg) {
    handle(from, msg);
  });
}

template <typename Core, typename Config>
void SimHost<Core, Config>::start() {
  assert(!started_);
  started_ = true;
  sim_.schedule(config_.initial_delay, [this] { begin_round(); });
}

template <typename Core, typename Config>
void SimHost<Core, Config>::crash() {
  crashed_ = true;
  net_.crash(id());
}

template <typename Core, typename Config>
void SimHost<Core, Config>::begin_round() {
  if (crashed_) return;
  driver_.begin(sim_.now());
  // One delivery payload per distinct message, shared by its recipients
  // (broadcast()'s allocation profile). Sends go out in topology order, so
  // the per-recipient rng draws are identical to broadcast() whenever no
  // peer is skipped — the invariant the golden digests pin.
  payloads_.clear();
  for (core::QueryMessage& q : driver_.payloads()) {
    payloads_.push_back(std::make_shared<const MmrMessage>(std::move(q)));
  }
  driver_.for_each_send([this](const core::QuerySend& s) {
    net_.send_shared(id(), s.to, payloads_[s.payload]);
  });
  payloads_.clear();  // the delivery events own them now
  // With f = n - 1 the quorum is the self-response alone and the query
  // terminates instantly.
  if (core_.query_terminated()) on_terminated();
}

template <typename Core, typename Config>
void SimHost<Core, Config>::on_terminated() {
  if constexpr (requires { core_.winning(); }) {
    if (recorder_ != nullptr) {
      recorder_->record(id(), core_.query_seq(), sim_.now(), core_.winning());
    }
  }
  // Pure observation of now(): no scheduling, no RNG draws, so the seeded
  // event order is untouched.
  driver_.on_quorum(sim_.now());
  // Pacing window: late responses arriving before the next query still flow
  // into rec_from via on_response (accept_late_responses).
  sim_.schedule(next_pacing(), [this] {
    if (crashed_) return;
    driver_.finish();
    begin_round();
  });
}

template <typename Core, typename Config>
Duration SimHost<Core, Config>::next_pacing() {
  if (pacing_jitter_ == 0.0) return config_.pacing;
  const double factor =
      jitter_rng_.uniform(1.0 - pacing_jitter_, 1.0 + pacing_jitter_);
  return Duration(static_cast<Duration::rep>(
      static_cast<double>(config_.pacing.count()) * factor));
}

template <typename Core, typename Config>
void SimHost<Core, Config>::handle(ProcessId from, const MmrMessage& msg) {
  if (crashed_) return;
  if (const auto* q = std::get_if<core::QueryMessage>(&msg)) {
    net_.send(id(), from, MmrMessage{driver_.serve(from, *q)});
  } else if (const auto* r = std::get_if<core::ResponseMessage>(&msg)) {
    if (driver_.accept(from, *r)) on_terminated();
  }
}

template class SimHost<core::DetectorCore, MmrHostConfig>;
template class SimHost<core::SimpleDetectorCore, SimpleHostConfig>;

}  // namespace mmrfd::runtime
