#include "transport/realtime_detector.h"

#include <chrono>
#include <variant>
#include <vector>

#include "transport/codec.h"

namespace mmrfd::transport {

namespace {

std::vector<ProcessId> other_ids(const core::DetectorConfig& config) {
  std::vector<ProcessId> ids;
  for (std::uint32_t i = 0; i < config.n; ++i) {
    if (i != config.self.value) ids.push_back(ProcessId{i});
  }
  return ids;
}

TimePoint steady_now() {
  return std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now().time_since_epoch());
}

}  // namespace

RealTimeDetector::RealTimeDetector(DatagramTransport& transport,
                                   const RealTimeConfig& config)
    : transport_(transport),
      config_(config),
      core_(config.detector),
      peers_(other_ids(config.detector)),
      own_registry_(config.registry == nullptr
                        ? std::make_unique<obs::MetricsRegistry>()
                        : nullptr),
      registry_(config.registry != nullptr ? config.registry
                                           : own_registry_.get()),
      round_driver_(core_, peers_, registry_, "rt", config.recorder) {
  obs::MetricsRegistry& reg = *registry_;
  malformed_ = &reg.counter("codec.malformed");
  full_queries_sent_ = &reg.counter("rt.full_queries_sent");
  delta_queries_sent_ = &reg.counter("rt.delta_queries_sent");
  queries_received_ = &reg.counter("rt.queries_received");
  responses_received_ = &reg.counter("rt.responses_received");
  responses_sent_ = &reg.counter("rt.responses_sent");
  need_full_sent_ = &reg.counter("rt.need_full_sent");
  need_full_received_ = &reg.counter("rt.need_full_received");
  query_bytes_sent_ = &reg.counter("rt.query_bytes_sent");
  response_bytes_sent_ = &reg.counter("rt.response_bytes_sent");
  core_.set_recorder(config.recorder);
  transport_.set_handler([this](std::span<const std::uint8_t> datagram) {
    on_datagram(datagram);
  });
}

RealTimeDetector::~RealTimeDetector() { stop(); }

void RealTimeDetector::start() {
  {
    std::lock_guard lock(mutex_);
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  try {
    transport_.start();
  } catch (...) {
    // Bind/socket failure is a routine live-path event (occupied port).
    // Roll back so the destructor's stop() does not try to join a thread
    // that was never started — that would terminate() the process.
    std::lock_guard lock(mutex_);
    running_ = false;
    throw;
  }
  driver_ = std::thread([this] { driver_loop(); });
}

void RealTimeDetector::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  quorum_cv_.notify_all();
  if (driver_.joinable()) driver_.join();
  transport_.stop();
  std::lock_guard lock(mutex_);
  running_ = false;
}

void RealTimeDetector::driver_loop() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    // Plan under the lock (the driver reads the core), send outside it.
    round_driver_.begin(steady_now());
    lock.unlock();
    send_plan();
    lock.lock();
    // Wait for the quorum-th response (self counts already); re-checked on
    // every incoming response. The protocol stays time-free — the only
    // exits are quorum or shutdown — but every `resend` interval without
    // quorum the driver plans a resend wave to the still-silent peers. That
    // restores the reliable-channel assumption the model makes and a kernel
    // UDP path does not.
    while (!stopping_ && !core_.query_terminated()) {
      if (quorum_cv_.wait_for(lock, config_.resend, [&] {
            return stopping_ || core_.query_terminated();
          })) {
        break;
      }
      if (!round_driver_.plan_resend()) continue;  // termination raced
      lock.unlock();
      send_plan();
      lock.lock();
    }
    if (stopping_) return;
    // Quorum instant: the assembler's wire/resend-wait split pivots on its
    // record — everything between round open and here is quorum assembly,
    // everything after is pacing.
    round_driver_.on_quorum(steady_now());
    // Pacing window: late responses keep flowing into rec_from meanwhile.
    quorum_cv_.wait_for(lock, config_.pacing, [&] { return stopping_; });
    if (stopping_) return;
    round_driver_.finish();
  }
}

void RealTimeDetector::send_plan() {
  const std::span<const core::QueryMessage> payloads =
      round_driver_.payloads();
  encoded_.resize(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    encoded_[i] = encode_envelope(config_.detector.self, payloads[i]);
  }
  // Each peer's kQueryTxSeq is stamped immediately before its own send(),
  // so a fast receiver cannot log its rx ahead of our tx.
  round_driver_.for_each_send([&](const core::QuerySend& s) {
    const std::vector<std::uint8_t>& datagram = encoded_[s.payload];
    (payloads[s.payload].is_delta() ? delta_queries_sent_ : full_queries_sent_)
        ->add(1);
    query_bytes_sent_->add(datagram.size());
    transport_.send(s.to, datagram);
  });
}

void RealTimeDetector::on_datagram(std::span<const std::uint8_t> datagram) {
  auto decoded = decode_envelope(datagram);
  if (!decoded || decoded->sender.value >= config_.detector.n) {
    malformed_->add(1);
    return;
  }
  const ProcessId from = decoded->sender;
  if (const auto* q = std::get_if<core::QueryMessage>(&decoded->message)) {
    queries_received_->add(1);
    core::ResponseMessage response;
    {
      std::lock_guard lock(mutex_);
      response = round_driver_.serve(from, *q);
      // Piggyback our own current round sequence, so the querier's
      // kPeerRound record can name the remote round it overlapped.
      response.origin_seq = core_.query_seq();
    }
    if (response.need_full) need_full_sent_->add(1);
    const std::vector<std::uint8_t> reply =
        encode_envelope(config_.detector.self, response);
    responses_sent_->add(1);
    response_bytes_sent_->add(reply.size());
    transport_.send(from, reply);
  } else {
    const auto& r = std::get<core::ResponseMessage>(decoded->message);
    responses_received_->add(1);
    if (r.need_full) need_full_received_->add(1);
    bool terminated = false;
    {
      std::lock_guard lock(mutex_);
      terminated = round_driver_.accept(from, r);
    }
    if (terminated) quorum_cv_.notify_all();
  }
}

void RealTimeDetector::set_observer(core::SuspicionObserver* observer) {
  std::lock_guard lock(mutex_);
  core_.set_observer(observer);
}

std::vector<ProcessId> RealTimeDetector::suspected() const {
  std::lock_guard lock(mutex_);
  return core_.suspected();
}

bool RealTimeDetector::is_suspected(ProcessId id) const {
  std::lock_guard lock(mutex_);
  return core_.is_suspected(id);
}

std::uint64_t RealTimeDetector::rounds_completed() const {
  std::lock_guard lock(mutex_);
  return core_.rounds_completed();
}

}  // namespace mmrfd::transport
