// SimHost — binds a detector core to the simulated network. Round policy
// lives in core::RoundDriver; the adapter keeps what it must not know about:
//   * sending QUERYs and RESPONSEs over net::Network;
//   * the inter-query pacing delay Delta and its jitter draw — the paper
//     requires only that the time between consecutive queries is "finite but
//     arbitrary"; the evaluation inserts a fixed Delta so the network is not
//     flooded, and responses arriving during that window still count into
//     rec_from;
//   * reporting terminated rounds to the PropertyRecorder (for MP checking);
//   * crash-stop: a crashed host stops all activity instantly.
// MmrHost is SimHost on DetectorCore; SimpleHost is SimHost on the tag-free
// SimpleDetectorCore (the perpetual-assumption / class-S variant), and
// SimpleCluster a BaselineCluster of them.
#pragma once

#include <memory>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/properties.h"
#include "core/round_driver.h"
#include "core/simple_detector.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "runtime/baseline_cluster.h"
#include "sim/simulation.h"

namespace mmrfd::runtime {

using MmrMessage = std::variant<core::QueryMessage, core::ResponseMessage>;
using MmrNetwork = net::Network<MmrMessage>;

struct MmrHostConfig {
  core::DetectorConfig detector;
  /// Pacing Delta between a query's termination and the next query.
  Duration pacing{from_millis(1000)};
  /// Relative jitter on the pacing, in [0, 1): each round's pacing is drawn
  /// uniformly from pacing * [1 - jitter, 1 + jitter]. The paper requires
  /// only that inter-query time is "finite but arbitrary" — jitter > 0
  /// exercises that generality (see the ArbitraryPacing tests).
  double pacing_jitter{0.0};
  /// Seed for the jitter stream (derive from the cluster seed).
  std::uint64_t jitter_seed{0};
  /// First query fires at this offset (stagger hosts to avoid lockstep).
  Duration initial_delay{Duration::zero()};
  /// Optional shared metrics registry: the host contributes sim.rounds and
  /// the sim.round_rtt_ns histogram (query start -> quorum, in sim time).
  /// Collection is pure observation — now() reads, no RNG draws, no event
  /// scheduling — so fixed-seed schedules are untouched. Null = off.
  obs::MetricsRegistry* registry{nullptr};
  /// Optional flight recorder for the core's and the round driver's trace
  /// records, stamped in sim time. Null = off.
  obs::FlightRecorder* recorder{nullptr};
};

template <typename Core, typename Config>
class SimHost {
 public:
  SimHost(sim::Simulation& simulation, MmrNetwork& network,
          const Config& config, core::PropertyRecorder* recorder = nullptr,
          core::SuspicionObserver* observer = nullptr);
  /// The BaselineCluster constructor shape.
  SimHost(sim::Simulation& simulation, MmrNetwork& network,
          const Config& config, core::SuspicionObserver* observer)
      : SimHost(simulation, network, config, nullptr, observer) {}

  SimHost(const SimHost&) = delete;
  SimHost& operator=(const SimHost&) = delete;

  /// Schedules the first query; must be called once before the run.
  void start();

  /// Crash-stop: silences this host and tells the network to drop deliveries.
  void crash();

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] ProcessId id() const { return config_.detector.self; }
  [[nodiscard]] const Core& detector() const { return core_; }
  [[nodiscard]] Core& detector() { return core_; }

 private:
  void begin_round();
  void on_terminated();
  void handle(ProcessId from, const MmrMessage& msg);

  [[nodiscard]] Duration next_pacing();

  sim::Simulation& sim_;
  MmrNetwork& net_;
  Config config_;
  Core core_;
  core::PropertyRecorder* recorder_;
  core::RoundDriver<Core> driver_;
  Xoshiro256 jitter_rng_;
  double pacing_jitter_{0.0};
  bool crashed_{false};
  bool started_{false};
  /// begin_round() buffer: each payload wrapped once, shared by the
  /// delivery events of its recipients.
  std::vector<std::shared_ptr<const MmrMessage>> payloads_;
};

using MmrHost = SimHost<core::DetectorCore, MmrHostConfig>;
extern template class SimHost<core::DetectorCore, MmrHostConfig>;

struct SimpleHostConfig {
  core::SimpleDetectorConfig detector;
  Duration pacing{from_millis(1000)};
  Duration initial_delay{Duration::zero()};
};

using SimpleHost = SimHost<core::SimpleDetectorCore, SimpleHostConfig>;
extern template class SimHost<core::SimpleDetectorCore, SimpleHostConfig>;

/// A cluster of tag-free detectors (ablation harness for experiment E9).
using SimpleCluster = BaselineCluster<SimpleHost, SimpleHostConfig, MmrMessage>;

}  // namespace mmrfd::runtime
