// ShardedMmrCluster — the multi-core sibling of MmrCluster: the same n-host
// MMR deployment, partitioned across the worker threads of a
// sim::ShardedEngine.
//
// Partitioning scheme:
//   * Nodes are assigned to shards in contiguous blocks (node i lives on
//     shard i * S / n), deterministically.
//   * Each shard owns a private Simulation, a private Network instance (the
//     O(n^2) Topology is built once and shared read-only across all of
//     them), a private rollup-mode EventLog and the hosts of its nodes. All
//     of a shard's random streams (delays, loss, per-host jitter) are
//     private to its thread.
//   * A message whose recipient lives on another shard is handed to the
//     engine's exchange queues with its absolute (already-sampled) delivery
//     time; the conservative window — sized by the delay model's
//     min_delay() bound — guarantees the destination shard has not advanced
//     past it.
//
// Semantics vs MmrCluster: protocol-equivalent, not bit-identical. Both
// build their hosts from mmr_host_configs(), so stagger and per-host jitter
// seeds are the serial ones, but delay/loss streams are per-shard (a shard
// cannot share an RNG with another thread), so individual message delays
// differ from the serial run. tests/sim/engine_equivalence_test.cc pins the protocol-level
// agreement. For a fixed (seed, shards) pair a run is fully deterministic.
//
// Not carried over from MmrCluster: the PropertyRecorder (MP checking needs
// a global round journal; record it on the serial reference instead) and
// full event streams (per-shard logs run in rollup mode — see
// metrics::summarize_rollup).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "metrics/analysis.h"
#include "metrics/event_log.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "runtime/mmr_host.h"
#include "sim/sharded_engine.h"

namespace mmrfd::runtime {

class ShardedMmrCluster {
 public:
  /// Builds the deployment with `shards` worker shards. Throws
  /// std::invalid_argument if the config's delay model has a zero
  /// min_delay() bound (no conservative window can be sized).
  ShardedMmrCluster(const MmrClusterConfig& config, std::uint32_t shards);

  /// Schedules the crash plan (each crash on its victim's shard) and starts
  /// every host. Call once.
  void start(const CrashPlan& plan = CrashPlan::none());

  void run_for(Duration d) { engine_.run_for(d); }
  void run_until(TimePoint t) { engine_.run_until(t); }

  [[nodiscard]] sim::ShardedEngine& engine() { return engine_; }
  [[nodiscard]] std::uint32_t n() const { return config_.n; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return engine_.shard_count();
  }
  [[nodiscard]] const MmrClusterConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t shard_of(ProcessId id) const {
    return (*shard_of_)[id.value];
  }

  [[nodiscard]] MmrHost& host(ProcessId id) { return *hosts_.at(id.value); }
  [[nodiscard]] const MmrHost& host(ProcessId id) const {
    return *hosts_.at(id.value);
  }
  [[nodiscard]] MmrNetwork& network(std::uint32_t shard) {
    return *nets_.at(shard);
  }
  [[nodiscard]] metrics::EventLog& log(std::uint32_t shard) {
    return *logs_.at(shard);
  }

  /// Per-shard metrics registry: every host of shard s records its sim.*
  /// instruments here, so shard workers never contend on shared counters.
  [[nodiscard]] obs::MetricsRegistry& shard_metrics(std::uint32_t shard) {
    return *registries_.at(shard);
  }
  /// Cluster-wide metrics: all per-shard registries merged (counters and
  /// histogram buckets summed). Call after run_for()/run_until() returns —
  /// never while the worker threads are mid-window.
  [[nodiscard]] obs::RegistrySnapshot telemetry() const;

  /// Per-pair suspicion rollups merged across all shards, sorted by
  /// (observer, subject). Feed to metrics::summarize_rollup().
  [[nodiscard]] std::vector<metrics::PairRollup> rollup() const;
  /// Crash records merged across shards, in (time, victim) order.
  [[nodiscard]] std::vector<metrics::CrashRecord> crashes() const;
  /// Network counters summed across shards.
  [[nodiscard]] net::NetworkStats stats() const;
  /// Total bytes retained by the per-shard logs (memory-bound checks).
  [[nodiscard]] std::size_t log_retained_bytes() const;

  [[nodiscard]] std::vector<ProcessId> alive() const;

 private:
  static Duration window_for(const MmrClusterConfig& config);

  MmrClusterConfig config_;
  std::shared_ptr<const std::vector<std::uint32_t>> shard_of_;
  sim::ShardedEngine engine_;
  std::vector<std::unique_ptr<MmrNetwork>> nets_;
  std::vector<std::unique_ptr<metrics::EventLog>> logs_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<MmrHost>> hosts_;
  bool started_{false};
};

}  // namespace mmrfd::runtime
