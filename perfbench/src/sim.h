// Simulated workloads: one seeded input set run through runtime::MmrCluster
// (or ShardedMmrCluster) and analysed with metrics::Analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"

namespace perfbench {

struct SimSpec {
  std::string name;
  std::uint32_t n{300};
  std::uint32_t f{75};
  std::size_t crashes{37};
  double horizon_s{30};
  mmrfd::Duration pacing{mmrfd::from_millis(1000)};
  bool churn{false};
  std::uint32_t shards{0};  ///< 0 = serial engine
  /// Shards of the sharded-engine pass in the traced run (0 = none).
  std::uint32_t compare_shards{0};
};

/// The generated inputs: the program sees only these.
struct SimInputs {
  mmrfd::runtime::MmrClusterConfig config;
  mmrfd::runtime::CrashPlan plan;
  std::vector<std::uint32_t> spike_set;
};

SimInputs make_sim_inputs(const SimSpec& spec, std::uint64_t seed);

/// Outputs and counts of one run of one input set.
struct SimRun {
  double build_s{0};
  double start_s{0};
  double run_s{0};
  double analysis_s{0};
  double run_cpu_s{0};       ///< process CPU over run_until
  double total_cpu_s{0};     ///< process CPU over run + analysis

  // Sim-time outputs: identical for identical inputs.
  std::uint64_t events{0};
  std::uint64_t messages{0};
  std::uint64_t digest{0};

  std::uint64_t delivered{0};
  std::uint64_t dropped_crash{0};
  std::uint64_t rounds{0};
  std::uint64_t queries{0};
  std::uint64_t full_queries{0};
  std::uint64_t query_entries{0};
  std::uint64_t responses{0};
  std::uint64_t bytes{0};
  std::uint64_t skipped{0};
  std::size_t log_entries{0};

  std::vector<double> latencies_s;  ///< per detected (crash, observer)
  std::size_t obligations{0};       ///< crashes x correct observers
  std::size_t undetected{0};
  bool complete{false};
  std::optional<double> weak_accuracy_at_s;
  std::size_t false_suspicions{0};
  std::size_t correct{0};

  double rtt_p50_ms{0};

  // Traced runs only.
  std::vector<double> heap_depths;  ///< events_pending per slice (per shard)
  std::uint64_t trace_records{0};

  // Sharded engine only.
  std::uint64_t windows{0};
  std::uint64_t cross_shard_posts{0};
};

/// Runs the inputs once. With `spans`, the run is traced: spans around
/// build, start, each simulated slice and analysis (children of `parent`),
/// and, on the serial engine, per-host flight recorders on.
SimRun run_sim_once(const SimSpec& spec, const SimInputs& inputs,
                    SpanLog* spans = nullptr, std::uint64_t parent = 0);

/// Correctness gate over repeats of one input set: strong completeness,
/// eventual weak accuracy, and identical sim-time outputs (events fired,
/// messages sent, detection digest). A failing repeat counts all of its
/// detection obligations as failed.
void gate_sim_runs(const std::vector<const SimRun*>& runs, Outcome& out);

/// The simulated twin of the live cluster (same n, f, pacing and kill
/// count), so the runtime/sim/net rows exist on the live workload too.
SimSpec live_twin_spec(std::uint32_t n, std::uint32_t f, std::size_t kills,
                       double horizon_s, mmrfd::Duration pacing);

}  // namespace perfbench
