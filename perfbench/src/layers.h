// The layer pass of a traced run: times each inner layer's public
// functions on inputs shaped like the workload, so that count x per-call
// time can be reconciled against the measured run span (the ledger).
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "runtime/cluster.h"

namespace perfbench {

struct LayerShape {
  std::uint32_t n{0};
  std::uint32_t f{0};
  std::vector<std::uint32_t> dead;  ///< the workload's crash set
  /// Nodes whose responses miss their round (the churn workload's spike
  /// set); empty elsewhere.
  std::vector<std::uint32_t> slow;
  /// Pending-event count the scheduler probe holds (the traced run's
  /// median heap depth).
  std::size_t heap_depth{1024};
  /// Topology and delay model for the Network::send probe, sampled at sim
  /// time `net_at` (inside the spike window on the churn workload).
  mmrfd::runtime::MmrClusterConfig net_config;
  mmrfd::TimePoint net_at{mmrfd::kTimeZero};
  std::uint64_t seed{1};
  std::uint16_t udp_port{0};  ///< first of two loopback ports the probe owns
};

/// Mean per-call costs, nanoseconds unless named otherwise.
struct LayerCosts {
  double query_build_ns{0};
  double on_query_ns{0};
  double on_response_ns{0};
  double finish_round_ns{0};
  double loop_entries_per_query{0};

  double encode_ns{0};
  double decode_ns{0};
  double bytes_per_msg{0};

  double schedule_fire_ns{0};
  double schedule_ns{0};

  double net_send_ns{0};
  double udp_send_ns{0};

  double record_ns{0};
  double counter_add_ns{0};
  double histogram_record_ns{0};
};

/// Runs every probe once. Spans named "layer.<probe>" are opened under
/// `parent` in `spans`.
LayerCosts measure_layers(const LayerShape& shape, SpanLog& spans,
                          std::uint64_t parent);

/// Appends the per-call rows every workload reports.
void add_layer_cost_metrics(const LayerCosts& c, Outcome& out);

}  // namespace perfbench
