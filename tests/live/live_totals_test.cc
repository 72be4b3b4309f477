// Name-drift guard for the supervisor's LiveRunResult totals: every registry
// name in live::kLiveTotals must be one the node's layer stack registers.
// RegistrySnapshot::counter_value() reads an unknown name as 0, so a
// misspelt entry would otherwise zero its total without failing anything.
#include <gtest/gtest.h>

#include "live/supervisor.h"
#include "obs/metrics_registry.h"
#include "transport/realtime_detector.h"
#include "transport/udp_transport.h"

namespace mmrfd::live {
namespace {

TEST(LiveTotals, EveryNameIsRegisteredByTheNodeStack) {
  // The mmrfd-node stack on one registry. Counters register at
  // construction, so nothing is started: no port is bound, no thread runs.
  obs::MetricsRegistry registry;
  transport::UdpConfig ucfg;
  ucfg.self = ProcessId{0};
  ucfg.n = 3;
  ucfg.registry = &registry;
  transport::UdpTransport udp(ucfg);
  transport::RealTimeConfig rcfg;
  rcfg.detector.self = ProcessId{0};
  rcfg.detector.n = 3;
  rcfg.detector.f = 1;
  rcfg.registry = &registry;
  transport::RealTimeDetector detector(udp, rcfg);

  const obs::RegistrySnapshot snapshot = registry.snapshot();
  for (const LiveTotal& total : kLiveTotals) {
    EXPECT_NE(snapshot.find_counter(total.counter), nullptr) << total.counter;
  }
}

}  // namespace
}  // namespace mmrfd::live
