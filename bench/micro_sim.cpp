// Micro-benchmarks of the simulation substrate: event throughput bounds how
// large an experiment the harness can run per wall-clock second.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/simulation.h"

using namespace mmrfd;

namespace {

void BM_ScheduleFire(benchmark::State& state) {
  // Steady-state schedule+fire pairs through the heap.
  sim::Simulation sim;
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule(from_millis(1), [] {});
    }
    sim.run_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleFire)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HoldExponential(benchmark::State& state) {
  // The classic "hold" model at a fixed queue depth: every fired event
  // schedules one successor an exponentially distributed delay ahead. Unlike
  // BM_ScheduleFire's almost-FIFO times, a random future time lands deep in
  // the heap and the pop that follows sifts the last leaf down from the root
  // — the regime of a large simulated cluster (sim_steady keeps ~8.7k
  // events pending at n=300).
  struct Hold {
    sim::Simulation* sim;
    Xoshiro256* rng;
    void operator()() const {
      sim->schedule(Duration{static_cast<std::int64_t>(rng->exponential(1e6))},
                    *this);
    }
  };
  sim::Simulation sim;
  Xoshiro256 rng(1);
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < depth; ++i) Hold{&sim, &rng}();
  // One pop (plus its successor's push) per iteration: the earliest event
  // fires and run_until returns at its time.
  for (auto _ : state) sim.run_until(sim.next_event_time());
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_fired()));
}
BENCHMARK(BM_HoldExponential)->Arg(1024)->Arg(8192);

void BM_ScheduleCancel(benchmark::State& state) {
  // The baseline detectors' timer pattern: arm, then cancel on heartbeat.
  sim::Simulation sim;
  for (auto _ : state) {
    const auto id = sim.schedule(from_seconds(3600), [] {});
    sim.cancel(id);
    if (sim.events_pending() > 100000) sim.run_all();  // drain tombstones
  }
  sim.run_all();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScheduleCancel);

void BM_NetworkDelivery(benchmark::State& state) {
  // Full path: send -> delay sample -> heap -> handler.
  using Msg = std::uint64_t;
  sim::Simulation sim;
  net::Network<Msg> network(sim, net::Topology::full(2),
                            std::make_unique<net::ExponentialDelay>(
                                from_millis(1), from_millis(1)),
                            1);
  std::uint64_t sink = 0;
  network.set_handler(ProcessId{1},
                      [&](ProcessId, const Msg& m) { sink += m; });
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      network.send(ProcessId{0}, ProcessId{1}, i);
    }
    sim.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_NetworkDelivery)->Arg(256)->Arg(4096);

void BM_Broadcast(benchmark::State& state) {
  // The per-round hot path at scale: one n-node broadcast of a vector-heavy
  // message. The shared-payload fan-out copies the message once, not n-1
  // times, so per-item cost should stay flat as the payload grows.
  struct FatMsg {
    std::vector<std::uint64_t> suspected;
    std::vector<std::uint64_t> mistakes;
  };
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::Simulation sim;
  net::Network<FatMsg> network(sim, net::Topology::full(n),
                               std::make_unique<net::ExponentialDelay>(
                                   from_millis(1), from_millis(1)),
                               1);
  std::uint64_t sink = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    network.set_handler(ProcessId{i}, [&](ProcessId, const FatMsg& m) {
      sink += m.suspected.size();
    });
  }
  FatMsg msg;
  msg.suspected.assign(32, 7);
  msg.mistakes.assign(32, 9);
  for (auto _ : state) {
    network.broadcast(ProcessId{0}, msg);
    sim.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (n - 1));
}
BENCHMARK(BM_Broadcast)->Arg(16)->Arg(100)->Arg(1000);

void BM_RngExponential(benchmark::State& state) {
  Xoshiro256 rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.exponential(1.0);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngExponential);

void BM_RngNextBelow(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.next_below(12345);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNextBelow);

}  // namespace
