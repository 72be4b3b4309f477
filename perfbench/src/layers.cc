#include "layers.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <variant>

#include "common/rng.h"
#include "core/detector_core.h"
#include "net/topology.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "sim/simulation.h"
#include "transport/codec.h"
#include "transport/udp_transport.h"

namespace perfbench {
namespace {

using namespace mmrfd;

// Keeps results of timed loops observable so they are not folded away.
std::atomic<std::uint64_t> g_sink{0};

double ns_per(double seconds, std::uint64_t calls) {
  return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
}

struct CoreProbe {
  LayerCosts costs;
  std::vector<std::pair<ProcessId, transport::WireMessage>> sample;
};

// A bench-driven in-memory round loop: every live core queries its peers,
// every live peer answers, responses arrive in shuffled order, rounds
// close. The crash set dies a quarter of the way in; responses of `slow`
// nodes always miss their round, so they are suspected and defend
// themselves every round, as under the churn workload's spike.
CoreProbe probe_core(const LayerShape& s) {
  CoreProbe probe;
  std::vector<std::unique_ptr<core::DetectorCore>> cores;
  for (std::uint32_t i = 0; i < s.n; ++i) {
    core::DetectorConfig cfg;
    cfg.self = ProcessId{i};
    cfg.n = s.n;
    cfg.f = s.f;
    cores.push_back(std::make_unique<core::DetectorCore>(cfg));
  }
  std::vector<bool> alive(s.n, true);
  std::vector<bool> slow(s.n, false);
  for (std::uint32_t v : s.slow) slow.at(v) = true;

  const double pairs = static_cast<double>(s.n) * s.n;
  const auto rounds = static_cast<std::uint32_t>(
      std::clamp(1.5e6 / pairs, 12.0, 400.0));
  Xoshiro256 rng(mix_seed(s.seed, 0xc0de));

  struct Sent {
    std::uint32_t from;
    std::uint32_t to;
    int full;  // index into fulls, or -1 for `delta`
    core::QueryMessage delta;
  };
  struct Answer {
    std::uint32_t responder;
    std::uint32_t issuer;
    core::ResponseMessage r;
  };
  std::vector<Sent> sent;
  std::vector<core::QueryMessage> fulls;
  std::vector<Answer> answers;
  double build_s = 0, query_s = 0, response_s = 0, finish_s = 0;
  std::uint64_t builds = 0, queries = 0, responses = 0, finishes = 0;
  std::uint64_t entries = 0;
  const std::size_t sample_every =
      std::max<std::size_t>(1, static_cast<std::size_t>(pairs * rounds / 4000));
  std::size_t seen = 0;

  for (std::uint32_t round = 0; round < rounds; ++round) {
    if (round == rounds / 4) {
      for (std::uint32_t v : s.dead) alive.at(v) = false;
    }
    sent.clear();
    fulls.clear();
    auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < s.n; ++i) {
      if (!alive[i]) continue;
      core::DetectorCore& c = *cores[i];
      c.begin_query();
      int full = -1;
      for (std::uint32_t j = 0; j < s.n; ++j) {
        if (j == i || !c.should_query(ProcessId{j})) continue;
        if (c.full_query_needed(ProcessId{j})) {
          if (full < 0) {
            fulls.push_back(c.full_query());
            full = static_cast<int>(fulls.size()) - 1;
          }
          sent.push_back({i, j, full, {}});
        } else {
          sent.push_back({i, j, -1, c.query_for(ProcessId{j})});
        }
      }
    }
    build_s += seconds_since(t0);
    builds += sent.size();

    std::shuffle(sent.begin(), sent.end(), rng);
    answers.clear();
    t0 = Clock::now();
    for (const Sent& m : sent) {
      if (!alive[m.to]) continue;
      const core::QueryMessage& q = m.full >= 0 ? fulls[m.full] : m.delta;
      answers.push_back(
          {m.to, m.from, cores[m.to]->on_query(ProcessId{m.from}, q)});
    }
    query_s += seconds_since(t0);
    queries += answers.size();

    for (const Sent& m : sent) {
      const core::QueryMessage& q = m.full >= 0 ? fulls[m.full] : m.delta;
      entries += q.entries.size();
      if (seen++ % sample_every == 0 && probe.sample.size() < 4096) {
        probe.sample.emplace_back(ProcessId{m.from}, q);
      }
    }

    std::shuffle(answers.begin(), answers.end(), rng);
    t0 = Clock::now();
    for (const Answer& a : answers) {
      if (slow[a.responder]) continue;
      cores[a.issuer]->on_response(ProcessId{a.responder}, a.r);
      ++responses;
    }
    response_s += seconds_since(t0);
    for (std::size_t k = 0; k < answers.size() && probe.sample.size() < 8192;
         k += sample_every) {
      probe.sample.emplace_back(ProcessId{answers[k].responder}, answers[k].r);
    }

    t0 = Clock::now();
    for (std::uint32_t i = 0; i < s.n; ++i) {
      if (!alive[i] || !cores[i]->query_terminated()) continue;
      cores[i]->finish_round();
      ++finishes;
    }
    finish_s += seconds_since(t0);
  }
  probe.costs.query_build_ns = ns_per(build_s, builds);
  probe.costs.on_query_ns = ns_per(query_s, queries);
  probe.costs.on_response_ns = ns_per(response_s, responses);
  probe.costs.finish_round_ns = ns_per(finish_s, finishes);
  probe.costs.loop_entries_per_query =
      builds > 0 ? static_cast<double>(entries) / static_cast<double>(builds)
                 : 0;
  return probe;
}

void probe_codec(const CoreProbe& core, LayerCosts& c) {
  const auto& sample = core.sample;
  if (sample.empty()) return;
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(sample.size());
  double bytes = 0;
  for (const auto& [from, msg] : sample) {
    encoded.push_back(transport::encode_envelope(from, msg));
    bytes += static_cast<double>(encoded.back().size());
  }
  c.bytes_per_msg = bytes / static_cast<double>(sample.size());

  const std::size_t reps = std::max<std::size_t>(1, 400000 / sample.size());
  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& [from, msg] : sample) {
      sink += transport::encode_envelope(from, msg).size();
    }
  }
  c.encode_ns = ns_per(seconds_since(t0), reps * sample.size());

  t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& bytes_of : encoded) {
      const auto d = transport::decode_envelope(bytes_of);
      if (!d) throw std::runtime_error("codec probe: decode failed");
      sink += d->sender.value;
    }
  }
  c.decode_ns = ns_per(seconds_since(t0), reps * sample.size());

  g_sink += sink;
}

// Hold model: every fired event schedules one successor, so the heap stays
// at the workload's measured depth while `target` events fire.
struct HoldEvent {
  sim::Simulation* sim;
  Xoshiro256* rng;
  std::uint64_t* fired;
  std::uint64_t target;
  void operator()() const {
    if (++*fired >= target) return;
    sim->schedule(Duration(static_cast<Duration::rep>(rng->next_below(2000000))),
                  HoldEvent{*this});
  }
};

void probe_sim(const LayerShape& s, LayerCosts& c) {
  const std::size_t depth = std::max<std::size_t>(16, s.heap_depth);
  {
    sim::Simulation sim;
    Xoshiro256 rng(mix_seed(s.seed, 0x5eed));
    std::uint64_t fired = 0;
    const std::uint64_t target = std::max<std::uint64_t>(2000000, 20 * depth);
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule(Duration(static_cast<Duration::rep>(rng.next_below(2000000))),
                   HoldEvent{&sim, &rng, &fired, target});
    }
    const auto t0 = Clock::now();
    sim.run_all();
    c.schedule_fire_ns = ns_per(seconds_since(t0), sim.events_fired());
  }
  {
    // Schedule alone, into a heap holding `depth` far-future events.
    sim::Simulation sim;
    Xoshiro256 rng(mix_seed(s.seed, 0x5eee));
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule(from_seconds(1000.0) + Duration(static_cast<Duration::rep>(
                                              rng.next_below(1000000000))),
                   [] {});
    }
    double timed = 0;
    std::uint64_t calls = 0;
    for (int batch = 0; batch < 200; ++batch) {
      const auto t0 = Clock::now();
      for (int k = 0; k < 1000; ++k) {
        sim.schedule(Duration(static_cast<Duration::rep>(rng.next_below(2000000))),
                     [] {});
      }
      timed += seconds_since(t0);
      calls += 1000;
      sim.run_for(from_millis(3));
    }
    c.schedule_ns = ns_per(timed, calls);
  }
}

void probe_net(const LayerShape& s, LayerCosts& c) {
  auto topology = std::make_shared<const net::Topology>(net::Topology::full(s.n));
  Xoshiro256 rng(mix_seed(s.seed, 0x0e7));
  const runtime::MmrMessage msg{core::ResponseMessage{7, 3, false, 0}};
  double timed = 0;
  std::uint64_t calls = 0;
  for (int batch = 0; batch < 40; ++batch) {
    sim::Simulation sim;
    runtime::MmrNetwork net(sim, topology, runtime::build_mmr_delays(s.net_config),
                            mix_seed(s.seed, 0x0e8 + batch));
    runtime::apply_fault_knobs(net, s.net_config);
    for (std::uint32_t i = 0; i < s.n; ++i) {
      net.set_handler(ProcessId{i}, [](ProcessId, const runtime::MmrMessage&) {});
    }
    net.set_size_fn([](const runtime::MmrMessage& m) {
      return std::visit([](const auto& x) { return transport::wire_size(x); }, m);
    });
    if (s.net_at > kTimeZero) {
      sim.schedule_at(s.net_at, [] {});
      sim.run_until(s.net_at);
    }
    const auto t0 = Clock::now();
    for (int k = 0; k < 5000; ++k) {
      const auto from = static_cast<std::uint32_t>(rng.next_below(s.n));
      auto to = static_cast<std::uint32_t>(rng.next_below(s.n - 1));
      if (to >= from) ++to;
      net.send(ProcessId{from}, ProcessId{to}, msg);
    }
    timed += seconds_since(t0);
    calls += 5000;
    g_sink += net.stats().messages_sent;
  }
  c.net_send_ns = ns_per(timed, calls);
}

void probe_udp(const LayerShape& s, LayerCosts& c) {
  const std::size_t size =
      std::max<std::size_t>(16, static_cast<std::size_t>(c.bytes_per_msg + 0.5));
  const std::vector<std::uint8_t> payload(size, 0x5a);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto port = static_cast<std::uint16_t>(s.udp_port + 2 * attempt);
    std::atomic<std::uint64_t> received{0};
    transport::UdpConfig a_cfg;
    a_cfg.self = ProcessId{0};
    a_cfg.n = 2;
    a_cfg.base_port = port;
    transport::UdpConfig b_cfg = a_cfg;
    b_cfg.self = ProcessId{1};
    transport::UdpTransport a(a_cfg);
    transport::UdpTransport b(b_cfg);
    b.set_handler([&](std::span<const std::uint8_t>) { ++received; });
    a.set_handler([](std::span<const std::uint8_t>) {});
    try {
      a.start();
      b.start();
    } catch (const std::exception&) {
      continue;  // port taken: try the next pair
    }
    double timed = 0;
    std::uint64_t sent = 0;
    for (int batch = 0; batch < 400; ++batch) {
      const auto t0 = Clock::now();
      for (int k = 0; k < 50; ++k) a.send(ProcessId{1}, payload);
      timed += seconds_since(t0);
      sent += 50;
      const auto wait0 = Clock::now();
      while (received.load() < sent && seconds_since(wait0) < 0.5) {
        std::this_thread::yield();
      }
    }
    a.stop();
    b.stop();
    c.udp_send_ns = ns_per(timed, sent);
    return;
  }
  throw std::runtime_error("udp probe: no free loopback port pair");
}

void probe_obs(LayerCosts& c) {
  constexpr std::uint64_t kCalls = 2000000;
  {
    obs::FlightRecorder rec(4096);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      rec.record(obs::TraceKind::kQueryTxSeq, static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>(i >> 3));
    }
    c.record_ns = ns_per(seconds_since(t0), kCalls);
    g_sink += rec.recorded();
  }
  obs::MetricsRegistry registry;
  {
    obs::Counter& counter = registry.counter("perfbench.counter");
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) counter.add(i & 3);
    c.counter_add_ns = ns_per(seconds_since(t0), kCalls);
    g_sink += counter.value();
  }
  {
    obs::Histogram& h = registry.histogram("perfbench.histogram");
    Xoshiro256 rng(0x4157);
    std::vector<std::uint64_t> values(4096);
    for (auto& v : values) v = rng.next_below(1ull << 30);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) h.observe(values[i & 4095]);
    c.histogram_record_ns = ns_per(seconds_since(t0), kCalls);
    g_sink += h.count();
  }
}

}  // namespace

LayerCosts measure_layers(const LayerShape& shape, SpanLog& spans,
                          std::uint64_t parent) {
  auto id = spans.open("layer.core", parent);
  CoreProbe core = probe_core(shape);
  spans.close(id, {{"messages", static_cast<std::int64_t>(core.sample.size())}});
  LayerCosts c = core.costs;

  id = spans.open("layer.codec", parent);
  probe_codec(core, c);
  spans.close(id);

  id = spans.open("layer.sim", parent);
  probe_sim(shape, c);
  spans.close(id);

  id = spans.open("layer.net", parent);
  probe_net(shape, c);
  spans.close(id);

  id = spans.open("layer.udp", parent);
  probe_udp(shape, c);
  spans.close(id);

  id = spans.open("layer.obs", parent);
  probe_obs(c);
  spans.close(id);
  return c;
}

void add_layer_cost_metrics(const LayerCosts& c, Outcome& out) {
  out.add_layer("core.query_build_ns", c.query_build_ns, "ns");
  out.add_layer("core.on_query_ns", c.on_query_ns, "ns");
  out.add_layer("core.on_response_ns", c.on_response_ns, "ns");
  out.add_layer("core.finish_round_ns", c.finish_round_ns, "ns");
  out.add_layer("transport.codec.encode_ns", c.encode_ns, "ns");
  out.add_layer("transport.codec.decode_ns", c.decode_ns, "ns");
  out.add_layer("transport.codec.bytes_per_msg", c.bytes_per_msg, "B");
  out.add_layer("sim.schedule_fire_ns", c.schedule_fire_ns, "ns");
  out.add_layer("net.send_ns", c.net_send_ns, "ns");
  out.add_layer("transport.udp.send_ns", c.udp_send_ns, "ns");
  out.add_layer("obs.record_ns", c.record_ns, "ns");
  out.add_layer("obs.counter_add_ns", c.counter_add_ns, "ns");
  out.add_layer("obs.histogram_record_ns", c.histogram_record_ns, "ns");
}

}  // namespace perfbench
