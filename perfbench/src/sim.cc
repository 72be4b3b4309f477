#include "sim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <variant>

#include "common/rng.h"
#include "metrics/analysis.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_cluster.h"
#include "transport/codec.h"

namespace perfbench {
namespace {

using namespace mmrfd;

// FNV-1a accumulator for output digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ull};
};

// Per-host flight-ring size on traced sim runs: enough to exercise the
// recorder on every message without holding the whole run in memory.
constexpr std::size_t kTraceRing = 2048;
// Simulated time per traced run_until slice.
constexpr double kSliceS = 1.0;

// Wire accounting through the network's size_fn: the codec's exact size
// of every message sent, and what the queries carried.
struct WireTally {
  std::uint64_t bytes{0};
  std::uint64_t queries{0};
  std::uint64_t full_queries{0};
  std::uint64_t query_entries{0};
  std::uint64_t responses{0};
};

void install_tally(runtime::MmrNetwork& net, const std::shared_ptr<WireTally>& t) {
  net.set_size_fn([t](const runtime::MmrMessage& m) {
    if (const auto* q = std::get_if<core::QueryMessage>(&m)) {
      const std::size_t size = transport::wire_size(*q);
      t->bytes += size;
      ++t->queries;
      t->query_entries += q->entries.size();
      if (!q->is_delta()) ++t->full_queries;
      return size;
    }
    const std::size_t size =
        transport::wire_size(std::get<core::ResponseMessage>(m));
    t->bytes += size;
    ++t->responses;
    return size;
  });
}

void add_tally(SimRun& r, const WireTally& t) {
  r.bytes += t.bytes;
  r.queries += t.queries;
  r.full_queries += t.full_queries;
  r.query_entries += t.query_entries;
  r.responses += t.responses;
}

void fill_rtt(SimRun& r, const obs::RegistrySnapshot& snap) {
  if (const obs::HistogramSnapshot* h = snap.find_histogram("sim.round_rtt_ns")) {
    r.rtt_p50_ms = h->percentile(0.50) / 1e6;
  }
}

template <typename Cluster>
void count_hosts(const Cluster& cluster, std::uint32_t n, SimRun& r) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const core::DetectorCore& d = cluster.host(ProcessId{i}).detector();
    r.rounds += d.rounds_completed();
    r.skipped += d.queries_skipped();
  }
}

// Eventual weak accuracy from per-pair rollups, with Analysis's definition:
// some correct subject has no wrongful suspicion open at the horizon; it
// stabilised at the last repair of any suspicion of it.
std::optional<double> rollup_weak_accuracy(
    const std::vector<metrics::PairRollup>& pairs,
    const std::vector<metrics::CrashRecord>& crashes, std::uint32_t n) {
  std::vector<bool> faulty(n, false);
  for (const auto& c : crashes) faulty.at(c.subject.value) = true;
  std::vector<bool> open(n, false);
  std::vector<double> last_clear(n, 0.0);
  for (const auto& p : pairs) {
    if (faulty[p.observer.value] || faulty[p.subject.value]) continue;
    if (p.open) open[p.subject.value] = true;
    last_clear[p.subject.value] =
        std::max(last_clear[p.subject.value], to_seconds(p.last_clear));
  }
  std::optional<double> best;
  for (std::uint32_t q = 0; q < n; ++q) {
    if (faulty[q] || open[q]) continue;
    if (!best || last_clear[q] < *best) best = last_clear[q];
  }
  return best;
}

SimRun run_serial(const SimSpec& spec, const SimInputs& in, SpanLog* spans,
                  std::uint64_t parent) {
  SimRun r;
  runtime::MmrClusterConfig cfg = in.config;
  obs::MetricsRegistry registry;
  cfg.registry = &registry;
  if (spans != nullptr) cfg.trace_capacity = kTraceRing;

  auto t0 = Clock::now();
  const std::uint64_t build_span = spans ? spans->open("runtime.build", parent) : 0;
  auto cluster = std::make_unique<runtime::MmrCluster>(cfg);
  auto tally = std::make_shared<WireTally>();
  install_tally(cluster->network(), tally);
  if (spans) spans->close(build_span);
  r.build_s = seconds_since(t0);

  t0 = Clock::now();
  const std::uint64_t start_span = spans ? spans->open("runtime.start", parent) : 0;
  cluster->start(in.plan);
  if (spans) spans->close(start_span);
  r.start_s = seconds_since(t0);

  const TimePoint horizon = from_seconds(spec.horizon_s);
  const double cpu0 = self_cpu_s();
  t0 = Clock::now();
  sim::Simulation& sim = cluster->simulation();
  if (spans == nullptr) {
    cluster->run_until(horizon);
  } else {
    obs::Counter& rounds = registry.counter("sim.rounds");
    for (TimePoint end = kTimeZero; end < horizon;) {
      end = std::min(end + from_seconds(kSliceS), horizon);
      const std::uint64_t ev0 = sim.events_fired();
      const std::uint64_t msg0 = cluster->network().stats().messages_sent;
      const std::uint64_t rounds0 = rounds.value();
      const std::uint64_t id = spans->open("sim.run_until", parent);
      cluster->run_until(end);
      const auto pending = static_cast<std::int64_t>(sim.events_pending());
      spans->close(
          id, {{"events", static_cast<std::int64_t>(sim.events_fired() - ev0)},
               {"messages", static_cast<std::int64_t>(
                                cluster->network().stats().messages_sent - msg0)},
               {"rounds", static_cast<std::int64_t>(rounds.value() - rounds0)},
               {"events_pending", pending}});
      r.heap_depths.push_back(static_cast<double>(pending));
    }
  }
  r.run_s = seconds_since(t0);
  r.run_cpu_s = self_cpu_s() - cpu0;

  t0 = Clock::now();
  const std::uint64_t analysis_span =
      spans ? spans->open("metrics.analysis", parent) : 0;
  const metrics::Analysis analysis(cluster->log(), spec.n, horizon);
  Digest digest;
  for (const metrics::Detection& d : analysis.detections()) {
    ++r.obligations;
    digest.add(d.observer.value);
    digest.add(d.subject.value);
    if (const auto latency = d.latency()) {
      r.latencies_s.push_back(to_seconds(*latency));
      digest.add(static_cast<std::uint64_t>(latency->count()));
    } else {
      ++r.undetected;
      digest.add(~0ull);
    }
  }
  r.complete = analysis.strong_completeness();
  r.false_suspicions = analysis.false_suspicions().size();
  if (const auto at = analysis.accuracy_stabilization()) {
    r.weak_accuracy_at_s = to_seconds(*at);
  }
  r.correct = analysis.correct().size();
  if (spans) spans->close(analysis_span);
  r.analysis_s = seconds_since(t0);
  r.total_cpu_s = self_cpu_s() - cpu0;

  r.events = sim.events_fired();
  const net::NetworkStats& stats = cluster->network().stats();
  r.messages = stats.messages_sent;
  r.delivered = stats.messages_delivered;
  r.dropped_crash = stats.messages_dropped_crash;
  digest.add(r.events);
  digest.add(r.messages);
  r.digest = digest.value();
  add_tally(r, *tally);
  count_hosts(*cluster, spec.n, r);
  r.log_entries = cluster->log().entries();
  fill_rtt(r, registry.snapshot());
  if (spans != nullptr) {
    for (std::uint32_t i = 0; i < spec.n; ++i) {
      r.trace_records += cluster->trace(ProcessId{i})->recorded();
    }
  }
  return r;
}

SimRun run_sharded(const SimSpec& spec, const SimInputs& in, SpanLog* spans,
                   std::uint64_t parent) {
  SimRun r;
  auto t0 = Clock::now();
  const std::uint64_t build_span = spans ? spans->open("runtime.build", parent) : 0;
  auto cluster = std::make_unique<runtime::ShardedMmrCluster>(in.config, spec.shards);
  // One tally per shard: each size_fn runs on its shard's worker thread.
  std::vector<std::shared_ptr<WireTally>> tallies;
  for (std::uint32_t s = 0; s < spec.shards; ++s) {
    tallies.push_back(std::make_shared<WireTally>());
    install_tally(cluster->network(s), tallies.back());
  }
  if (spans) spans->close(build_span);
  r.build_s = seconds_since(t0);

  t0 = Clock::now();
  const std::uint64_t start_span = spans ? spans->open("runtime.start", parent) : 0;
  cluster->start(in.plan);
  if (spans) spans->close(start_span);
  r.start_s = seconds_since(t0);

  const TimePoint horizon = from_seconds(spec.horizon_s);
  sim::ShardedEngine& engine = cluster->engine();
  const auto messages_sent = [&] { return cluster->stats().messages_sent; };
  const double cpu0 = self_cpu_s();
  t0 = Clock::now();
  if (spans == nullptr) {
    cluster->run_until(horizon);
  } else {
    for (TimePoint end = kTimeZero; end < horizon;) {
      end = std::min(end + from_seconds(kSliceS), horizon);
      const std::uint64_t ev0 = engine.events_fired();
      const std::uint64_t msg0 = messages_sent();
      const std::uint64_t win0 = engine.windows_run();
      const std::uint64_t id = spans->open("sim.run_until", parent);
      cluster->run_until(end);
      std::int64_t pending = 0;
      for (std::uint32_t s = 0; s < spec.shards; ++s) {
        const auto depth = engine.shard(s).events_pending();
        pending += static_cast<std::int64_t>(depth);
        r.heap_depths.push_back(static_cast<double>(depth));
      }
      spans->close(
          id, {{"events", static_cast<std::int64_t>(engine.events_fired() - ev0)},
               {"messages", static_cast<std::int64_t>(messages_sent() - msg0)},
               {"windows", static_cast<std::int64_t>(engine.windows_run() - win0)},
               {"events_pending", pending}});
    }
  }
  r.run_s = seconds_since(t0);
  r.run_cpu_s = self_cpu_s() - cpu0;

  t0 = Clock::now();
  const std::uint64_t analysis_span =
      spans ? spans->open("metrics.analysis", parent) : 0;
  const auto pairs = cluster->rollup();
  const auto crashes = cluster->crashes();
  const metrics::RollupSummary sum =
      metrics::summarize_rollup(pairs, crashes, spec.n);
  r.weak_accuracy_at_s = rollup_weak_accuracy(pairs, crashes, spec.n);
  if (spans) spans->close(analysis_span);
  r.analysis_s = seconds_since(t0);
  r.total_cpu_s = self_cpu_s() - cpu0;

  r.correct = spec.n - crashes.size();
  r.obligations = crashes.size() * r.correct;
  r.latencies_s = sum.detection_latencies.samples();
  r.undetected = r.obligations - std::min(r.obligations, r.latencies_s.size());
  r.complete = sum.strong_completeness;
  r.false_suspicions = sum.false_suspicions;

  Digest digest;
  std::vector<double> sorted = r.latencies_s;
  std::sort(sorted.begin(), sorted.end());
  for (double s : sorted) digest.add(static_cast<std::uint64_t>(std::llround(s * 1e9)));
  r.events = engine.events_fired();
  const net::NetworkStats stats = cluster->stats();
  r.messages = stats.messages_sent;
  r.delivered = stats.messages_delivered;
  r.dropped_crash = stats.messages_dropped_crash;
  digest.add(r.events);
  digest.add(r.messages);
  r.digest = digest.value();
  for (const auto& t : tallies) add_tally(r, *t);
  count_hosts(*cluster, spec.n, r);
  for (std::uint32_t s = 0; s < spec.shards; ++s) {
    r.log_entries += cluster->log(s).entries();
  }
  fill_rtt(r, cluster->telemetry());
  r.windows = engine.windows_run();
  r.cross_shard_posts = engine.cross_shard_posts();
  return r;
}

}  // namespace

SimInputs make_sim_inputs(const SimSpec& spec, std::uint64_t seed) {
  SimInputs in;
  runtime::MmrClusterConfig& cfg = in.config;
  cfg.n = spec.n;
  cfg.f = spec.f;
  cfg.seed = mix_seed(seed, 0x51);
  cfg.pacing = spec.pacing;
  cfg.pacing_jitter = 0.1;
  cfg.mean_delay = from_millis(1);
  cfg.delay_preset = net::DelayPreset::kExponential;
  cfg.delta_queries = true;
  const double h = spec.horizon_s;
  if (spec.churn) {
    // x1000 on 1 ms puts the affected nodes' mean delay at the pacing
    // period, so their responses straddle the round.
    Xoshiro256 rng(mix_seed(seed, 0x5b));
    std::vector<std::uint32_t> ids(spec.n);
    for (std::uint32_t i = 0; i < spec.n; ++i) ids[i] = i;
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(spec.n / 10);
    std::sort(ids.begin(), ids.end());
    runtime::SpikeSpec spike;
    spike.start = from_seconds(h * 0.1);
    spike.end = from_seconds(h * 0.9);
    spike.factor = 1000.0;
    for (std::uint32_t id : ids) spike.affected.push_back(ProcessId{id});
    cfg.spike = spike;
    cfg.faults.reorder_rate = 0.05;
    cfg.faults.reorder_window = from_millis(200);
    in.spike_set = ids;
  }
  in.plan = runtime::CrashPlan::uniform(spec.crashes, spec.n,
                                        from_seconds(h * 0.2),
                                        from_seconds(h * 0.6),
                                        mix_seed(seed, 0xc4));
  return in;
}

void gate_sim_runs(const std::vector<const SimRun*>& runs, Outcome& out) {
  const SimRun& ref = *runs.front();
  for (const SimRun* r : runs) {
    out.attempted += r->obligations;
    std::string why;
    if (!r->complete || r->undetected > 0) why += " strong completeness;";
    if (!r->weak_accuracy_at_s) why += " eventual weak accuracy;";
    if (r->events != ref.events || r->messages != ref.messages ||
        r->digest != ref.digest) {
      why += " sim-time outputs differ between repeats;";
    }
    if (!why.empty()) {
      out.failed += r->obligations;
      out.fail("sim repeat:" + why);
    }
  }
}

SimRun run_sim_once(const SimSpec& spec, const SimInputs& inputs,
                    SpanLog* spans, std::uint64_t parent) {
  return spec.shards > 0 ? run_sharded(spec, inputs, spans, parent)
                         : run_serial(spec, inputs, spans, parent);
}

SimSpec live_twin_spec(std::uint32_t n, std::uint32_t f, std::size_t kills,
                       double horizon_s, Duration pacing) {
  SimSpec s;
  s.name = "live_twin";
  s.n = n;
  s.f = f;
  s.crashes = kills;
  s.horizon_s = horizon_s;
  s.pacing = pacing;
  return s;
}

}  // namespace perfbench
