// The two simulated workloads. An untraced run repeats one seeded input
// set for the measuring time and reports medians; a traced run pairs
// untraced and traced repeats, then runs the layer pass and the ledger.
// sim_steady's traced run also runs its inputs on the sharded engine, so
// the sim.sharded rows and the sharded-vs-serial speedup come from there.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "layers.h"
#include "runtime/sharded_cluster.h"
#include "sim.h"

namespace perfbench {
namespace {

using namespace mmrfd;

// Standalone build + start() repetitions per untraced run: a few discarded
// warm-ups, a block up front, and a few before every repeat, so the median
// spans the whole measuring time rather than one burst.
constexpr int kSetupWarmup = 3;
constexpr int kSetupFirst = 20;
constexpr int kSetupPerRepeat = 4;
constexpr std::size_t kMinRepeats = 3;
constexpr std::size_t kMaxRepeats = 100;

SimSpec sim_spec(const std::string& workload, bool quick) {
  SimSpec s;
  s.name = workload;
  if (workload == "sim_steady") {
    s.horizon_s = 30;
    s.compare_shards = 4;
  } else if (workload == "sim_churn") {
    s.horizon_s = 20;
    s.churn = true;
  } else {
    throw std::invalid_argument("unknown sim workload " + workload);
  }
  if (quick) s.horizon_s = 10;
  return s;
}

double time_setup(const SimInputs& in) {
  const auto t0 = Clock::now();
  runtime::MmrCluster cluster(in.config);
  cluster.start(in.plan);
  return seconds_since(t0);
}

template <typename F>
std::vector<double> collect(const std::vector<SimRun>& runs, F f) {
  std::vector<double> v;
  for (const SimRun& r : runs) v.push_back(f(r));
  return v;
}

Outcome untraced(const SimSpec& spec, const SimInputs& in, const Options& opt) {
  Outcome out;
  const auto begin = Clock::now();
  std::vector<double> setups;
  const std::size_t min_repeats = opt.quick ? 2 : kMinRepeats;
  for (int k = 0; k < kSetupWarmup; ++k) time_setup(in);
  for (int k = 0; k < kSetupFirst; ++k) setups.push_back(time_setup(in));
  std::vector<SimRun> runs;
  while ((seconds_since(begin) < opt.seconds || runs.size() < min_repeats) &&
         runs.size() < kMaxRepeats) {
    for (int k = 0; k < kSetupPerRepeat; ++k) setups.push_back(time_setup(in));
    runs.push_back(run_sim_once(spec, in));
  }
  std::vector<const SimRun*> all;
  for (const SimRun& r : runs) all.push_back(&r);
  gate_sim_runs(all, out);

  const SimRun& r = runs.front();
  const double h = spec.horizon_s;
  const double c = static_cast<double>(r.correct);
  out.add_e2e("setup_s", median(setups), "s", setups.size());
  out.add_e2e("sim_seconds_per_s",
              median(collect(runs, [&](const SimRun& x) {
                return h / (x.run_s + x.analysis_s);
              })),
              "s/s", runs.size());
  const std::size_t det = r.latencies_s.size();
  out.add_e2e("detection_p50_ms", percentile(r.latencies_s, 50) * 1e3, "ms", det);
  out.add_e2e("detection_p90_ms", percentile(r.latencies_s, 90) * 1e3, "ms", det);
  out.add_e2e("wire_bytes_per_query",
              ratio(static_cast<double>(r.bytes), static_cast<double>(r.queries)),
              "B", r.queries);
  out.add_e2e("node_cpu_us_per_round",
              median(collect(runs, [](const SimRun& x) {
                return ratio(x.total_cpu_s * 1e6, static_cast<double>(x.rounds));
              })),
              "us", runs.size());
  out.add_e2e("peak_rss_mib", self_peak_rss_mib(), "MiB", 1);

  out.notes.push_back("repeats " + std::to_string(runs.size()) +
                      " of one input set (n=" + std::to_string(spec.n) +
                      ", horizon " + fmt("%.0f", h) + " s, " +
                      std::to_string(in.plan.entries.size()) + " crashes)");
  out.add_e2e("detection_p99_ms", percentile(r.latencies_s, 99) * 1e3, "ms", det,
              false);
  out.add_e2e("mistake_rate_per_pair_h",
              ratio(static_cast<double>(r.false_suspicions), c * (c - 1) * h / 3600),
              "1/h", r.false_suspicions, false);
  out.add_failed_ratio();
  if (r.weak_accuracy_at_s) {
    out.notes.push_back("eventual weak accuracy reached at " +
                        fmt("%.3f", *r.weak_accuracy_at_s) + " s");
  }
  return out;
}

// Reconciles count x per-call time of each layer against the run span.
// Nested costs are counted once: a delivery's scheduling is inside
// Network::send (and so is the size_fn's codec call), so the scheduler row
// carries only the firing of deliveries plus the timers' own scheduling.
double ledger(const SimRun& r, double run_s,
              const LayerCosts& c, Outcome& out) {
  const double span = run_s;
  const auto ev = static_cast<double>(r.events);
  const auto msgs = static_cast<double>(r.messages);
  const auto rounds = static_cast<double>(r.rounds);
  const auto on_query = static_cast<double>(r.responses);
  const double on_response = static_cast<double>(r.delivered) - on_query;
  struct Row {
    const char* layer;
    double seconds;
  };
  const Row rows[] = {
      {"sim", (ev * c.schedule_fire_ns - msgs * c.schedule_ns) * 1e-9},
      {"net", msgs * c.net_send_ns * 1e-9},
      {"core", (static_cast<double>(r.queries) * c.query_build_ns +
                on_query * c.on_query_ns + on_response * c.on_response_ns +
                rounds * c.finish_round_ns) *
                   1e-9},
      {"obs", rounds * (c.histogram_record_ns + c.counter_add_ns) * 1e-9},
  };
  double attributed = 0;
  for (const Row& row : rows) {
    attributed += row.seconds;
    out.notes.push_back(std::string("ledger ") + row.layer + " " +
                         fmt("%.6f", row.seconds) + " s (" +
                         fmt("%.1f", 100 * ratio(row.seconds, span)) +
                         "% of run span)");
  }
  const double unattributed = 1.0 - ratio(attributed, span);
  out.notes.push_back("ledger run span " + fmt("%.6f", span) +
                       " s; unattributed " + fmt("%.4f", unattributed));
  return unattributed;
}

// The sim.sharded rows. `sharded` holds one traced repeat and then untraced
// ones; without a sharded pass the window rows read 0 and utilization is
// the serial engine's CPU over wall time.
void add_sharded_rows(const SimSpec& spec, const std::vector<SimRun>& serial,
                      const std::vector<SimRun>& sharded, Outcome& out) {
  const auto run_s = [](const SimRun& x) { return x.run_s; };
  std::vector<double> util;
  double speedup = 0;
  const SimRun* w = nullptr;
  if (sharded.empty()) {
    util = collect(serial, [](const SimRun& x) { return ratio(x.run_cpu_s, x.run_s); });
  } else {
    const std::vector<SimRun> plain(sharded.begin() + 1, sharded.end());
    util = collect(plain, [&](const SimRun& x) {
      return ratio(x.run_cpu_s, x.run_s * spec.compare_shards);
    });
    speedup = ratio(median(collect(serial, run_s)), median(collect(plain, run_s)));
    w = &sharded.front();
  }
  const double windows = w ? static_cast<double>(w->windows) : 0;
  out.add_layer("sim.sharded.windows", windows, "count");
  out.add_layer("sim.sharded.events_per_window",
                w ? ratio(static_cast<double>(w->events), windows) : 0, "count");
  out.add_layer("sim.sharded.cross_shard_share",
                w ? ratio(static_cast<double>(w->cross_shard_posts),
                          static_cast<double>(w->messages))
                  : 0,
                "ratio");
  out.add_layer("sim.sharded.utilization", median(util), "ratio", util.size());
  out.add_layer("sim.sharded.utilization_min",
                *std::min_element(util.begin(), util.end()), "ratio", util.size());
  out.add_layer("sim.sharded.utilization_max",
                *std::max_element(util.begin(), util.end()), "ratio", util.size());
  out.add_layer("sim.sharded.speedup", speedup, "ratio",
                sharded.empty() ? 0 : sharded.size() - 1);
}

Outcome traced(const SimSpec& spec, const SimInputs& in, const Options& opt) {
  Outcome out;
  SpanLog spans(mix_seed(opt.seed, std::hash<std::string>{}(spec.name)));
  const std::uint64_t root = spans.open("perfbench.run");
  const auto begin = Clock::now();
  // Serial repeats take 60% of the measuring time, or 35% when the sharded
  // engine gets the next 25%; the layer pass runs after.
  const double serial_share = spec.compare_shards > 0 ? 0.35 : 0.6;
  std::vector<SimRun> plain;
  std::vector<SimRun> traced_runs;
  while ((seconds_since(begin) < opt.seconds * serial_share || plain.empty()) &&
         plain.size() < kMaxRepeats) {
    plain.push_back(run_sim_once(spec, in));
    const std::uint64_t id = spans.open("perfbench.traced_repeat", root);
    traced_runs.push_back(run_sim_once(spec, in, &spans, id));
    spans.close(id);
  }
  std::vector<const SimRun*> all;
  for (const SimRun& r : plain) all.push_back(&r);
  for (const SimRun& r : traced_runs) all.push_back(&r);
  gate_sim_runs(all, out);

  // The same inputs on the sharded engine: one traced repeat for the
  // window counts, then untraced repeats for utilization and speed.
  std::vector<SimRun> sharded;
  if (spec.compare_shards > 0) {
    SimSpec sh = spec;
    sh.shards = spec.compare_shards;
    const std::uint64_t id = spans.open("perfbench.sharded_repeat", root);
    sharded.push_back(run_sim_once(sh, in, &spans, id));
    spans.close(id);
    while ((seconds_since(begin) < opt.seconds * 0.6 || sharded.size() < 2) &&
           sharded.size() < kMaxRepeats) {
      sharded.push_back(run_sim_once(sh, in));
    }
    std::vector<const SimRun*> sharded_all;
    for (const SimRun& x : sharded) sharded_all.push_back(&x);
    gate_sim_runs(sharded_all, out);
  }

  const SimRun& r = plain.front();
  const SimRun& t = traced_runs.front();
  LayerShape shape;
  shape.n = spec.n;
  shape.f = spec.f;
  for (ProcessId v : in.plan.victims()) shape.dead.push_back(v.value);
  shape.slow = in.spike_set;
  shape.heap_depth = static_cast<std::size_t>(median(t.heap_depths));
  shape.net_config = in.config;
  shape.net_at = in.config.spike
                     ? (in.config.spike->start + in.config.spike->end) / 2
                     : from_seconds(spec.horizon_s / 2);
  shape.seed = opt.seed;
  shape.udp_port = static_cast<std::uint16_t>(30000 + 2 * (mix_seed(opt.seed, 0x0d9) % 4000));
  const std::uint64_t layer_span = spans.open("layer.pass", root);
  const LayerCosts costs = measure_layers(shape, spans, layer_span);
  spans.close(layer_span);

  const auto run_times = collect(plain, [](const SimRun& x) { return x.run_s; });
  const double run_s = median(run_times);
  const double ev = static_cast<double>(r.events);
  const double rounds = static_cast<double>(r.rounds);
  const double msgs = static_cast<double>(r.messages);
  const std::size_t reps = plain.size() + traced_runs.size();
  std::vector<SimRun> both = plain;
  both.insert(both.end(), traced_runs.begin(), traced_runs.end());

  out.add_layer("runtime.build_s",
                median(collect(both, [](const SimRun& x) { return x.build_s; })),
                "s", reps);
  out.add_layer("runtime.start_s",
                median(collect(both, [](const SimRun& x) { return x.start_s; })),
                "s", reps);
  out.add_layer("runtime.round_rtt_p50_ms", r.rtt_p50_ms, "ms", r.rounds);
  out.add_layer("sim.events_per_s", ratio(ev, run_s), "1/s", plain.size());
  out.add_layer("sim.ns_per_event", ratio(run_s * 1e9, ev), "ns", plain.size());
  out.add_layer("sim.events_per_round", ratio(ev, rounds), "count");
  out.add_layer("sim.heap_depth_p50", median(t.heap_depths), "count",
                t.heap_depths.size());
  add_sharded_rows(spec, plain, sharded, out);
  out.add_layer("net.messages_per_round", ratio(msgs, rounds), "count");
  out.add_layer("net.dropped_crash_share",
                ratio(static_cast<double>(r.dropped_crash), msgs), "ratio");
  const double full_share = ratio(static_cast<double>(r.full_queries),
                                  static_cast<double>(r.queries));
  out.add_layer("core.entries_per_query",
                ratio(static_cast<double>(r.query_entries),
                      static_cast<double>(r.queries)),
                "count", r.queries);
  out.add_layer("core.full_query_share", full_share, "ratio", r.queries);
  out.add_layer("core.full_query_share_min", full_share, "ratio", reps);
  out.add_layer("core.full_query_share_max", full_share, "ratio", reps);
  out.add_layer("core.skip_share",
                ratio(static_cast<double>(r.skipped),
                      static_cast<double>(r.queries + r.skipped)),
                "ratio");
  out.add_layer("metrics.analysis_s",
                median(collect(plain, [](const SimRun& x) { return x.analysis_s; })),
                "s", plain.size());
  out.add_layer("metrics.log_entries", static_cast<double>(r.log_entries), "count");
  out.add_layer("transport.udp.datagrams_per_round", 0, "count");
  out.add_layer("transport.udp.bytes_per_datagram", 0, "B");
  out.add_layer("transport.udp.truncated", 0, "count");
  out.add_layer("transport.udp.recv_errors", 0, "count");
  out.add_layer("transport.realtime.resend_waves_per_round", 0, "count");
  out.add_layer("obs.records_per_round",
                ratio(static_cast<double>(t.trace_records),
                      static_cast<double>(t.rounds)),
                "count");
  const double traced_s =
      median(collect(traced_runs, [](const SimRun& x) { return x.run_s; }));
  out.add_layer("obs.tracing_overhead", ratio(traced_s, run_s) - 1.0, "ratio",
                reps);
  add_layer_cost_metrics(costs, out);
  out.add_layer("ledger.unattributed_share", ledger(r, run_s, costs, out),
                "ratio");
  for (const char* name :
       {"transport.realtime.round_rtt_p50_ms", "transport.realtime.round_rtt_p99_ms",
        "transport.realtime.pacing_ms", "transport.realtime.resend_wait_ms",
        "transport.realtime.wire_ms", "live.spawn_s", "ledger.rtt_unattributed_ms"}) {
    out.notes.push_back(std::string("layer ") + name +
                         " n/a (no real-time detector on a simulated workload)");
  }

  spans.close(root);
  const std::string path = opt.work_dir + "/" + spec.name + "-seed" +
                           std::to_string(opt.seed) + "-spans.json";
  if (spans.write_json(path)) out.notes.push_back("spans written to " + path);
  return out;
}

}  // namespace

Outcome run_sim_workload(const Options& opt) {
  const SimSpec spec = sim_spec(opt.workload, opt.quick);
  const SimInputs in = make_sim_inputs(spec, opt.seed);
  return opt.trace ? traced(spec, in, opt) : untraced(spec, in, opt);
}

}  // namespace perfbench
