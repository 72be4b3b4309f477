// The live workload: 8 mmrfd-node processes over loopback UDP, two SIGKILLs
// per cluster, clusters back to back until the measuring time is over and
// at least kMinSamples detection samples exist.
#include <algorithm>
#include <cstdlib>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "layers.h"
#include "live/supervisor.h"
#include "metrics/analysis.h"
#include "obs/trace_assembler.h"
#include "runtime/crash_plan.h"
#include "sim.h"
#include "sim/simulation.h"

namespace perfbench {
namespace {

using namespace mmrfd;

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kF = 2;
constexpr std::size_t kKills = 2;
// Kills land in [25%, 50%] of each cluster, leaving more than one resend
// interval before the horizon for the last detection.
constexpr double kClusterS = 1.6;
constexpr std::size_t kMinSamples = 150;
constexpr std::size_t kQuickSamples = 24;
constexpr std::size_t kMaxClusters = 40;
const Duration kPacing = from_millis(100);

struct ClusterRun {
  bool traced{false};
  double setup_s{0};  ///< launch until every node's UDP port is bound
  double wall_s{0};   ///< Supervisor::run, launch to aggregated result
  double cpu_s{0};    ///< user + system CPU of the node processes
  live::LiveRunResult res;
  std::vector<std::uint32_t> victims;
  double analysis_s{0};
  std::size_t log_entries{0};
  std::optional<double> weak_accuracy_at_s;
  std::size_t obligations{0};
  std::size_t undetected{0};
  std::uint64_t ring_records{0};
  std::uint64_t skips{0};
  std::uint64_t query_tx{0};
};

// Local ports of every UDP socket on the host, from /proc/net/udp.
std::set<unsigned> bound_udp_ports() {
  std::set<unsigned> ports;
  std::ifstream in("/proc/net/udp");
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string slot, local;
    ls >> slot >> local;
    const auto colon = local.find(':');
    if (colon == std::string::npos) continue;
    ports.insert(static_cast<unsigned>(
        std::strtoul(local.c_str() + colon + 1, nullptr, 16)));
  }
  return ports;
}

// Rebuilds the run's merged transition stream from the node reports and
// analyses it, as the supervisor does, to reach accuracy_stabilization().
void analyse(ClusterRun& c, Duration horizon) {
  const auto t0 = Clock::now();
  sim::Simulation clock_source;
  metrics::EventLog log(clock_source);
  std::vector<metrics::SuspicionEvent> events;
  for (const live::LiveNodeOutcome& node : c.res.nodes) {
    for (const live::NodeReport& r : node.reports) {
      for (const live::ReportEvent& ev : r.events) {
        if (ev.kind > 2 || ev.subject >= kN) continue;
        events.push_back(metrics::SuspicionEvent{
            Duration{static_cast<std::int64_t>(ev.when_ns)}, node.id,
            ProcessId{ev.subject},
            static_cast<metrics::SuspicionEventKind>(ev.kind), ev.tag});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.when < b.when; });
  for (const auto& ev : events) log.append(ev);
  for (const live::LiveCrash& k : c.res.crashes) log.record_crash_at(k.victim, k.at);
  const metrics::Analysis analysis(log, kN, horizon);
  if (const auto at = analysis.accuracy_stabilization()) {
    c.weak_accuracy_at_s = to_seconds(*at);
  }
  c.analysis_s = seconds_since(t0);
  c.log_entries = log.entries();
}

// Counts give-up skips and per-peer query sends in the harvested rings.
void count_rings(ClusterRun& c, const std::string& dir) {
  const auto manifest =
      obs::load_manifest(dir + "/" + std::string(obs::kTraceManifestName));
  if (!manifest) return;
  for (const auto& entry : manifest->traces) {
    const auto records = obs::load_trace_records(dir + "/" + entry.file);
    if (!records) continue;
    c.ring_records += records->size();
    for (const obs::TraceRecord& r : *records) {
      if (r.kind == obs::TraceKind::kGiveUpSkip) ++c.skips;
      if (r.kind == obs::TraceKind::kQueryTxSeq) ++c.query_tx;
    }
  }
}

// With `spans`, the cluster is recorded as a span with spawn (launch until
// every port is bound), run and analysis children.
ClusterRun run_cluster(const Options& opt, std::size_t k, SpanLog* spans,
                       std::uint64_t parent) {
  const bool traced = spans != nullptr && k % 2 == 1;
  ClusterRun c;
  c.traced = traced;
  const Duration horizon = from_seconds(kClusterS);
  const auto plan = runtime::CrashPlan::uniform(
      kKills, kN, from_seconds(kClusterS * 0.25), from_seconds(kClusterS * 0.5),
      mix_seed(opt.seed, 0x11 + k));
  std::vector<live::CrashEvent> schedule;
  for (const auto& e : plan.entries) {
    schedule.push_back(live::CrashEvent{e.victim, e.when, std::nullopt});
    c.victims.push_back(e.victim.value);
  }

  live::SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = kF;
  // A fresh 16-port block per cluster, below the ephemeral range.
  cfg.base_port = static_cast<std::uint16_t>(
      20000 + 16 * ((mix_seed(opt.seed, 0x90) + k) % 600));
  cfg.pacing = kPacing;
  cfg.delta = true;
  cfg.node_binary = opt.node_bin;
  cfg.report_dir = opt.work_dir + "/live-seed" + std::to_string(opt.seed) +
                   "-c" + std::to_string(k);
  cfg.trace = traced;
  std::error_code ec;
  std::filesystem::remove_all(cfg.report_dir, ec);

  std::atomic<bool> stop{false};
  std::atomic<double> bound_after{-1.0};
  const std::uint64_t span =
      spans ? spans->open(traced ? "live.cluster.traced" : "live.cluster", parent) : 0;
  const auto launch = Clock::now();
  std::thread poller([&] {
    while (!stop.load()) {
      const std::set<unsigned> ports = bound_udp_ports();
      bool all = true;
      for (unsigned p = cfg.base_port; p < cfg.base_port + kN; ++p) {
        all = all && ports.count(p) > 0;
      }
      if (all) {
        bound_after = seconds_since(launch);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const double cpu0 = children_cpu_s();
  try {
    live::Supervisor supervisor(cfg);
    c.res = supervisor.run(schedule, horizon);
  } catch (...) {
    stop = true;
    poller.join();
    throw;
  }
  const auto done = Clock::now();
  c.wall_s = seconds_since(launch);
  c.cpu_s = children_cpu_s() - cpu0;
  stop = true;
  poller.join();
  c.setup_s = bound_after.load();

  const std::uint64_t analysis_span = spans ? spans->open("metrics.analysis", span) : 0;
  analyse(c, horizon);
  if (spans != nullptr) {
    spans->close(analysis_span);
    const auto bound = launch + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(std::max(0.0, c.setup_s)));
    spans->add("live.spawn", span, launch, bound);
    spans->add("live.run", span, bound, done);
    spans->close(span, {{"rounds", static_cast<std::int64_t>(c.res.rounds)},
                        {"datagrams", static_cast<std::int64_t>(c.res.datagrams_sent)}});
  }
  c.obligations = kKills * (kN - kKills);
  c.undetected =
      c.obligations - std::min(c.obligations, c.res.detection_latencies.count());
  if (traced) count_rings(c, cfg.report_dir);
  std::filesystem::remove_all(cfg.report_dir, ec);
  return c;
}

void gate(const std::vector<ClusterRun>& runs, Outcome& out) {
  for (const ClusterRun& c : runs) {
    out.attempted += c.obligations;
    std::string why;
    if (!c.res.strong_completeness || c.undetected > 0) why += " strong completeness;";
    if (!c.weak_accuracy_at_s) why += " eventual weak accuracy;";
    if (c.res.unexpected_exits > 0) why += " unexpected exits;";
    if (c.res.missing_reports > 0) why += " missing reports;";
    if (c.res.truncated > 0) why += " truncated datagrams;";
    if (c.res.recv_errors > 0) why += " receive errors;";
    if (c.setup_s < 0) why += " ports never bound;";
    if (!why.empty()) {
      out.failed += c.obligations;
      out.fail("live cluster:" + why);
    }
  }
}

// Untraced (`spans` null) or alternating untraced and traced clusters.
std::vector<ClusterRun> run_clusters(const Options& opt, SpanLog* spans,
                                     std::uint64_t parent) {
  const bool alternate_traced = spans != nullptr;
  std::vector<ClusterRun> runs;
  std::size_t samples = 0;
  const auto begin = Clock::now();
  // Untraced runs need the detection samples; traced runs alternate
  // untraced and traced clusters and need only a few of each.
  const auto more = [&] {
    if (alternate_traced) {
      return seconds_since(begin) < opt.seconds || runs.size() < (opt.quick ? 2u : 4u);
    }
    return seconds_since(begin) < opt.seconds ||
           samples < (opt.quick ? kQuickSamples : kMinSamples);
  };
  while (more() && runs.size() < kMaxClusters) {
    runs.push_back(run_cluster(opt, runs.size(), spans, parent));
    if (!runs.back().traced) samples += runs.back().res.detection_latencies.count();
  }
  return runs;
}

template <typename F>
std::vector<double> collect(const std::vector<const ClusterRun*>& runs, F f) {
  std::vector<double> v;
  for (const ClusterRun* c : runs) v.push_back(f(*c));
  return v;
}

struct Totals {
  double horizon_s{0}, cpu_s{0};
  std::uint64_t rounds{0}, queries{0}, full{0}, wire_bytes{0}, datagrams{0};
  std::uint64_t responses_sent{0}, queries_received{0}, responses_received{0};
  std::uint64_t truncated{0}, recv_errors{0}, false_suspicions{0};
  std::vector<double> latencies_s;
  obs::RegistrySnapshot metrics;
};

Totals totals(const std::vector<const ClusterRun*>& runs) {
  Totals t;
  for (const ClusterRun* c : runs) {
    const live::LiveRunResult& r = c->res;
    t.horizon_s += kClusterS;
    t.cpu_s += c->cpu_s;
    t.rounds += r.rounds;
    t.queries += r.queries_sent();
    t.full += r.full_queries_sent;
    t.wire_bytes += r.wire_bytes_sent;
    t.datagrams += r.datagrams_sent;
    t.responses_sent += r.metrics.counter_value("rt.responses_sent");
    t.queries_received += r.metrics.counter_value("rt.queries_received");
    t.responses_received += r.metrics.counter_value("rt.responses_received");
    t.truncated += r.truncated;
    t.recv_errors += r.recv_errors;
    t.false_suspicions += r.false_suspicions;
    for (double s : r.detection_latencies.samples()) t.latencies_s.push_back(s);
    t.metrics.merge(r.metrics);
  }
  return t;
}

double rtt_percentile(const Totals& t, double q) {
  const obs::HistogramSnapshot* h = t.metrics.find_histogram("rt.round_rtt_ns");
  return h != nullptr ? h->percentile(q) / 1e6 : 0.0;
}

Outcome untraced(const Options& opt) {
  Outcome out;
  const std::vector<ClusterRun> runs = run_clusters(opt, nullptr, 0);
  gate(runs, out);
  std::vector<const ClusterRun*> all;
  for (const ClusterRun& c : runs) all.push_back(&c);
  const Totals t = totals(all);
  const std::size_t det = t.latencies_s.size();
  out.add_e2e("setup_s", median(collect(all, [](const ClusterRun& c) { return c.setup_s; })),
              "s", runs.size());
  out.add_e2e("sim_seconds_per_s",
              median(collect(all, [](const ClusterRun& c) { return kClusterS / c.wall_s; })),
              "s/s", runs.size());
  out.add_e2e("detection_p50_ms", percentile(t.latencies_s, 50) * 1e3, "ms", det);
  out.add_e2e("detection_p90_ms", percentile(t.latencies_s, 90) * 1e3, "ms", det);
  const double pairs = (kN - kKills) * (kN - kKills - 1.0);
  out.add_e2e("wire_bytes_per_query",
              ratio(static_cast<double>(t.wire_bytes), static_cast<double>(t.queries)),
              "B", t.queries);
  out.add_e2e("node_cpu_us_per_round",
              median(collect(all, [](const ClusterRun& c) {
                return ratio(c.cpu_s * 1e6, static_cast<double>(c.res.rounds));
              })),
              "us", runs.size());
  out.add_e2e("peak_rss_mib", children_peak_rss_mib(), "MiB", runs.size() * kN);
  out.notes.push_back(std::to_string(runs.size()) + " clusters of " +
                      std::to_string(kN) + " processes, " + fmt("%.1f", kClusterS) +
                      " s each, " + std::to_string(kKills) + " SIGKILLs per cluster");
  out.add_e2e("mistake_rate_per_pair_h",
              ratio(static_cast<double>(t.false_suspicions), pairs * t.horizon_s / 3600),
              "1/h", t.false_suspicions, false);
  out.add_failed_ratio();
  return out;
}

Outcome traced(const Options& opt) {
  Outcome out;
  SpanLog spans(mix_seed(opt.seed, 0x11fe));
  const std::uint64_t root = spans.open("perfbench.run");

  const std::uint64_t clusters_span = spans.open("live.clusters", root);
  const std::vector<ClusterRun> runs = run_clusters(opt, &spans, clusters_span);
  spans.close(clusters_span);
  gate(runs, out);
  std::vector<const ClusterRun*> plain, traced_runs, all;
  for (const ClusterRun& c : runs) {
    (c.traced ? traced_runs : plain).push_back(&c);
    all.push_back(&c);
  }
  const Totals t = totals(all);

  // The simulated twin gives the runtime, sim and net rows.
  const SimSpec twin = live_twin_spec(kN, kF, kKills, kClusterS, kPacing);
  const SimInputs twin_in = make_sim_inputs(twin, opt.seed);
  const std::uint64_t twin_span = spans.open("live.sim_twin", root);
  std::vector<SimRun> twin_runs;
  for (int i = 0; i < 5; ++i) twin_runs.push_back(run_sim_once(twin, twin_in));
  const SimRun twin_traced = run_sim_once(twin, twin_in, &spans, twin_span);
  spans.close(twin_span);
  std::vector<const SimRun*> twin_all{&twin_traced};
  for (const SimRun& r : twin_runs) twin_all.push_back(&r);
  gate_sim_runs(twin_all, out);
  const SimRun& tw = twin_runs.front();

  LayerShape shape;
  shape.n = kN;
  shape.f = kF;
  shape.dead = runs.front().victims;
  shape.heap_depth = static_cast<std::size_t>(median(twin_traced.heap_depths));
  shape.net_config = twin_in.config;
  shape.net_at = from_seconds(kClusterS / 2);
  shape.seed = opt.seed;
  shape.udp_port = static_cast<std::uint16_t>(30000 + 2 * (mix_seed(opt.seed, 0x0da) % 4000));
  const std::uint64_t layer_span = spans.open("layer.pass", root);
  const LayerCosts costs = measure_layers(shape, spans, layer_span);
  spans.close(layer_span);

  std::vector<double> twin_build, twin_start, twin_run, twin_analysis;
  for (const SimRun& r : twin_runs) {
    twin_build.push_back(r.build_s);
    twin_start.push_back(r.start_s);
    twin_run.push_back(r.run_s);
    twin_analysis.push_back(r.analysis_s);
  }
  const double tw_ev = static_cast<double>(tw.events);
  const double tw_run = median(twin_run);
  const double rounds = static_cast<double>(t.rounds);
  out.add_layer("runtime.build_s", median(twin_build), "s", twin_runs.size());
  out.add_layer("runtime.start_s", median(twin_start), "s", twin_runs.size());
  out.add_layer("runtime.round_rtt_p50_ms", rtt_percentile(t, 0.50), "ms", t.rounds);
  out.add_layer("sim.events_per_s", ratio(tw_ev, tw_run), "1/s", twin_runs.size());
  out.add_layer("sim.ns_per_event", ratio(tw_run * 1e9, tw_ev), "ns", twin_runs.size());
  out.add_layer("sim.events_per_round", ratio(tw_ev, static_cast<double>(tw.rounds)), "count");
  out.add_layer("sim.heap_depth_p50", median(twin_traced.heap_depths), "count");
  out.add_layer("sim.sharded.windows", 0, "count");
  out.add_layer("sim.sharded.events_per_window", 0, "count");
  out.add_layer("sim.sharded.cross_shard_share", 0, "ratio");
  const double util = ratio(tw.run_cpu_s, tw.run_s);
  out.add_layer("sim.sharded.utilization", util, "ratio");
  out.add_layer("sim.sharded.utilization_min", util, "ratio");
  out.add_layer("sim.sharded.utilization_max", util, "ratio");
  out.add_layer("sim.sharded.speedup", 0, "ratio");
  out.add_layer("net.messages_per_round",
                ratio(static_cast<double>(tw.messages), static_cast<double>(tw.rounds)), "count");
  out.add_layer("net.dropped_crash_share",
                ratio(static_cast<double>(tw.dropped_crash), static_cast<double>(tw.messages)),
                "ratio");
  // Live reports count bytes, not entries: entries per query come from the
  // layer pass's round loop on this workload's n, f and crash set.
  out.add_layer("core.entries_per_query", costs.loop_entries_per_query, "count");
  const std::vector<double> full_shares = collect(all, [](const ClusterRun& c) {
    return ratio(static_cast<double>(c.res.full_queries_sent),
                 static_cast<double>(c.res.queries_sent()));
  });
  out.add_layer("core.full_query_share",
                ratio(static_cast<double>(t.full), static_cast<double>(t.queries)), "ratio",
                t.queries);
  out.add_layer("core.full_query_share_min",
                *std::min_element(full_shares.begin(), full_shares.end()), "ratio",
                full_shares.size());
  out.add_layer("core.full_query_share_max",
                *std::max_element(full_shares.begin(), full_shares.end()), "ratio",
                full_shares.size());
  std::uint64_t skips = 0, query_tx = 0, ring_records = 0, traced_rounds = 0;
  for (const ClusterRun* c : traced_runs) {
    skips += c->skips;
    query_tx += c->query_tx;
    ring_records += c->ring_records;
    traced_rounds += c->res.rounds;
  }
  out.add_layer("core.skip_share",
                ratio(static_cast<double>(skips), static_cast<double>(skips + query_tx)),
                "ratio", traced_runs.size());
  out.add_layer("metrics.analysis_s",
                median(collect(all, [](const ClusterRun& c) { return c.analysis_s; })), "s",
                all.size());
  out.add_layer("metrics.log_entries",
                median(collect(all, [](const ClusterRun& c) {
                  return static_cast<double>(c.log_entries);
                })),
                "count", all.size());
  out.add_layer("transport.udp.datagrams_per_round",
                ratio(static_cast<double>(t.datagrams), rounds), "count");
  out.add_layer("transport.udp.bytes_per_datagram",
                ratio(static_cast<double>(t.wire_bytes), static_cast<double>(t.datagrams)),
                "B");
  out.add_layer("transport.udp.truncated", static_cast<double>(t.truncated), "count");
  out.add_layer("transport.udp.recv_errors", static_cast<double>(t.recv_errors), "count");
  out.add_layer("transport.realtime.resend_waves_per_round",
                ratio(static_cast<double>(t.metrics.counter_value("rt.resend_waves")),
                      static_cast<double>(t.metrics.counter_value("rt.rounds"))),
                "count");
  out.add_layer("obs.records_per_round",
                ratio(static_cast<double>(ring_records), static_cast<double>(traced_rounds)),
                "count");
  const auto cpu_per_round = [](const ClusterRun& c) {
    return ratio(c.cpu_s, static_cast<double>(c.res.rounds));
  };
  out.add_layer("obs.tracing_overhead",
                ratio(median(collect(traced_runs, cpu_per_round)),
                      median(collect(plain, cpu_per_round))) -
                    1.0,
                "ratio", runs.size());
  add_layer_cost_metrics(costs, out);

  // Ledger against the node processes' CPU: every send pays query build or
  // on_query, an encode and a sendto; every receive a decode (plus
  // on_response for responses); each message bumps about two counters and
  // each round closes once and observes one histogram sample.
  const double q = static_cast<double>(t.queries);
  const double rs = static_cast<double>(t.responses_sent);
  const double qr = static_cast<double>(t.queries_received);
  const double rr = static_cast<double>(t.responses_received);
  struct Row {
    const char* layer;
    double seconds;
  };
  const Row rows[] = {
      {"core", (q * costs.query_build_ns + rs * costs.on_query_ns +
                rr * costs.on_response_ns + rounds * costs.finish_round_ns) * 1e-9},
      {"transport.codec", ((q + rs) * costs.encode_ns + (qr + rr) * costs.decode_ns) * 1e-9},
      {"transport.udp", static_cast<double>(t.datagrams) * costs.udp_send_ns * 1e-9},
      {"obs", (2 * (q + rs + qr + rr) * costs.counter_add_ns +
               rounds * costs.histogram_record_ns) * 1e-9},
  };
  double attributed = 0;
  for (const Row& row : rows) {
    attributed += row.seconds;
    out.notes.push_back(std::string("ledger ") + row.layer + " " + fmt("%.6f", row.seconds) +
                         " s (" + fmt("%.1f", 100 * ratio(row.seconds, t.cpu_s)) +
                         "% of node CPU)");
  }
  out.notes.push_back("ledger node CPU " + fmt("%.6f", t.cpu_s) + " s; unattributed " +
                       fmt("%.4f", 1.0 - ratio(attributed, t.cpu_s)));
  out.add_layer("ledger.unattributed_share", 1.0 - ratio(attributed, t.cpu_s), "ratio");

  // Round-trip critical path: the issuer's fan-out, then one responder's
  // decode, merge, encode and send, then the issuer's decode and count.
  const double fan_out = (kN - 1) * (costs.query_build_ns + costs.encode_ns + costs.udp_send_ns);
  const double path_ms = (fan_out + costs.decode_ns + costs.on_query_ns + costs.encode_ns +
                          costs.udp_send_ns + costs.decode_ns + costs.on_response_ns) /
                         1e6;
  const double rtt_p50 = rtt_percentile(t, 0.50);
  double pacing = 0, resend = 0, wire = 0;
  std::size_t observers = 0;
  for (const ClusterRun* c : traced_runs) {
    if (!c->res.trace) continue;
    for (const obs::CrashTimeline& ct : c->res.trace->crashes) {
      for (const obs::ObserverBreakdown& ob : ct.observers) {
        pacing += static_cast<double>(ob.pacing_ns);
        resend += static_cast<double>(ob.resend_wait_ns);
        wire += static_cast<double>(ob.wire_ns);
        ++observers;
      }
    }
  }
  const double k = std::max<double>(1.0, static_cast<double>(observers));
  const std::vector<double> spawn =
      collect(all, [](const ClusterRun& c) { return c.setup_s; });
  struct Extra {
    const char* name;
    double value;
    const char* unit;
    std::size_t samples;
  };
  const Extra extras[] = {
      {"transport.realtime.round_rtt_p50_ms", rtt_p50, "ms", t.rounds},
      {"transport.realtime.round_rtt_p99_ms", rtt_percentile(t, 0.99), "ms", t.rounds},
      {"transport.realtime.pacing_ms", pacing / k / 1e6, "ms", observers},
      {"transport.realtime.resend_wait_ms", resend / k / 1e6, "ms", observers},
      {"transport.realtime.wire_ms", wire / k / 1e6, "ms", observers},
      {"live.spawn_s", median(spawn), "s", spawn.size()},
      {"ledger.rtt_unattributed_ms", rtt_p50 - path_ms, "ms", t.rounds},
  };
  for (const Extra& e : extras) {
    out.add_layer(e.name, e.value, e.unit, e.samples, false);
  }
  out.notes.push_back("breakdown over " + std::to_string(observers) +
                       " traced (crash, observer) pairs; round critical path " +
                       fmt("%.4f", path_ms) + " ms");
  out.notes.push_back("core.full_query_share per cluster: min " +
                      fmt("%.4f", *std::min_element(full_shares.begin(), full_shares.end())) +
                      ", max " +
                      fmt("%.4f", *std::max_element(full_shares.begin(), full_shares.end())));

  spans.close(root);
  const std::string path =
      opt.work_dir + "/live_loopback-seed" + std::to_string(opt.seed) + "-spans.json";
  if (spans.write_json(path)) out.notes.push_back("spans written to " + path);
  return out;
}

}  // namespace

Outcome run_live_workload(const Options& opt) {
  if (opt.node_bin.empty() || !std::filesystem::exists(opt.node_bin)) {
    throw std::runtime_error("mmrfd-node binary not found: " + opt.node_bin);
  }
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace perfbench
