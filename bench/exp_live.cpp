// LIVE — real-process loopback deployment sweep.
//
// Where exp_scale stresses the simulator, this driver stresses the kernel:
// every configuration fork/execs n mmrfd-node processes (one detector, one
// UDP socket, three threads each), injects SIGKILL crash-stops from a
// runtime::CrashPlan-derived schedule at real wall-clock offsets, and
// aggregates the nodes' binary reports through live::Supervisor into the
// same detection/accuracy/cost metrics the simulated experiments report.
// This is the first place the delta encoding, the shared-full fallback and
// the need_full resync run over a real network stack, with real scheduling
// jitter the simulator cannot represent.
//
// Each run appends a machine-readable snapshot to BENCH_live.json alongside
// exp_scale's BENCH_scale.json, so the live trajectory accrues per PR too.
//
//   ./build/bench/exp_live --sizes 8,32,64 --run 10
//   ./build/bench/exp_live --sizes 128 --period 200 --mode delta
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "exp_common.h"
#include "live/supervisor.h"
#include "metrics/table.h"
#include "runtime/crash_plan.h"

using namespace mmrfd;
using metrics::Table;

namespace {

struct LiveConfig {
  std::uint32_t n{0};
  std::uint64_t seed{0};
  bool delta{true};
  std::uint16_t base_port{0};
};

struct LiveResult {
  std::uint32_t n{0};
  std::uint32_t f{0};
  std::uint64_t seed{0};
  bool delta{true};
  double run_s{0};
  std::size_t crashes{0};
  std::size_t restarts{0};
  bool strong_completeness{false};
  double detection_mean_s{0};
  double detection_p50_s{0};
  double detection_p99_s{0};
  double detection_max_s{0};
  std::size_t false_suspicions{0};
  std::uint64_t rounds{0};
  std::uint64_t full_queries{0};
  std::uint64_t delta_queries{0};
  std::uint64_t need_full_sent{0};
  std::uint64_t need_full_received{0};
  double bytes_per_query{0};
  std::uint64_t datagrams_received{0};
  std::uint64_t truncated{0};
  std::uint64_t recv_errors{0};
  std::uint64_t malformed{0};
  std::size_t unexpected_exits{0};
  std::size_t missing_reports{0};
  // Ground-truth wire cost: bytes handed to sendto(), resend-wave copies
  // included.
  std::uint64_t datagrams_sent{0};
  std::uint64_t wire_bytes_sent{0};
  double wire_bytes_per_query{0};
  // Round RTT percentiles from the cluster-merged rt.round_rtt_ns histogram.
  double round_rtt_p50_ms{0};
  double round_rtt_p99_ms{0};
  // Detection-latency attribution from the assembled cross-node trace: each
  // observer's latency split into round-pacing, resend-wait and wire time
  // (the three sum to the latency exactly). Per crash below; the flat means
  // average over every (crash, observer) pair.
  struct CrashBreakdown {
    std::uint32_t victim{0};
    std::size_t observers{0};
    std::uint32_t undetected{0};
    double latency_mean_ms{0};
    double pacing_mean_ms{0};
    double resend_wait_mean_ms{0};
    double wire_mean_ms{0};
  };
  std::vector<CrashBreakdown> breakdowns;
  double pacing_mean_ms{0};
  double resend_wait_mean_ms{0};
  double wire_mean_ms{0};
  std::size_t trace_causal_violations{0};
};

[[nodiscard]] bool write_json(const std::vector<LiveResult>& results,
                              const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "exp_live: cannot open " << path << " for writing\n";
    return false;
  }
  os << "{\n  \"experiment\": \"exp_live\",\n  \"unit\": {\"processes\": "
        "\"real OS processes over loopback UDP\"},\n  \"host\": "
     << bench::host_json() << ",\n  \"results\": [";
  bool first = true;
  for (const auto& r : results) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"n\": " << r.n << ", \"f\": " << r.f
       << ", \"seed\": " << r.seed
       << ", \"delta\": " << (r.delta ? "true" : "false")
       << ", \"run_s\": " << r.run_s << ", \"crashes\": " << r.crashes
       << ", \"restarts\": " << r.restarts << ", \"strong_completeness\": "
       << (r.strong_completeness ? "true" : "false")
       << ", \"detection_mean_s\": " << r.detection_mean_s
       << ", \"detection_p50_s\": " << r.detection_p50_s
       << ", \"detection_p99_s\": " << r.detection_p99_s
       << ", \"detection_max_s\": " << r.detection_max_s
       << ", \"round_rtt_p50_ms\": " << r.round_rtt_p50_ms
       << ", \"round_rtt_p99_ms\": " << r.round_rtt_p99_ms
       << ", \"false_suspicions\": " << r.false_suspicions
       << ", \"rounds\": " << r.rounds
       << ", \"full_queries\": " << r.full_queries
       << ", \"delta_queries\": " << r.delta_queries
       << ", \"need_full_sent\": " << r.need_full_sent
       << ", \"need_full_received\": " << r.need_full_received
       << ", \"bytes_per_query\": " << r.bytes_per_query
       << ", \"datagrams_sent\": " << r.datagrams_sent
       << ", \"wire_bytes_sent\": " << r.wire_bytes_sent
       << ", \"wire_bytes_per_query\": " << r.wire_bytes_per_query
       << ", \"datagrams_received\": " << r.datagrams_received
       << ", \"truncated\": " << r.truncated
       << ", \"recv_errors\": " << r.recv_errors
       << ", \"malformed\": " << r.malformed
       << ", \"unexpected_exits\": " << r.unexpected_exits
       << ", \"missing_reports\": " << r.missing_reports
       << ", \"pacing_mean_ms\": " << r.pacing_mean_ms
       << ", \"resend_wait_mean_ms\": " << r.resend_wait_mean_ms
       << ", \"wire_mean_ms\": " << r.wire_mean_ms
       << ", \"trace_causal_violations\": " << r.trace_causal_violations
       << ", \"crash_breakdowns\": [";
    bool first_crash = true;
    for (const auto& b : r.breakdowns) {
      os << (first_crash ? "" : ", ") << "{\"victim\": " << b.victim
         << ", \"observers\": " << b.observers
         << ", \"undetected\": " << b.undetected
         << ", \"latency_mean_ms\": " << b.latency_mean_ms
         << ", \"pacing_mean_ms\": " << b.pacing_mean_ms
         << ", \"resend_wait_mean_ms\": " << b.resend_wait_mean_ms
         << ", \"wire_mean_ms\": " << b.wire_mean_ms << "}";
      first_crash = false;
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  os.flush();
  if (!os) {
    std::cerr << "exp_live: short write to " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "LIVE: multi-process loopback UDP sweep with SIGKILL crash injection");
  args.flag("sizes", "8,32,64", "comma-separated process counts")
      .flag("seeds", "1", "seeds per configuration (crash-plan draws)")
      .flag("run", "10", "wall-clock seconds per configuration")
      .flag("period", "100", "query pacing Delta (ms)")
      .flag("crashes", "0", "SIGKILLs per run (0 = f/2, at least 1)")
      .flag("restart", "false", "restart each victim ~2s after its kill")
      .flag("mode", "both", "query encoding: delta, full, or both")
      .flag("base-port", "41000", "first UDP port (configs stride upward)")
      .flag("node-bin", "", "mmrfd-node path (empty = auto-discover)")
      .flag("report-dir", "", "node report directory (empty = <out>.reports)")
      .flag("flush-ms", "200", "node report snapshot interval (ms)")
      .flag("out", "BENCH_live.json", "JSON output path")
      .flag("csv", "false", "emit CSV instead of an aligned table")
      .flag("trace", "true",
            "harvest flight rings and attribute detection latency "
            "(pacing/resend-wait/wire) from the assembled cross-node trace");
  if (!args.parse(argc, argv)) return 0;

  std::vector<std::uint32_t> sizes;
  {
    const std::string s = args.get("sizes");
    for (std::size_t pos = 0; pos < s.size();) {
      const auto comma = s.find(',', pos);
      const std::string tok = s.substr(pos, comma - pos);
      if (tok.empty() ||
          tok.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "exp_live: bad --sizes entry '" << tok << "'\n";
        return 1;
      }
      unsigned long value = 0;
      try {
        value = std::stoul(tok);
      } catch (const std::exception&) {  // out-of-range
        std::cerr << "exp_live: bad --sizes entry '" << tok << "'\n";
        return 1;
      }
      // These are real OS processes: cap where a workstation stops being a
      // sane host for the experiment (file descriptors, scheduler load).
      if (value < 2 || value > 512) {
        std::cerr << "exp_live: --sizes entries must be in [2, 512] (got "
                  << tok << ")\n";
        return 1;
      }
      sizes.push_back(static_cast<std::uint32_t>(value));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (sizes.empty()) {
      std::cerr << "exp_live: --sizes must name at least one size\n";
      return 1;
    }
  }
  const std::string mode = args.get("mode");
  if (mode != "delta" && mode != "full" && mode != "both") {
    std::cerr << "exp_live: --mode must be delta, full or both (got '" << mode
              << "')\n";
    return 1;
  }
  const double run_s = static_cast<double>(args.get_int("run"));
  if (run_s < 2) {
    std::cerr << "exp_live: --run must be >= 2 seconds\n";
    return 1;
  }
  const bool restart = args.get_bool("restart");
  const std::string report_root = args.get("report-dir").empty()
                                      ? args.get("out") + ".reports"
                                      : args.get("report-dir");

  std::cout << "# LIVE: real-process loopback sweep  (f = n/4, "
            << (restart ? "crash+restart" : "crash-stop") << ", run "
            << run_s << "s, mode " << mode << ")\n\n";

  std::vector<LiveConfig> configs;
  {
    auto port = static_cast<std::uint32_t>(args.get_int("base-port"));
    for (const std::uint32_t n : sizes) {
      for (std::uint64_t seed = 1;
           seed <= static_cast<std::uint64_t>(args.get_int("seeds")); ++seed) {
        // Every run gets a fresh port range: nothing to collide with even
        // if a straggler from the previous config lingers for a moment.
        if (mode != "delta") {
          configs.push_back({n, seed, false, static_cast<std::uint16_t>(port)});
          port += n + 32;
        }
        if (mode != "full") {
          configs.push_back({n, seed, true, static_cast<std::uint16_t>(port)});
          port += n + 32;
        }
        if (port > 60000) port = static_cast<std::uint32_t>(args.get_int("base-port"));
      }
    }
  }

  std::vector<LiveResult> results;
  for (const LiveConfig& c : configs) {
    const std::uint32_t f = (c.n + 3) / 4;
    auto crashes = static_cast<std::size_t>(args.get_int("crashes"));
    if (crashes == 0) crashes = std::max<std::size_t>(1, f / 2);
    crashes = std::min<std::size_t>(crashes, f);

    // Kills land in the [30%, 60%] window of the run — late enough for the
    // cluster to reach steady state, early enough to observe detection.
    const auto plan = runtime::CrashPlan::uniform(
        crashes, c.n, from_seconds(run_s * 0.3), from_seconds(run_s * 0.6),
        c.seed);
    std::vector<live::CrashEvent> schedule;
    std::size_t restarts = 0;
    for (const auto& entry : plan.entries) {
      live::CrashEvent ev;
      ev.victim = entry.victim;
      ev.at = entry.when;
      if (restart) {
        ev.restart_at = entry.when + from_seconds(2.0);
        ++restarts;
      }
      schedule.push_back(ev);
    }

    live::SupervisorConfig scfg;
    scfg.n = c.n;
    scfg.f = f;
    scfg.base_port = c.base_port;
    scfg.pacing = from_millis(static_cast<double>(args.get_int("period")));
    scfg.delta = c.delta;
    scfg.flush = from_millis(static_cast<double>(args.get_int("flush-ms")));
    scfg.trace = args.get_bool("trace");
    // The causal kinds cost O(n) records per round, so a fixed-size ring
    // wraps past early crashes at n=64 and their suspect_add events vanish
    // before the end-of-run harvest. Scale the ring so it spans the whole
    // sweep: ~2n records per round per node, `run_s / pacing` rounds.
    scfg.trace_capacity =
        std::max<std::uint32_t>(16384, c.n * 1024);
    scfg.node_binary = args.get("node-bin");
    scfg.report_dir = report_root + "/n" + std::to_string(c.n) + "_s" +
                      std::to_string(c.seed) +
                      (c.delta ? "_delta" : "_full");

    std::cerr << "[exp_live] n=" << c.n << " seed=" << c.seed
              << (c.delta ? " delta" : " full") << " — " << c.n
              << " processes, " << crashes << " kill(s), " << run_s
              << "s...\n";
    live::LiveRunResult run;
    try {
      live::Supervisor supervisor(scfg);
      run = supervisor.run(schedule, from_seconds(run_s));
    } catch (const std::exception& e) {
      std::cerr << "exp_live: n=" << c.n << " run failed: " << e.what()
                << "\n";
      return 1;
    }

    LiveResult r;
    r.n = c.n;
    r.f = f;
    r.seed = c.seed;
    r.delta = c.delta;
    r.run_s = run_s;
    r.crashes = crashes;
    r.restarts = restarts;
    r.strong_completeness = run.strong_completeness;
    if (!run.detection_latencies.empty()) {
      r.detection_mean_s = run.detection_latencies.mean();
      r.detection_p50_s = run.detection_latencies.percentile(50.0);
      r.detection_p99_s = run.detection_latencies.percentile(99.0);
      r.detection_max_s = run.detection_latencies.max();
    }
    if (const obs::HistogramSnapshot* h =
            run.metrics.find_histogram("rt.round_rtt_ns")) {
      r.round_rtt_p50_ms = h->percentile(0.50) / 1e6;
      r.round_rtt_p99_ms = h->percentile(0.99) / 1e6;
    }
    r.datagrams_sent = run.datagrams_sent;
    r.wire_bytes_sent = run.wire_bytes_sent;
    r.wire_bytes_per_query = run.wire_bytes_per_query();
    r.false_suspicions = run.false_suspicions;
    r.rounds = run.rounds;
    r.full_queries = run.full_queries_sent;
    r.delta_queries = run.delta_queries_sent;
    r.need_full_sent = run.need_full_sent;
    r.need_full_received = run.need_full_received;
    r.bytes_per_query = run.bytes_per_query();
    r.datagrams_received = run.datagrams_received;
    r.truncated = run.truncated;
    r.recv_errors = run.recv_errors;
    r.malformed = run.malformed;
    r.unexpected_exits = run.unexpected_exits;
    r.missing_reports = run.missing_reports;
    if (run.trace) {
      r.trace_causal_violations = run.trace->causal_violations;
      double pacing_sum = 0, resend_sum = 0, wire_sum = 0;
      std::size_t observers_total = 0;
      for (const obs::CrashTimeline& ct : run.trace->crashes) {
        LiveResult::CrashBreakdown b;
        b.victim = ct.victim;
        b.observers = ct.observers.size();
        b.undetected = ct.undetected;
        double lat = 0, pace = 0, resend = 0, wire = 0;
        for (const obs::ObserverBreakdown& ob : ct.observers) {
          lat += static_cast<double>(ob.latency_ns);
          pace += static_cast<double>(ob.pacing_ns);
          resend += static_cast<double>(ob.resend_wait_ns);
          wire += static_cast<double>(ob.wire_ns);
        }
        if (!ct.observers.empty()) {
          const auto k = static_cast<double>(ct.observers.size());
          b.latency_mean_ms = lat / k / 1e6;
          b.pacing_mean_ms = pace / k / 1e6;
          b.resend_wait_mean_ms = resend / k / 1e6;
          b.wire_mean_ms = wire / k / 1e6;
        }
        pacing_sum += pace;
        resend_sum += resend;
        wire_sum += wire;
        observers_total += ct.observers.size();
        r.breakdowns.push_back(b);
      }
      if (observers_total > 0) {
        const auto k = static_cast<double>(observers_total);
        r.pacing_mean_ms = pacing_sum / k / 1e6;
        r.resend_wait_mean_ms = resend_sum / k / 1e6;
        r.wire_mean_ms = wire_sum / k / 1e6;
      }
    }
    results.push_back(r);

    std::cerr << "[exp_live]   " << run.rounds << " rounds total, "
              << run.detection_latencies.count() << " detections, complete="
              << (run.strong_completeness ? "yes" : "no") << "\n";
  }

  Table table({"n", "f", "seed", "delta", "kills", "det_mean_s", "det_p99_s",
               "pace_ms", "resend_ms", "wire_ms", "rtt_p50_ms", "complete",
               "false_susp", "B_per_query", "wire_B_per_q", "delta_q",
               "full_q", "need_full", "trunc", "errs"});
  for (const auto& r : results) {
    table.add_row({Table::num(std::uint64_t{r.n}),
                   Table::num(std::uint64_t{r.f}), Table::num(r.seed),
                   r.delta ? "yes" : "no",
                   Table::num(std::uint64_t{r.crashes}),
                   Table::num(r.detection_mean_s),
                   Table::num(r.detection_p99_s),
                   Table::num(r.pacing_mean_ms),
                   Table::num(r.resend_wait_mean_ms),
                   Table::num(r.wire_mean_ms),
                   Table::num(r.round_rtt_p50_ms),
                   r.strong_completeness ? "yes" : "no",
                   Table::num(std::uint64_t{r.false_suspicions}),
                   Table::num(r.bytes_per_query),
                   Table::num(r.wire_bytes_per_query),
                   Table::num(r.delta_queries),
                   Table::num(r.full_queries),
                   Table::num(r.need_full_sent + r.need_full_received),
                   Table::num(r.truncated), Table::num(r.recv_errors)});
  }
  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return write_json(results, args.get("out")) ? 0 : 1;
}
