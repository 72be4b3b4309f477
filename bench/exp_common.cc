#include "exp_common.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <variant>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#define MMRFD_HAVE_UNAME 1
#else
#define MMRFD_HAVE_UNAME 0
#endif

namespace mmrfd::bench {

namespace {

runtime::CrashPlan plan_for(const Workload& w) {
  if (w.crashes == 0) return runtime::CrashPlan::none();
  // The engineered-fast processes are the MP witnesses; crashing them is
  // legal but makes accuracy comparisons meaningless, so protect them.
  return runtime::CrashPlan::uniform(w.crashes, w.n, w.crash_window_start,
                                     w.crash_window_end, w.seed, w.fast_set);
}

std::unique_ptr<net::DelayModel> delays_for(const Workload& w,
                                            bool with_bias) {
  auto model = net::make_preset(w.preset, w.mean_delay);
  if (with_bias && !w.fast_set.empty()) {
    model = std::make_unique<net::FastSetDelay>(std::move(model), w.fast_set,
                                                w.fast_factor);
  }
  if (w.spike) {
    model = std::make_unique<net::SpikeDelay>(std::move(model),
                                              w.spike->start, w.spike->end,
                                              w.spike->factor,
                                              w.spike->affected);
  }
  return model;
}

Duration stagger(std::uint64_t seed, ProcessId id, Duration period) {
  Xoshiro256 rng(derive_seed(seed, "bench.stagger", id.value));
  return Duration(static_cast<Duration::rep>(
      rng.next_double() * static_cast<double>(period.count())));
}

}  // namespace

RunMetrics summarize(const metrics::EventLog& log, std::uint32_t n,
                     Duration horizon) {
  RunMetrics out;
  metrics::Analysis analysis(log, n, horizon);
  // One crash_summaries() pass feeds latencies, completeness and the worst
  // per-crash instant (each call re-derives detections from the log).
  const auto summaries = analysis.crash_summaries();
  out.strong_completeness = true;
  double worst = 0.0;
  for (const auto& s : summaries) {
    for (double lat : s.latencies.samples()) out.detection_latencies.add(lat);
    if (s.completeness_latency) {
      worst = std::max(worst, to_seconds(*s.completeness_latency));
    } else {
      out.strong_completeness = false;
    }
  }
  if (out.strong_completeness) out.completeness_latency = worst;
  const auto fs = analysis.false_suspicions();
  out.false_suspicions = fs.size();
  for (const auto& f : fs) {
    if (f.cleared_at) {
      out.mistake_durations.add(to_seconds(*f.cleared_at - f.suspected_at));
    }
  }
  out.false_series = analysis.false_suspicion_series();
  if (auto t = analysis.accuracy_stabilization()) {
    out.accuracy_stable_at = to_seconds(*t);
  }
  if (auto t = analysis.full_accuracy_stabilization()) {
    out.clean_at = to_seconds(*t);
  }
  return out;
}

RunMetrics summarize_rollup_metrics(const std::vector<metrics::PairRollup>& pairs,
                                    const std::vector<metrics::CrashRecord>& crashes,
                                    std::uint32_t n) {
  RunMetrics out;
  const metrics::RollupSummary s = metrics::summarize_rollup(pairs, crashes, n);
  out.detection_latencies = s.detection_latencies;
  out.completeness_latency = s.completeness_latency;
  out.strong_completeness = s.strong_completeness;
  out.false_suspicions = s.false_suspicions;
  out.clean_at = s.clean_at;
  return out;
}

RunMetrics run_mmr(const Workload& w) {
  runtime::MmrClusterConfig cfg;
  cfg.n = w.n;
  cfg.f = w.f;
  cfg.seed = w.seed;
  cfg.pacing = w.period;
  cfg.mean_delay = w.mean_delay;
  cfg.delay_preset = w.preset;
  cfg.fast_set = w.fast_set;
  cfg.fast_factor = w.fast_factor;
  cfg.spike = w.spike;
  cfg.accept_late_responses = w.accept_late_responses;
  cfg.extra_quorum = w.extra_quorum;
  runtime::MmrCluster cluster(cfg);
  cluster.network().set_size_fn([](const runtime::MmrMessage& m) {
    return std::visit([](const auto& msg) { return transport::wire_size(msg); },
                      m);
  });
  cluster.start(plan_for(w));
  cluster.run_for(w.horizon);

  RunMetrics out = summarize(cluster.log(), w.n, w.horizon);
  out.messages_sent = cluster.network().stats().messages_sent;
  out.bytes_sent = cluster.network().stats().bytes_sent;
  std::vector<ProcessId> correct;
  for (std::uint32_t i = 0; i < w.n; ++i) {
    if (!cluster.host(ProcessId{i}).crashed()) correct.push_back(ProcessId{i});
  }
  core::MpChecker checker(cluster.recorder(), w.f, correct);
  out.mp = checker.check();
  return out;
}

namespace {

template <typename DetectorT, typename ConfigT, typename MsgT,
          typename MakeConfig, typename SizeFn>
RunMetrics run_baseline(const Workload& w, MakeConfig make_config,
                        SizeFn size_fn) {
  runtime::BaselineCluster<DetectorT, ConfigT, MsgT> cluster(
      w.n, net::Topology::full(w.n), delays_for(w, /*with_bias=*/false),
      derive_seed(w.seed, "bench.baseline"), make_config);
  cluster.network().set_size_fn(size_fn);
  cluster.start(plan_for(w));
  cluster.run_for(w.horizon);
  RunMetrics out = summarize(cluster.log(), w.n, w.horizon);
  out.messages_sent = cluster.network().stats().messages_sent;
  out.bytes_sent = cluster.network().stats().bytes_sent;
  return out;
}

constexpr std::size_t kHeaderBytes = 5;  // sender + type, as in the codec

}  // namespace

RunMetrics run_heartbeat(const Workload& w) {
  return run_baseline<baselines::HeartbeatDetector, baselines::HeartbeatConfig,
                      baselines::HeartbeatMessage>(
      w,
      [&](ProcessId self) {
        baselines::HeartbeatConfig c;
        c.self = self;
        c.n = w.n;
        c.period = w.period;
        c.timeout = w.timeout;
        c.initial_delay = stagger(w.seed, self, w.period);
        return c;
      },
      [](const baselines::HeartbeatMessage&) { return kHeaderBytes + 8; });
}

RunMetrics run_phi(const Workload& w) {
  return run_baseline<baselines::PhiAccrualDetector,
                      baselines::PhiAccrualConfig, baselines::HeartbeatMessage>(
      w,
      [&](ProcessId self) {
        baselines::PhiAccrualConfig c;
        c.self = self;
        c.n = w.n;
        c.period = w.period;
        c.threshold = w.phi_threshold;
        c.poll = w.period / 10;
        c.initial_delay = stagger(w.seed, self, w.period);
        return c;
      },
      [](const baselines::HeartbeatMessage&) { return kHeaderBytes + 8; });
}

RunMetrics run_adaptive(const Workload& w) {
  return run_baseline<baselines::AdaptiveDetector, baselines::AdaptiveConfig,
                      baselines::HeartbeatMessage>(
      w,
      [&](ProcessId self) {
        baselines::AdaptiveConfig c;
        c.self = self;
        c.n = w.n;
        c.period = w.period;
        c.safety_margin = w.timeout;  // reinterpreted as alpha
        c.initial_delay = stagger(w.seed, self, w.period);
        return c;
      },
      [](const baselines::HeartbeatMessage&) { return kHeaderBytes + 8; });
}

RunMetrics run_gossip(const Workload& w) {
  return run_baseline<baselines::GossipDetector, baselines::GossipConfig,
                      baselines::GossipMessage>(
      w,
      [&](ProcessId self) {
        baselines::GossipConfig c;
        c.self = self;
        c.n = w.n;
        c.period = w.period;
        c.timeout = w.timeout;
        c.fanout = 0;
        c.seed = w.seed;
        c.initial_delay = stagger(w.seed, self, w.period);
        return c;
      },
      [&](const baselines::GossipMessage& m) {
        return kHeaderBytes + 4 + 8 * m.counters.size();
      });
}

RunMetrics run_detector(const std::string& name, const Workload& w) {
  if (name == "mmr") return run_mmr(w);
  if (name == "heartbeat") return run_heartbeat(w);
  if (name == "phi") return run_phi(w);
  if (name == "adaptive") return run_adaptive(w);
  if (name == "gossip") return run_gossip(w);
  throw std::invalid_argument("unknown detector: " + name);
}

void append_samples(SampleSet& into, const SampleSet& from) {
  for (double x : from.samples()) into.add(x);
}

std::string host_json() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string kernel = "unknown";
#if MMRFD_HAVE_UNAME
  if (utsname u{}; uname(&u) == 0) {
    kernel = std::string(u.sysname) + " " + u.release;
  }
#endif
  return "{\"nproc\": " + std::to_string(nproc) + ", \"compiler\": \"" +
         compiler + "\", \"build_type\": \"" MMRFD_BUILD_TYPE
         "\", \"kernel\": \"" + kernel + "\"}";
}

}  // namespace mmrfd::bench
