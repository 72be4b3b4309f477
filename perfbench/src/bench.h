// Shared plumbing of the repository benchmark: options, the metric sheet a
// run fills, the in-memory span log of a traced run, and process clocks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Short horizons and minimum sample counts, for the self-test only.
  bool quick{false};
  std::string node_bin;  ///< mmrfd-node built next to this binary
  std::string work_dir;  ///< scratch space inside the checkout
};

/// One named number with its unit and the sample count behind it.
struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::size_t samples{1};
  /// False for numbers printed for people but not part of BENCHMARK.json
  /// (zero on some workloads, or measurable on only one).
  bool contract{true};
};

/// Everything one invocation reports. `e2e` is filled by untraced runs,
/// `layers` by traced runs; `notes` are human-readable lines.
struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("GATE FAILED: " + why);
  }
  void add_e2e(std::string name, double value, std::string unit,
               std::size_t samples, bool contract = true) {
    e2e.push_back({std::move(name), value, std::move(unit), samples, contract});
  }
  void add_layer(std::string name, double value, std::string unit,
                 std::size_t samples = 1, bool contract = true) {
    layers.push_back(
        {std::move(name), value, std::move(unit), samples, contract});
  }
  /// Failed over attempted detection obligations. Printed only: it is 0 on
  /// a correct run, and the result line carries both counts.
  void add_failed_ratio() {
    add_e2e("failed_ratio",
            attempted > 0 ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
            "ratio", attempted, false);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process (all threads).
double self_cpu_s();
/// User + system CPU seconds of all reaped children.
double children_cpu_s();
/// Peak resident set of this process, MiB.
double self_peak_rss_mib();
/// Peak resident set of the largest reaped child, MiB.
double children_peak_rss_mib();

double median(std::vector<double> v);
/// a / b, or 0 when b is not positive.
double ratio(double a, double b);
/// One number through a printf format.
std::string fmt(const char* format, double v);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty vector.
double percentile(std::vector<double> v, double p);

/// Spans recorded by the benchmark around its own calls into each layer.
/// All spans of one invocation share `run_id`; they stay in memory until
/// write_json() at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run_id) : run_id_(run_id) {}

  /// Opens a span and returns its id (ids start at 1; 0 = no parent).
  std::uint64_t open(const std::string& name, std::uint64_t parent = 0);
  /// Closes span `id`, attaching count deltas observed over it.
  void close(std::uint64_t id,
             std::map<std::string, std::int64_t> counts = {});
  /// Records a closed span whose bounds were observed elsewhere (e.g. by a
  /// polling thread).
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end);

  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id{0};
    std::uint64_t parent{0};
    std::string name;
    double start_s{0};
    double end_s{0};
    std::map<std::string, std::int64_t> counts;
  };

  std::uint64_t run_id_;
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
};

/// Derives an independent 64-bit stream seed from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Workload entry points (one per source file).
Outcome run_sim_workload(const Options& opt);
Outcome run_live_workload(const Options& opt);

}  // namespace perfbench
