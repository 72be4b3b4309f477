// perfbench — the repository benchmark program. perfbench/run.py builds it
// and invokes
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --node-bin <mmrfd-node> --work-dir <dir>
// Every line but the last is human-readable; the last is one JSON object
// with the keys correct, attempted, failed and metrics. The exit status is
// 0 only when the correctness gate passed.
#include <sys/utsname.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

// Every digit of a double, so no measured value is rounded on output.
std::string number(double v) { return perfbench::fmt("%.17g", v); }

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << kind << " " << m.name << " " << number(m.value) << " "
              << m.unit << " samples=" << m.samples
              << (m.contract ? "" : " (printed only)") << "\n";
  }
}

void print_result(const Outcome& o, bool trace) {
  const std::vector<Metric>& ms = trace ? o.layers : o.e2e;
  std::cout << "{\"correct\": " << (o.correct ? "true" : "false")
            << ", \"attempted\": " << o.attempted
            << ", \"failed\": " << o.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : ms) {
    if (!m.contract) continue;
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--quick") {
      opt.quick = val == "1";
    } else if (key == "--node-bin") {
      opt.node_bin = val;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      std::cerr << "perfbench: unknown flag " << key << "\n";
      return false;
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.work_dir.empty() ||
      opt.seconds <= 0) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --node-bin PATH --work-dir DIR [--quick 1]\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: bad argument: " << e.what() << "\n";
    return 2;
  }
  std::cout << "# perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << "\n";
  // Host and build metadata: numbers from different hosts or builds are
  // not comparable.
  std::cout << "host {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << compiler() << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"kernel\": \"" << kernel()
            << "\"}\n";
  Outcome out;
  try {
    if (opt.workload.rfind("sim_", 0) == 0) {
      out = perfbench::run_sim_workload(opt);
    } else if (opt.workload == "live_loopback") {
      out = perfbench::run_live_workload(opt);
    } else {
      std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 3;
  }
  print_metrics("metric", out.e2e);
  print_metrics("layer", out.layers);
  for (const std::string& line : out.notes) std::cout << "note " << line << "\n";
  print_result(out, opt.trace);
  return out.correct ? 0 : 1;
}
