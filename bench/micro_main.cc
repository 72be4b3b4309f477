// The main() shared by the micro_* Google Benchmark binaries. It records the
// host block exp_scale and exp_live write (bench::host_json()) in the
// benchmark context, so `--benchmark_format=json` output names the machine,
// compiler and build type it ran on (scripts/bench_layers.py reads it).
#include <benchmark/benchmark.h>

#include "exp_common.h"

int main(int argc, char** argv) {
  benchmark::AddCustomContext("host", mmrfd::bench::host_json());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
