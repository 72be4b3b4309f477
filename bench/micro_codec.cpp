// Micro-benchmarks of the wire codec: per-datagram serialization cost on the
// real-transport path.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "transport/codec.h"

using namespace mmrfd;
using namespace mmrfd::transport;

namespace {

core::QueryMessage query_with(std::size_t entries) {
  Xoshiro256 rng(9);
  core::QueryMessage q;
  q.seq = 123456789;
  for (std::size_t i = 0; i < entries; ++i) {
    const TaggedEntry e{
        ProcessId{static_cast<std::uint32_t>(rng.next_below(100000))},
        rng.next()};
    if (i % 2 == 0) {
      q.push_suspected(e);
    } else {
      q.push_mistake(e);
    }
  }
  return q;
}

void BM_EncodeQuery(benchmark::State& state) {
  const auto q = query_with(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto bytes = encode_envelope(ProcessId{1}, q);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size(q)));
}
BENCHMARK(BM_EncodeQuery)->Arg(0)->Arg(16)->Arg(128)->Arg(1024);

void BM_DecodeQuery(benchmark::State& state) {
  const auto q = query_with(static_cast<std::size_t>(state.range(0)));
  const auto bytes = encode_envelope(ProcessId{1}, q);
  for (auto _ : state) {
    auto out = decode_envelope(bytes);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeQuery)->Arg(0)->Arg(16)->Arg(128)->Arg(1024);

void BM_EncodeResponse(benchmark::State& state) {
  const core::ResponseMessage r{42};
  for (auto _ : state) {
    auto bytes = encode_envelope(ProcessId{1}, r);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_EncodeResponse);

}  // namespace
