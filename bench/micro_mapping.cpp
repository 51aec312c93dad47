// Microbenchmarks for the address randomizers: the DFN translation sits
// on the memory critical path (the paper charges 1 cycle per stage), so
// map/unmap throughput matters.

#include <benchmark/benchmark.h>

#include <array>

#include "common/rng.hpp"
#include "mapping/binary_matrix.hpp"
#include "mapping/feistel.hpp"
#include "mapping/xor_mapper.hpp"

namespace {

using namespace srbsg;

void BM_FeistelMap(benchmark::State& state) {
  Rng rng(1);
  const auto stages = static_cast<u32>(state.range(0));
  const auto keys = mapping::FeistelNetwork::random_keys(22, stages, rng);
  mapping::FeistelNetwork net(22, keys);
  u64 x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.map(x));
    x = (x + 1) & (net.domain_size() - 1);
  }
}
BENCHMARK(BM_FeistelMap)->Arg(3)->Arg(7)->Arg(20);

// The DFN's per-round table fill: unmap_range over the whole domain in
// 64-entry blocks, reported per entry so it compares with BM_FeistelMap's
// per-call time. Args: width, stages. w11 is odd and cycle-walks.
void BM_FeistelFill(benchmark::State& state) {
  Rng rng(5);
  const auto width = static_cast<u32>(state.range(0));
  const auto stages = static_cast<u32>(state.range(1));
  const auto keys = mapping::FeistelNetwork::random_keys(width, stages, rng);
  mapping::FeistelNetwork net(width, keys);
  std::array<u32, 64> block{};
  for (auto _ : state) {
    for (u64 first = 0; first < net.domain_size(); first += block.size()) {
      net.unmap_range(first, block);
      benchmark::DoNotOptimize(block.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(net.domain_size()));
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(net.domain_size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FeistelFill)->ArgsProduct({{11, 12, 16}, {3, 7, 20}});

void BM_FeistelUnmap(benchmark::State& state) {
  Rng rng(2);
  const auto keys = mapping::FeistelNetwork::random_keys(22, 7, rng);
  mapping::FeistelNetwork net(22, keys);
  u64 x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.unmap(x));
    x = (x + 1) & (net.domain_size() - 1);
  }
}
BENCHMARK(BM_FeistelUnmap);

void BM_FeistelOddWidthCycleWalk(benchmark::State& state) {
  Rng rng(3);
  const auto keys = mapping::FeistelNetwork::random_keys(21, 7, rng);
  mapping::FeistelNetwork net(21, keys);
  u64 x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.map(x));
    x = (x + 1) % net.domain_size();
  }
}
BENCHMARK(BM_FeistelOddWidthCycleWalk);

void BM_BinaryMatrixMap(benchmark::State& state) {
  Rng rng(4);
  mapping::BinaryMatrixMapper m(22, rng);
  u64 x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.map(x));
    x = (x + 1) & (m.domain_size() - 1);
  }
}
BENCHMARK(BM_BinaryMatrixMap);

void BM_XorMap(benchmark::State& state) {
  mapping::XorMapper m(22, 0x2FAB3);
  u64 x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.map(x));
    x = (x + 1) & (m.domain_size() - 1);
  }
}
BENCHMARK(BM_XorMap);

}  // namespace
