// google-benchmark microbenchmarks for the simulation kernel: raw event
// throughput, coroutine process overhead, and flow-solver scaling (the
// ablation target for the sparse max-min solver).
#include <benchmark/benchmark.h>

#include "acic/simcore/flow.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/sync.hpp"

namespace {

using namespace acic;

void BM_EventThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < n; ++i) {
      s.at(static_cast<double>(i), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventThroughput)->Arg(1000)->Arg(10000);

sim::Task chained_delays(sim::Simulator& s, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await s.delay(1.0);
  }
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    s.spawn(chained_delays(s, hops));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineDelayChain)->Arg(100)->Arg(1000);

sim::Task barrier_rounds(sim::Simulator& s, sim::Barrier& b, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await s.delay(0.001);
    co_await b.arrive_and_wait();
  }
}

void BM_BarrierRound(benchmark::State& state) {
  const int parties = static_cast<int>(state.range(0));
  constexpr int kRounds = 20;
  for (auto _ : state) {
    sim::Simulator s;
    sim::Barrier b(s, static_cast<std::size_t>(parties));
    for (int p = 0; p < parties; ++p) {
      s.spawn(barrier_rounds(s, b, kRounds));
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * parties * kRounds);
}
BENCHMARK(BM_BarrierRound)->Arg(16)->Arg(64)->Arg(256);

void BM_FlowSolver(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::FlowNetwork net(s);
    std::vector<sim::ResourceId> nics;
    for (int i = 0; i < 16; ++i) {
      nics.push_back(net.add_resource("nic", 1e9));
    }
    const auto server = net.add_resource("server", 4e8);
    for (int f = 0; f < flows; ++f) {
      net.start_flow({nics[static_cast<std::size_t>(f % 16)], server},
                     1e6 * (1 + f % 7), nullptr);
    }
    s.run();
    benchmark::DoNotOptimize(net.bytes_delivered());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowSolver)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
