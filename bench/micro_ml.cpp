// google-benchmark microbenchmarks for the ACIC analytics path: PB matrix
// construction, CART training/prediction on 15-feature data, kNN
// prediction, and a single end-to-end IOR simulation (the training
// primitive whose per-run cost Fig. 8 amortises).
#include <benchmark/benchmark.h>

#include "acic/common/rng.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/core/pbdesign.hpp"
#include "acic/ior/ior.hpp"
#include "acic/ml/cart.hpp"
#include "acic/ml/knn.hpp"
#include "acic/plugin/substrates.hpp"

namespace {

using namespace acic;

ml::Dataset synthetic_15d(std::size_t rows) {
  Rng rng(99);
  ml::Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(15);
    for (auto& v : x) v = rng.uniform();
    const double y = 3.0 * (x[0] > 0.5) + x[3] * 2.0 +
                     (x[7] > 0.3 && x[1] < 0.7 ? 1.5 : 0.0) +
                     0.1 * rng.normal();
    d.add(std::move(x), y);
  }
  return d;
}

void BM_PbFoldoverMatrix(benchmark::State& state) {
  for (auto _ : state) {
    auto m = core::PbDesign::foldover(16);
    benchmark::DoNotOptimize(m.size());
  }
}
BENCHMARK(BM_PbFoldoverMatrix);

void BM_CartTrain(benchmark::State& state) {
  const auto data = synthetic_15d(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto tree = ml::CartTree::train(data);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CartTrain)->Arg(200)->Arg(1000);

void BM_CartPredict(benchmark::State& state) {
  const auto data = synthetic_15d(1000);
  const auto tree = ml::CartTree::train(data);
  Rng rng(5);
  std::vector<double> x(15);
  for (auto& v : x) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(x));
  }
}
BENCHMARK(BM_CartPredict);

void BM_KnnPredict(benchmark::State& state) {
  const auto data = synthetic_15d(500);
  ml::KnnRegressor knn(5);
  knn.fit(data);
  Rng rng(6);
  std::vector<double> x(15);
  for (auto& v : x) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.predict(x));
  }
}
BENCHMARK(BM_KnnPredict);

void BM_IorTrainingRun(benchmark::State& state) {
  const auto w = ior::IorBench()
                     .tasks(32)
                     .block_size(16.0 * MiB)
                     .transfer_size(4.0 * MiB)
                     .segments(5)
                     .build();
  cloud::IoConfig cfg;
  plugin::filesystem_named("pvfs2").configure(cfg, 4, 4.0 * MiB);
  cfg.device = storage::DeviceType::kEphemeral;
  cfg.placement = cloud::Placement::kDedicated;
  for (auto _ : state) {
    const auto r = ior::run_ior(w, cfg);
    benchmark::DoNotOptimize(r.total_time);
  }
}
BENCHMARK(BM_IorTrainingRun);

}  // namespace

BENCHMARK_MAIN();
