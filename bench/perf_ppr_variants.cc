// Experiment P1 — the paper's efficiency remark (§II: "PageRank can be
// computed in an iterative process ... however more efficient algorithms
// are available"): Personalized PageRank by full power iteration versus
// the local forward-push approximation versus Monte-Carlo random walks,
// with accuracy counters alongside the timings.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/forward_push.h"
#include "core/monte_carlo.h"
#include "core/pagerank.h"
#include "datasets/catalog.h"
#include "datasets/generators.h"

namespace cyclerank {
namespace {

Graph MakeGraph(int64_t n) {
  BarabasiAlbertConfig config;
  config.num_nodes = static_cast<NodeId>(n);
  config.edges_per_node = 8;
  config.reciprocity = 0.3;
  config.seed = 99;
  return GenerateBarabasiAlbert(config).value();
}

double L1Error(const std::vector<double>& a, const std::vector<double>& b) {
  double err = 0.0;
  for (size_t i = 0; i < a.size(); ++i) err += std::fabs(a[i] - b[i]);
  return err;
}

void BM_PPR_PowerIteration(benchmark::State& state) {
  const Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePersonalizedPageRank(g, 0));
  }
}
BENCHMARK(BM_PPR_PowerIteration)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PPR_ForwardPush(benchmark::State& state) {
  const Graph g = MakeGraph(state.range(0));
  ForwardPushOptions options;
  options.epsilon = 1e-7;
  PageRankOptions exact_options;
  exact_options.tolerance = 1e-12;
  const auto exact = ComputePersonalizedPageRank(g, 0, exact_options).value();
  double err = 0.0;
  for (auto _ : state) {
    auto result = ComputeForwardPushPpr(g, 0, options);
    err = L1Error(result->scores, exact.scores);
    benchmark::DoNotOptimize(result);
  }
  state.counters["l1_error"] = err;
}
BENCHMARK(BM_PPR_ForwardPush)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PPR_ForwardPush_EpsilonSweep(benchmark::State& state) {
  const Graph g = MakeGraph(10000);
  ForwardPushOptions options;
  options.epsilon = std::pow(10.0, -static_cast<double>(state.range(0)));
  uint64_t pushes = 0;
  for (auto _ : state) {
    auto result = ComputeForwardPushPpr(g, 0, options);
    pushes = result->pushes;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pushes"] = static_cast<double>(pushes);
}
BENCHMARK(BM_PPR_ForwardPush_EpsilonSweep)->DenseRange(4, 9);

void BM_PPR_MonteCarlo(benchmark::State& state) {
  const Graph g = MakeGraph(10000);
  MonteCarloOptions options;
  options.num_walks = static_cast<uint64_t>(state.range(0));
  options.seed = 5;
  PageRankOptions exact_options;
  exact_options.tolerance = 1e-12;
  const auto exact = ComputePersonalizedPageRank(g, 0, exact_options).value();
  double err = 0.0;
  for (auto _ : state) {
    auto result = ComputeMonteCarloPpr(g, 0, options);
    err = L1Error(result->scores, exact.scores);
    benchmark::DoNotOptimize(result);
  }
  state.counters["l1_error"] = err;
}
BENCHMARK(BM_PPR_MonteCarlo)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PPR_MonteCarlo_ThreadSweep(benchmark::State& state) {
  // Walk shards fan out on the shared compute pool; per-shard RNG streams
  // are derived from the seed, so the estimate is bit-identical across
  // every arg of this sweep.
  const Graph g = MakeGraph(10000);
  MonteCarloOptions options;
  options.num_walks = 500000;
  options.seed = 5;
  options.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMonteCarloPpr(g, 0, options));
  }
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_PPR_MonteCarlo_ThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PPR_MonteCarlo_Catalog(benchmark::State& state) {
  // The kernel as the end-to-end compare_cold workload runs it: on its
  // three catalog datasets, 100k walks, one kernel thread. Arg 0 picks the
  // dataset, arg 1 the estimator (0 = visit frequency, 1 = endpoint).
  static const char* const kDatasets[] = {"amazon-copurchase", "er-1k",
                                          "wikilink-en-2018"};
  const char* dataset = kDatasets[state.range(0)];
  const GraphPtr g = DatasetCatalog::BuiltIn().Load(dataset).value();
  MonteCarloOptions options;
  options.num_walks = 100000;
  options.seed = 5;
  options.estimator = state.range(1) == 0
                          ? MonteCarloEstimator::kVisitFrequency
                          : MonteCarloEstimator::kEndpoint;
  uint64_t steps = 0;
  for (auto _ : state) {
    auto result = ComputeMonteCarloPpr(*g, 0, options);
    steps = result->total_steps;
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(dataset);
  state.counters["steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_PPR_MonteCarlo_Catalog)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cyclerank
