// Experiment P3 — the frontier-parallel traversal engine (PR 3): the
// round-synchronous forward-push PPR and the level-synchronous BFS, swept
// over thread counts (outputs are bit-identical across the `threads` sweep
// by construction; benchmark JSON carries the push counts so schedule
// regressions show up as counter drift, not just time drift). The serial
// deque baseline of the 1-thread bound is recorded in BENCH_PR3.json.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/forward_push.h"
#include "datasets/generators.h"
#include "graph/traversal.h"

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

void BM_ForwardPush_RoundSync(benchmark::State& state) {
  const Graph g = MakeGraph(state.range(0));
  ForwardPushOptions options;
  options.epsilon = 1e-7;
  options.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t pushes = 0;
  for (auto _ : state) {
    const auto result = ComputeForwardPushPpr(g, 0, options).value();
    pushes = result.pushes;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pushes"] = static_cast<double>(pushes);
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_ForwardPush_RoundSync)
    ->ArgsProduct({{10000, 50000}, {1, 2, 4, 8}});

void BM_FrontierBfs(benchmark::State& state) {
  const Graph g = MakeGraph(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BfsDistances(g, 0, Direction::kForward, kUnreachable, threads));
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_FrontierBfs)->ArgsProduct({{50000, 200000}, {1, 2, 4, 8}});

void BM_FrontierBfs_Bounded(benchmark::State& state) {
  // CycleRank's pruning shape: a depth-bounded backward BFS.
  const Graph g = MakeGraph(50000);
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BfsDistances(g, 0, Direction::kBackward, 4, threads));
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_FrontierBfs_Bounded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace cyclerank
