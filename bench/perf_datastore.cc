// Storage-layer throughput: dataset upload (with and without eviction
// pressure), pinned snapshot fetches, the text-upload admission path,
// the disk spill tier (evict→serialize→write demotions and miss→read→
// decode reloads, plus the raw graph codec), and the payload checksums and
// framing an upload pays on the wire. The PR-4 decomposition split
// the datastore into individually-locked stores; these sweeps bound the
// fixed cost of the byte-budgeted graph-store layer so retention never
// becomes the bottleneck of the upload/query hot paths — and put a number
// on what a spill round trip costs relative to re-running a kernel.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/env.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "net/frame.h"
#include "platform/datastore.h"

namespace cyclerank {
namespace {

GraphPtr BenchGraph(int64_t n, uint64_t seed) {
  BarabasiAlbertConfig config;
  config.num_nodes = static_cast<NodeId>(n);
  config.edges_per_node = 8;
  config.reciprocity = 0.3;
  config.seed = seed;
  return std::make_shared<Graph>(GenerateBarabasiAlbert(config).value());
}

PlatformOptions GraphBudget(size_t bytes) {
  PlatformOptions options;
  options.graph_store_bytes = bytes;
  return options;
}

/// Steady-state upload cost with eviction: the budget holds ~4 graphs, so
/// every further upload evicts the least-recently-queried one. Arg: nodes.
void BM_Datastore_UploadEvict(benchmark::State& state) {
  // A pool of pre-built graphs keeps graph construction out of the loop.
  std::vector<GraphPtr> pool;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    pool.push_back(BenchGraph(state.range(0), seed));
  }
  Datastore store(nullptr, GraphBudget(4 * pool[0]->MemoryBytes()));
  uint64_t uploads = 0;
  for (auto _ : state) {
    const std::string name = "g" + std::to_string(uploads);
    benchmark::DoNotOptimize(
        store.PutDataset(name, pool[uploads % pool.size()]));
    ++uploads;
  }
  const GraphStoreStats stats = store.graph_store().stats();
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["graph_bytes"] = static_cast<double>(pool[0]->MemoryBytes());
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["store_bytes"] = static_cast<double>(stats.bytes);
}
BENCHMARK(BM_Datastore_UploadEvict)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

/// Upload cost without a budget (the historical unbounded path), for the
/// eviction overhead delta. Every name is fresh — the map grows for the
/// run's duration, which is exactly what "unbounded" costs; entries share
/// the pooled graphs, so growth is index-only. Arg: nodes.
void BM_Datastore_UploadUnbounded(benchmark::State& state) {
  std::vector<GraphPtr> pool;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    pool.push_back(BenchGraph(state.range(0), seed));
  }
  Datastore store(nullptr);
  uint64_t uploads = 0;
  for (auto _ : state) {
    const std::string name = "g" + std::to_string(uploads);
    benchmark::DoNotOptimize(
        store.PutDataset(name, pool[uploads % pool.size()]));
    ++uploads;
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Datastore_UploadUnbounded)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

/// Pinned-snapshot fetch: the executor-side hot path (lookup + recency
/// bump + shared_ptr pin) on a store holding `range(1)` datasets.
void BM_Datastore_PinnedGet(benchmark::State& state) {
  Datastore store(nullptr);
  const int64_t datasets = state.range(1);
  for (int64_t i = 0; i < datasets; ++i) {
    (void)store.PutDataset("g" + std::to_string(i),
                           BenchGraph(state.range(0), 1));
  }
  uint64_t fetches = 0;
  for (auto _ : state) {
    const std::string name = "g" + std::to_string(fetches % datasets);
    GraphPtr pinned = store.GetDataset(name).value();
    benchmark::DoNotOptimize(pinned);
    ++fetches;
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["datasets"] = static_cast<double>(datasets);
}
BENCHMARK(BM_Datastore_PinnedGet)
    ->Args({10000, 1})->Args({10000, 16})->Args({10000, 256});

/// A fresh spill directory, wiped first. `BENCH_SPILL_DIR` overrides the
/// root (the smoke runner points it at a per-run temp dir).
std::string BenchSpillDir() {
  const char* override_root = std::getenv("BENCH_SPILL_DIR");
  const auto dir = override_root != nullptr
                       ? std::filesystem::path(override_root) / "spill"
                       : std::filesystem::temp_directory_path() /
                             "cyclerank_bench_spill";
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Raw graph codec: serialize + deserialize round trip, the CPU component
/// of every spill and reload. Arg: nodes.
void BM_Graph_CodecRoundTrip(benchmark::State& state) {
  const GraphPtr graph = BenchGraph(state.range(0), 1);
  for (auto _ : state) {
    const std::string bytes = graph->Serialize();
    benchmark::DoNotOptimize(Graph::Deserialize(bytes).value().num_edges());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["encoded_bytes"] =
      static_cast<double>(graph->Serialize().size());
}
BENCHMARK(BM_Graph_CodecRoundTrip)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

/// Steady-state upload cost when eviction *demotes* to the disk tier:
/// every upload past the budget serializes the victim and writes one
/// spill file (a tmp write and a rename). The delta against
/// BM_Datastore_UploadEvict is the price of durability. Arg: nodes.
void BM_Datastore_SpillEvict(benchmark::State& state) {
  std::vector<GraphPtr> pool;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    pool.push_back(BenchGraph(state.range(0), seed));
  }
  PlatformOptions options = GraphBudget(4 * pool[0]->MemoryBytes());
  options.spill_dir = BenchSpillDir();
  // Bound the disk tier too, so the directory cannot grow for the whole
  // benchmark duration; pruning is part of the steady-state cost.
  options.graph_spill_bytes = 64u << 20;
  Datastore store(nullptr, options);
  uint64_t uploads = 0;
  for (auto _ : state) {
    const std::string name = "g" + std::to_string(uploads);
    benchmark::DoNotOptimize(
        store.PutDataset(name, pool[uploads % pool.size()]));
    ++uploads;
  }
  const SpillTierStats stats = store.dataset_spill()->stats();
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["spills"] = static_cast<double>(stats.spills);
  state.counters["disk_bytes"] = static_cast<double>(stats.bytes);
  state.counters["prunes"] = static_cast<double>(stats.prunes);
}
BENCHMARK(BM_Datastore_SpillEvict)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// Spill *reload*: every Get misses memory and promotes a spilled dataset
/// back in (read + checksum + decode + re-admit), demoting another in its
/// place — the worst-case thrash pattern, and still orders of magnitude
/// cheaper than recomputing a ranking. Arg: nodes.
void BM_Datastore_SpillReload(benchmark::State& state) {
  const GraphPtr a = BenchGraph(state.range(0), 0);
  const GraphPtr b = BenchGraph(state.range(0), 1);
  // The memory tier holds exactly one graph (the seeds generate slightly
  // different edge counts, so budget for the larger one).
  PlatformOptions options =
      GraphBudget(std::max(a->MemoryBytes(), b->MemoryBytes()));
  options.spill_dir = BenchSpillDir();
  Datastore store(nullptr, options);
  // Two datasets, one memory slot: alternating Gets always reload.
  (void)store.PutDataset("a", a);
  (void)store.PutDataset("b", b);
  uint64_t fetches = 0;
  for (auto _ : state) {
    GraphPtr pinned =
        store.GetDataset(fetches % 2 == 0 ? "a" : "b").value();
    benchmark::DoNotOptimize(pinned);
    ++fetches;
  }
  const SpillTierStats stats = store.dataset_spill()->stats();
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["reloads"] = static_cast<double>(stats.reloads);
}
BENCHMARK(BM_Datastore_SpillReload)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// Sorted-percentile helper for the tail-latency benchmarks.
double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(p * (samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

/// The PR-6 headline: Get tail latency *under eviction churn*. A background
/// thread uploads graphs through a 4-slot budget (every upload demotes a
/// victim to disk) while the measured thread issues Gets at a fixed arrival
/// rate and records each call's service time. The upload enqueues into the
/// write-behind buffer and the flush thread pays the serialize + compress +
/// write off-lock. The p99 counter is the acceptance metric (BENCH_PR6.json
/// holds the synchronous baseline it was compared with). Arg:
/// spill_write_behind_bytes.
void BM_Datastore_ChurnGetTailLatency(benchmark::State& state) {
  std::vector<GraphPtr> pool;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    pool.push_back(BenchGraph(10000, seed));
  }
  PlatformOptions options = GraphBudget(4 * pool[0]->MemoryBytes());
  options.spill_dir = BenchSpillDir();
  options.graph_spill_bytes = 256u << 20;
  options.spill_write_behind_bytes = static_cast<size_t>(state.range(0));
  Datastore store(nullptr, options);
  for (size_t i = 0; i < 4; ++i) {
    (void)store.PutDataset("churn-" + std::to_string(i), pool[i]);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> latest{3};
  std::thread churner([&] {
    // Fixed 100 uploads/s — a provisioned churn rate the flush thread can
    // sustain, so write-behind measures steady state, not a saturated
    // buffer stalling every writer in backpressure.
    using Clock = std::chrono::steady_clock;
    constexpr auto kChurnPeriod = std::chrono::milliseconds(10);
    auto next_upload = Clock::now();
    uint64_t uploads = 4;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(next_upload);
      next_upload += kChurnPeriod;
      (void)store.PutDataset("churn-" + std::to_string(uploads),
                             pool[uploads % pool.size()]);
      latest.store(uploads, std::memory_order_relaxed);
      ++uploads;
    }
  });

  using Clock = std::chrono::steady_clock;
  constexpr auto kPeriod = std::chrono::microseconds(500);  // 2000 ops/s
  std::vector<double> samples;
  samples.reserve(10000);
  auto next_arrival = Clock::now();
  uint64_t fetches = 0;
  for (auto _ : state) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += kPeriod;
    // Target one of the most recent names: usually a memory hit, sometimes
    // just demoted (a buffer or disk reload) — the churn victim's profile.
    const uint64_t newest = latest.load(std::memory_order_relaxed);
    const std::string name =
        "churn-" + std::to_string(newest - (fetches++ % 3));
    const auto begin = Clock::now();
    benchmark::DoNotOptimize(store.GetDataset(name));
    samples.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - begin)
            .count());
  }
  stop.store(true);
  churner.join();

  state.counters["p50_us"] = Percentile(samples, 0.50);
  state.counters["p95_us"] = Percentile(samples, 0.95);
  state.counters["p99_us"] = Percentile(samples, 0.99);
  state.counters["write_behind_bytes"] = static_cast<double>(state.range(0));
  const SpillTierStats stats = store.dataset_spill()->stats();
  state.counters["spills"] = static_cast<double>(stats.spills);
  state.counters["reloads"] = static_cast<double>(stats.reloads);
  state.counters["buffer_hits"] = static_cast<double>(stats.buffer_hits);
  state.counters["backpressure_waits"] =
      static_cast<double>(stats.backpressure_waits);
}
BENCHMARK(BM_Datastore_ChurnGetTailLatency)
    ->Arg(32 << 20)  // the PlatformOptions default
    ->Iterations(4000)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Cold-miss cost: every Get targets a key that was never stored, so the
/// tier answers from the write-behind buffer and the index, with no
/// filesystem call. `exact_misses` counts the misses the index answered.
void BM_SpillTier_ColdMiss(benchmark::State& state) {
  SpillTierOptions options;
  options.write_behind_bytes = 32u << 20;
  SpillTier tier(BenchSpillDir(), options, "dataset");
  for (int i = 0; i < 512; ++i) {
    (void)tier.Put("present-" + std::to_string(i), std::string(256, 'x'));
  }
  tier.Flush();
  uint64_t lookups = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tier.Get("never-stored-" + std::to_string(lookups++)));
  }
  state.counters["exact_misses"] = static_cast<double>(tier.stats().misses);
}
BENCHMARK(BM_SpillTier_ColdMiss);

/// One demote + flush + reload round trip of a CSR graph payload through
/// the disk (the `Flush()` keeps the `Get` from being a buffer hit). The
/// bytes counters show the raw and on-disk footprint.
void BM_SpillTier_RoundTrip(benchmark::State& state) {
  const GraphPtr graph = BenchGraph(10000, 1);
  const std::string payload = graph->Serialize();
  SpillTier tier(BenchSpillDir(), SpillTierOptions{}, "dataset");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tier.Put("g", payload));
    benchmark::DoNotOptimize(tier.Flush());
    benchmark::DoNotOptimize(tier.Get("g"));
  }
  const SpillTierStats stats = tier.stats();
  state.counters["raw_bytes"] = static_cast<double>(stats.raw_bytes);
  state.counters["disk_bytes"] = static_cast<double>(stats.bytes);
}
BENCHMARK(BM_SpillTier_RoundTrip)->Unit(benchmark::kMicrosecond);

/// Degraded-mode churn: the same Put+Flush+Get cycle against a healthy disk
/// (arg 0) and against a tier whose circuit breaker is open after a
/// persistent write failure (arg 1). The PR-8 acceptance point is that
/// degradation is a *fast* documented fallback, not a slow error path:
/// while the breaker is open every Put fast-fails in memory without
/// touching the (known-bad) disk, so the degraded row must be far cheaper
/// per op than the healthy one, with `breaker_rejects` accounting for
/// every skipped write and zero new spills. Arg: 1 = breaker open.
void BM_SpillTier_DegradedChurn(benchmark::State& state) {
  const bool degraded = state.range(0) != 0;
  FaultInjectingEnv env(Env::Default(), /*seed=*/1);
  SpillTierOptions options;
  options.env = &env;
  options.retry_limit = 0;            // single attempt: trips immediately
  options.retry_backoff_ms = 0;
  options.breaker_probe_ms = 600'000;  // no recovery probe during the run
  SpillTier tier(BenchSpillDir(), options, "dataset");
  const std::string payload(64u << 10, 'x');
  if (degraded) {
    EnvFault fault;
    fault.kind = EnvFault::Kind::kPersistent;
    fault.op = EnvOp::kWrite;
    env.AddFault(fault);
    // The failed flush of this write opens the breaker.
    (void)tier.Put("trip", payload);
    (void)tier.Flush();
  }
  const uint64_t spills_before = tier.stats().spills;
  uint64_t churns = 0;
  for (auto _ : state) {
    const std::string key = "churn-" + std::to_string(churns % 64);
    benchmark::DoNotOptimize(tier.Put(key, payload));
    benchmark::DoNotOptimize(tier.Flush());
    benchmark::DoNotOptimize(tier.Get(key));
    ++churns;
  }
  const SpillTierStats stats = tier.stats();
  state.counters["breaker_open"] = stats.breaker_open ? 1.0 : 0.0;
  state.counters["breaker_rejects"] =
      static_cast<double>(stats.breaker_rejects);
  state.counters["spills"] =
      static_cast<double>(stats.spills - spills_before);
  state.counters["reloads"] = static_cast<double>(stats.reloads);
}
BENCHMARK(BM_SpillTier_DegradedChurn)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// An n-node edge-list upload body. Kind 0 is a pre-sorted chain; kind 1
/// is wiki-like (2–21 links per node, 40% of them to 32 hubs, targets
/// unsorted within a row, some repeated); kind 2 is the same links with
/// every endpoint spelled as a label.
std::string UploadBody(int64_t nodes, int64_t kind) {
  const auto name = [kind](uint64_t id) {
    return kind == 2 ? "Page_" + std::to_string(id) : std::to_string(id);
  };
  std::string content;
  if (kind == 0) {
    for (int64_t i = 0; i + 1 < nodes; ++i) {
      content += name(i) + "," + name(i + 1) + "\n";
    }
    return content;
  }
  Rng rng(7);
  const uint64_t n = static_cast<uint64_t>(nodes);
  for (uint64_t u = 0; u < n; ++u) {
    const uint64_t degree = 2 + rng.NextBounded(20);
    for (uint64_t e = 0; e < degree; ++e) {
      const uint64_t v = rng.NextBounded(100) < 40
                             ? rng.NextBounded(std::min<uint64_t>(32, n))
                             : rng.NextBounded(n);
      content += name(u) + "," + name(v) + "\n";
    }
  }
  return content;
}

/// Text-upload admission: parse + CSR build + byte accounting for an
/// n-node edge-list body (second argument: the `UploadBody` kind), against
/// a budget the upload always fits.
void BM_Datastore_UploadDatasetParse(benchmark::State& state) {
  const std::string content = UploadBody(state.range(0), state.range(1));
  Datastore store(nullptr, GraphBudget(64u << 20));
  uint64_t uploads = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.UploadDataset("g" + std::to_string(uploads++), content));
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["content_bytes"] = static_cast<double>(content.size());
}
BENCHMARK(BM_Datastore_UploadDatasetParse)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Unit(benchmark::kMicrosecond);

/// A wiki-like edge list cut to 209,510 bytes, the size of an
/// `upload_churn` upload body in e2ebench: what the wire checksum covers
/// twice per upload and the spill checksum once per reload.
std::string ChurnSizedEdgeList() {
  std::string body = UploadBody(4000, 1);
  body.resize(209510);
  return body;
}

/// One checksum over the edge list; the bytes/s counter is the hash rate.
void BM_Checksum(benchmark::State& state,
                 uint64_t (*checksum)(std::string_view)) {
  const std::string body = ChurnSizedEdgeList();
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum(body));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
}
BENCHMARK_CAPTURE(BM_Checksum, Fnv1a64, &binio::Fnv1a64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Checksum, Xxh64, &binio::Xxh64)
    ->Unit(benchmark::kMicrosecond);

/// The framing cost of one upload: `EncodeFrame` on the client and
/// `FrameDecoder::Next` on the server, both of which hash the payload.
void BM_FrameRoundTrip(benchmark::State& state) {
  const std::string body = ChurnSizedEdgeList();
  for (auto _ : state) {
    net::FrameDecoder decoder(0);
    decoder.Feed(net::EncodeFrame(0x01, body));
    net::Frame frame;
    Status error;
    benchmark::DoNotOptimize(decoder.Next(&frame, &error));
    benchmark::DoNotOptimize(frame.payload.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
}
BENCHMARK(BM_FrameRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cyclerank
