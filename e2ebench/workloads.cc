#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "datasets/catalog.h"
#include "platform/params.h"

namespace cyclerank {
namespace e2ebench {
namespace {

/// Catalog datasets (each of 700 nodes or more) that compare_cold and
/// explore_hot draw (dataset, source) pairs from, in equal shares. Each
/// dataset has its own comparison cost, so the latency distribution is a
/// mixture of one mode per dataset. The count is odd so that the median
/// falls inside a mode: with an even count it sits on the seam between the
/// middle two, where the slightest shift of either moves p50 by the gap.
const std::vector<std::string>& PairDatasets() {
  static const std::vector<std::string>* datasets =
      new std::vector<std::string>{"amazon-copurchase", "er-1k",
                                   "wikilink-en-2018"};
  return *datasets;
}

/// The personalised algorithms of a use-case (a) comparison.
constexpr const char* kPersonalised[] = {
    "pers_pagerank", "pers_cheirank",  "pers_2drank",
    "cyclerank",     "ppr_push",       "ppr_montecarlo"};

/// Algorithms upload_churn runs on the fresh upload and on an older one.
constexpr const char* kChurnFreshAlgorithms[] = {"pers_pagerank",
                                                 "cyclerank"};
constexpr const char* kChurnOldAlgorithms[] = {"ppr_push", "pers_cheirank"};

/// Comparisons compare_cold runs in set-up on pairs kept out of the
/// measured stream, so first-use costs are paid before the clock starts.
constexpr size_t kColdWarmupComparisons = 8;

/// explore_hot's working set and Zipf exponent.
constexpr size_t kHotPairs = 32;
constexpr double kHotZipfExponent = 1.1;

/// upload_churn: uploads made in set-up, and how far back the older
/// upload of a comparison lies. With the 2 MiB graph store, about three
/// comparisons in four find that upload demoted to the spill tier and
/// reload it; the rest find it still resident. A minority mode that small
/// stays clear of the median (an even split would put the median on the
/// seam between the two).
constexpr int64_t kChurnInitialUploads = 32;
constexpr uint64_t kChurnMinBack = 12;
constexpr uint64_t kChurnMaxBack = 32;

/// upload_churn comparisons per upload, each with its own older upload:
/// more comparisons per second of run than one per upload, for a steadier
/// p99.
constexpr size_t kChurnComparisonsPerUpload = 2;

/// upload_churn asks for the top of each ranking, as a user looking over
/// an upload would. With full 2,000-node rankings, results demoted by the
/// retention and cache bounds filled the result spill tiers with hundreds
/// of MB per run, and late in a run the disk, not the code, set latency.
constexpr const char* kChurnTopK = "top_k=100";

/// Nominal operations per second of `--seconds`, a little below what the
/// parent commit sustains on a 4-core host, so a run lasts about that long
/// with its upload probes. compare_cold's distinct pairs run out past 40 s.
constexpr double kColdRate = 67.0;
constexpr double kHotRate = 1000.0;
constexpr double kChurnRate = 36.0;

struct Pair {
  std::string dataset;
  std::string source;  ///< label or decimal id, resolvable by BuildRequest
};

/// For each of `PairDatasets()`, every node usable as a source: it has in-
/// and out-links, and its name survives the parameter grammar and resolves
/// back to the node.
Result<std::vector<std::vector<Pair>>> SourcePools() {
  std::vector<std::vector<Pair>> pools;
  for (const std::string& name : PairDatasets()) {
    CYCLERANK_ASSIGN_OR_RETURN(GraphPtr graph,
                               DatasetCatalog::BuiltIn().Load(name));
    std::vector<Pair>& pool = pools.emplace_back();
    for (NodeId u = 0; u < graph->num_nodes(); ++u) {
      if (graph->OutDegree(u) == 0 || graph->InDegree(u) == 0) continue;
      std::string token = graph->NodeName(u);
      if (token.empty() ||
          token.find_first_of(",;= \t\r\n") != std::string::npos) {
        continue;
      }
      if (graph->labels() != nullptr && graph->FindNode(token) != u) continue;
      pool.push_back({name, std::move(token)});
    }
  }
  return pools;
}

/// Draws `count` pairs without replacement, the i-th from dataset
/// i % |datasets|. The fixed dataset mix keeps the per-comparison cost
/// (graph size, ranking length) the same for every seed; only the sources
/// vary.
Result<std::vector<Pair>> DrawStratified(size_t count, SplitMix64* rng) {
  CYCLERANK_ASSIGN_OR_RETURN(auto pools, SourcePools());
  std::vector<size_t> used(pools.size(), 0);
  std::vector<Pair> out;
  for (size_t i = 0; i < count; ++i) {
    const size_t stratum = i % pools.size();
    std::vector<Pair>& pool = pools[stratum];
    size_t& k = used[stratum];
    if (k == pool.size()) {
      return Status::InvalidArgument(
          "e2ebench: " + std::to_string(count) + " operations need more "
          "distinct sources than " + pool.front().dataset + " has");
    }
    const size_t pick = k + static_cast<size_t>(rng->Below(pool.size() - k));
    std::swap(pool[k], pool[pick]);
    out.push_back(pool[k++]);
  }
  return out;
}

Comparison PersonalisedComparison(const Pair& pair) {
  Comparison comparison;
  for (const char* algorithm : kPersonalised) {
    comparison.tasks.push_back(
        {pair.dataset, algorithm, "source=" + pair.source});
  }
  return comparison;
}

Comparison HotComparison(const Pair& pair) {
  Comparison comparison = PersonalisedComparison(pair);
  comparison.tasks.insert(comparison.tasks.begin(),
                          TaskText{pair.dataset, "pagerank", ""});
  return comparison;
}

/// Comparisons that make the daemon load each catalog dataset: a global
/// `pagerank`, which compare_cold never requests and explore_hot's own
/// warm-up computes anyway.
std::vector<Comparison> MaterialiseCatalog() {
  std::vector<Comparison> out;
  for (const std::string& name : PairDatasets()) {
    out.push_back({{{name, "pagerank", ""}}});
  }
  return out;
}

/// One step per comparison, with `kProbeUploads` probe steps spread
/// evenly between them.
std::vector<Step> WithProbes(std::vector<Comparison> comparisons) {
  std::vector<Step> steps;
  const size_t n = comparisons.size();
  size_t probes = 0;
  for (size_t i = 0; i < n; ++i) {
    steps.push_back({-1, {std::move(comparisons[i])}});
    for (; probes < (i + 1) * kProbeUploads / n; ++probes) {
      steps.push_back({static_cast<int64_t>(probes), {}});
    }
  }
  return steps;
}

/// upload_churn's comparison: use case (b), a fresh upload compared with
/// an older one in one query set.
Comparison ChurnComparison(int64_t fresh, int64_t old, SplitMix64* rng) {
  Comparison comparison;
  const std::string fresh_params = "source=" +
                                   std::to_string(rng->Below(kUploadNodes)) +
                                   ", " + kChurnTopK;
  for (const char* algorithm : kChurnFreshAlgorithms) {
    comparison.tasks.push_back({UploadName(fresh), algorithm, fresh_params});
  }
  const std::string old_params = "source=" +
                                 std::to_string(rng->Below(kUploadNodes)) +
                                 ", " + kChurnTopK;
  for (const char* algorithm : kChurnOldAlgorithms) {
    comparison.tasks.push_back({UploadName(old), algorithm, old_params});
  }
  return comparison;
}

Result<Plan> ColdPlan(uint64_t seed, size_t operations) {
  Plan plan;
  SplitMix64 rng(seed);
  CYCLERANK_ASSIGN_OR_RETURN(
      std::vector<Pair> pool,
      DrawStratified(kColdWarmupComparisons + operations, &rng));
  plan.warmup = MaterialiseCatalog();
  for (size_t i = 0; i < kColdWarmupComparisons; ++i) {
    plan.warmup.push_back(PersonalisedComparison(pool[i]));
  }
  std::vector<Comparison> comparisons;
  for (size_t i = 0; i < operations; ++i) {
    comparisons.push_back(
        PersonalisedComparison(pool[kColdWarmupComparisons + i]));
  }
  plan.steps = WithProbes(std::move(comparisons));
  return plan;
}

Result<Plan> HotPlan(uint64_t seed, size_t operations) {
  Plan plan;
  SplitMix64 rng(seed);
  // Popularity ranks map to datasets the same way for every seed, so each
  // dataset's share of the traffic is fixed.
  CYCLERANK_ASSIGN_OR_RETURN(std::vector<Pair> pool,
                             DrawStratified(kHotPairs, &rng));
  // Zipf over popularity ranks. Integer cumulative weights keep sampling
  // free of floating-point comparisons.
  std::vector<uint64_t> cumulative(kHotPairs);
  uint64_t total = 0;
  for (size_t r = 0; r < kHotPairs; ++r) {
    total += static_cast<uint64_t>(
        std::llround(1e9 / std::pow(static_cast<double>(r + 1),
                                    kHotZipfExponent)));
    cumulative[r] = total;
  }
  for (size_t r = 0; r < kHotPairs; ++r) {
    plan.warmup.push_back(HotComparison(pool[r]));
  }
  std::vector<Comparison> comparisons;
  for (size_t i = 0; i < operations; ++i) {
    const uint64_t u = rng.Below(total);
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    comparisons.push_back(HotComparison(pool[rank]));
  }
  plan.steps = WithProbes(std::move(comparisons));
  return plan;
}

Plan ChurnPlan(uint64_t seed, size_t operations) {
  Plan plan;
  SplitMix64 rng(seed);
  for (int64_t i = 0; i < kChurnInitialUploads; ++i) {
    plan.warmup_uploads.push_back(i);
  }
  for (int64_t i = kChurnInitialUploads - 4; i < kChurnInitialUploads; ++i) {
    plan.warmup.push_back(
        ChurnComparison(i, i - static_cast<int64_t>(kChurnMinBack), &rng));
  }
  for (size_t j = 0; j < operations; ++j) {
    Step& step = plan.steps.emplace_back();
    step.upload = kChurnInitialUploads + static_cast<int64_t>(j);
    for (size_t c = 0; c < kChurnComparisonsPerUpload; ++c) {
      const int64_t back = static_cast<int64_t>(
          kChurnMinBack + rng.Below(kChurnMaxBack - kChurnMinBack + 1));
      step.comparisons.push_back(
          ChurnComparison(step.upload, step.upload - back, &rng));
    }
  }
  return plan;
}

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix64::Below(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

Result<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kCompareCold, Workload::kExploreHot,
                     Workload::kUploadChurn}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("e2ebench: unknown workload '" +
                                 std::string(name) + "'");
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kCompareCold:
      return "compare_cold";
    case Workload::kExploreHot:
      return "explore_hot";
    case Workload::kUploadChurn:
      return "upload_churn";
  }
  return "?";
}

TaskSpec ToSpec(const TaskText& task) {
  TaskSpec spec;
  spec.dataset = task.dataset;
  spec.algorithm = task.algorithm;
  // Generated text always parses; an empty map is the failure fallback.
  spec.params = ParamMap::Parse(task.params).value_or(ParamMap());
  return spec;
}

QuerySet ToQuerySet(const Comparison& comparison) {
  QuerySet qs;
  for (const TaskText& t : comparison.tasks) qs.tasks.push_back(ToSpec(t));
  return qs;
}

size_t Plan::NumComparisons() const {
  size_t n = 0;
  for (const Step& step : steps) n += step.comparisons.size();
  return n;
}

size_t Plan::NumUploads() const {
  size_t n = 0;
  for (const Step& step : steps) n += step.upload >= 0 ? 1 : 0;
  return n;
}

Result<Plan> MakePlan(Workload workload, uint64_t seed, double seconds) {
  const size_t operations = OperationsFor(workload, seconds);
  Result<Plan> plan = Status::Internal("unreachable");
  switch (workload) {
    case Workload::kCompareCold:
      plan = ColdPlan(seed, operations);
      break;
    case Workload::kExploreHot:
      plan = HotPlan(seed, operations);
      break;
    case Workload::kUploadChurn:
      plan = ChurnPlan(seed, operations);
      break;
  }
  if (plan.ok()) {
    plan->workload = workload;
    plan->seed = seed;
  }
  return plan;
}

size_t OperationsFor(Workload workload, double seconds) {
  double rate = kColdRate;
  if (workload == Workload::kExploreHot) rate = kHotRate;
  if (workload == Workload::kUploadChurn) rate = kChurnRate;
  return std::max(kMinOperations,
                  static_cast<size_t>(std::llround(seconds * rate)));
}

std::string RenderPlan(const Plan& plan) {
  std::string out = "workload " + std::string(WorkloadName(plan.workload)) +
                    " seed " + std::to_string(plan.seed) + "\n";
  auto comparison = [&out](const Comparison& c) {
    for (const TaskText& t : c.tasks) {
      out += " " + t.dataset + "|" + t.algorithm + "|" + t.params;
    }
  };
  for (int64_t u : plan.warmup_uploads) {
    out += "warmup_upload " + std::to_string(u) + "\n";
  }
  for (const Comparison& c : plan.warmup) {
    out += "warmup";
    comparison(c);
    out += "\n";
  }
  for (const Step& step : plan.steps) {
    out += "upload " + std::to_string(step.upload);
    for (const Comparison& c : step.comparisons) {
      out += " ;";
      comparison(c);
    }
    out += "\n";
  }
  return out;
}

std::string DaemonOptions(Workload workload, const std::string& spill_dir) {
  // Shared by every workload: 2 workers at 1 kernel thread each and 2 I/O
  // threads, bounded retention (without it peak RSS measures run length),
  // fixed comparison ids.
  const std::string common =
      "admission_queue_limit=64, default_deadline_ms=0, default_threads=1, "
      "io_threads=2, listen_port=0, max_connections=8, max_frame_bytes=64m, "
      "max_retained_results=4096, max_tasks_per_submission=16, "
      "num_shards=1, num_workers=2, result_cache_bytes=64m, "
      "spill_breaker_probe_ms=1000, spill_compression=true, "
      "spill_retry_backoff_ms=1, spill_retry_limit=3, "
      "spill_write_behind_bytes=32m, uuid_seed=1";
  if (workload == Workload::kUploadChurn) {
    // A 2 MiB graph store holds a handful of uploads, so older ones are
    // demoted to the spill tier and reloaded.
    return common + ", graph_spill_bytes=256m, graph_store_bytes=2m, "
                    "result_spill_bytes=256m, spill_dir=" + spill_dir;
  }
  return common + ", graph_spill_bytes=0, graph_store_bytes=64m, "
                  "result_spill_bytes=0, spill_dir=";
}

std::string UploadName(int64_t index) { return "u" + std::to_string(index); }

std::string UploadBody(uint64_t seed, int64_t index) {
  SplitMix64 rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(index) + 1);
  std::string out;
  out.reserve(240 * 1024);
  // Targets chosen so far, repeated once per in-link: sampling from it is
  // preferential attachment.
  std::vector<uint32_t> endpoints;
  std::vector<std::vector<uint32_t>> in_links(kUploadNodes);
  endpoints.reserve(32 * 1024);
  auto edge = [&](uint32_t u, uint32_t v) {
    out += std::to_string(u);
    out += ',';
    out += std::to_string(v);
    out += '\n';
    endpoints.push_back(v);
    in_links[v].push_back(u);
  };
  for (uint32_t u = 0; u < kUploadNodes; ++u) {
    // Mostly short pages, some hubs: mean out-degree about 12.
    const uint64_t degree =
        rng.Below(100) < 85 ? 2 + rng.Below(8) : 20 + rng.Below(60);
    for (uint64_t e = 0; e < degree; ++e) {
      uint32_t v;
      const uint64_t kind = rng.Below(100);
      if (kind < 30 && !in_links[u].empty()) {
        v = in_links[u][rng.Below(in_links[u].size())];  // reciprocal link
      } else if (kind < 75 && !endpoints.empty()) {
        v = endpoints[rng.Below(endpoints.size())];
      } else {
        v = static_cast<uint32_t>(rng.Below(kUploadNodes));
      }
      if (v == u) v = (u + 1) % kUploadNodes;
      edge(u, v);
    }
  }
  return out;
}

}  // namespace e2ebench
}  // namespace cyclerank
