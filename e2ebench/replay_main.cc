// e2e_replay — the traced in-process replay behind `run.py --trace 1`.
//
//   e2e_replay --workload explore_hot --seed 1 --seconds 12
//              --workdir .bench_out/replay --spans .bench_out/spans.json
//
// It replays a prefix of the same seeded request stream e2e_loadgen sends,
// calling each layer's public functions directly and timing every call as
// a span (name, start, end, parent, request id), and snapshots the layers'
// stats structs around the replay. Sections:
//
//  - requests: each comparison through an in-process NetServer + NetClient
//    (net), through a second in-process ApiGateway (gateway), through
//    the GetResults codec, SerializeTaskResult (result_io), and a
//    standalone ResultCache at the workload's budget (result_cache). This
//    section runs on three fresh stacks, traced between two untraced
//    passes; the wall-time difference is the reported tracing overhead;
//  - kernels: BuildRequest + RelevanceAlgorithm::Run of all seven
//    algorithms at one kernel thread on the stream's first (dataset,
//    source) pairs (core);
//  - uploads: upload_churn's uploads and dataset lookups against a
//    Datastore at its budget with a spill tier (graph, graph_store, spill).
//    Only upload_churn uploads, so every workload replays this section on
//    upload_churn's stream for the same seed.
//
// Each per-layer metric is labelled with the end-to-end metric and
// workload it should move (README.md explains the map).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "daemon.h"
#include "datasets/catalog.h"
#include "graph/io.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/server.h"
#include "platform/datastore.h"
#include "platform/gateway.h"
#include "platform/params.h"
#include "platform/platform_options.h"
#include "platform/registry.h"
#include "platform/result_cache.h"
#include "platform/result_io.h"
#include "reference.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace cyclerank {
namespace e2ebench {
namespace {

/// Steps of the stream replayed through the request section.
size_t RequestSteps(Workload workload) {
  switch (workload) {
    case Workload::kCompareCold:
      return 120;
    case Workload::kExploreHot:
      return 2000;
    case Workload::kUploadChurn:
      return 120;
  }
  return 0;
}

/// Request id of the spans recorded during the mirrored set-up.
constexpr uint64_t kSetUpRequest = ~uint64_t{0};

/// (dataset, source) pairs the kernel section runs all algorithms on.
constexpr size_t kKernelPairs = 24;
/// upload_churn steps the upload section replays.
constexpr size_t kUploadSteps = 64;

/// The seven algorithms of an explore_hot comparison.
constexpr const char* kAlgorithms[] = {
    "pagerank",  "pers_pagerank", "pers_cheirank", "pers_2drank",
    "cyclerank", "ppr_push",      "ppr_montecarlo"};

struct Args {
  Workload workload = Workload::kCompareCold;
  uint64_t seed = 0;
  double seconds = 0;
  std::string workdir;
  std::string spans;
};

/// The stream's first `limit` steps, upload probes left out: the request
/// and kernel sections replay comparisons, and the upload section replays
/// upload_churn's own uploads.
std::vector<const Step*> FirstSteps(const Plan& plan, size_t limit) {
  std::vector<const Step*> out;
  for (const Step& step : plan.steps) {
    if (out.size() == limit) break;
    if (!step.IsProbe()) out.push_back(&step);
  }
  return out;
}

/// One in-process copy of the deployment: a daemon-equivalent stack
/// served over loopback, a second gateway called directly, and a
/// standalone result cache at the same budget.
struct Stack {
  explicit Stack(const PlatformOptions& net_options,
                 const PlatformOptions& direct_options)
      : net_store(&DatasetCatalog::BuiltIn(), net_options),
        net_gateway(&net_store, &AlgorithmRegistry::Default(), net_options),
        server(&net_gateway, net_options),
        direct_store(&DatasetCatalog::BuiltIn(), direct_options),
        direct_gateway(&direct_store, &AlgorithmRegistry::Default(),
                       direct_options),
        cache(direct_options.result_cache_bytes) {}

  Datastore net_store;
  ApiGateway net_gateway;
  net::NetServer server;
  net::NetClient client;
  Datastore direct_store;
  ApiGateway direct_gateway;
  ResultCache cache;
};

Result<PlatformOptions> StackOptions(Workload workload,
                                     const std::string& spill_dir) {
  return PlatformOptions::FromString(DaemonOptions(workload, spill_dir));
}

Result<std::vector<TaskResult>> Direct(ApiGateway* gateway, const QuerySet& qs,
                                       Tracer* tracer, uint64_t request,
                                       int64_t parent) {
  Result<std::string> id = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "gateway.submit", request, parent);
    id = gateway->SubmitQuerySet(qs);
  }
  if (!id.ok()) return id.status();
  {
    ScopedSpan span(tracer, "gateway.wait", request, parent);
    CYCLERANK_ASSIGN_OR_RETURN(bool done, gateway->WaitForCompletion(*id, 120));
    if (!done) return Status::DeadlineExceeded("comparison " + *id);
  }
  ScopedSpan span(tracer, "gateway.get_results", request, parent);
  return gateway->GetResults(*id);
}

Result<std::vector<TaskResult>> OverWire(net::NetClient* client,
                                         const QuerySet& qs, Tracer* tracer,
                                         uint64_t request, int64_t parent) {
  Result<std::string> id = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "net.submit_rtt", request, parent);
    id = client->SubmitQuerySet(qs);
  }
  if (!id.ok()) return id.status();
  {
    ScopedSpan span(tracer, "net.wait_rtt", request, parent);
    CYCLERANK_ASSIGN_OR_RETURN(bool done, client->WaitForCompletion(*id, 120));
    if (!done) return Status::DeadlineExceeded("comparison " + *id);
  }
  ScopedSpan span(tracer, "net.results_rtt", request, parent);
  return client->GetResults(*id);
}

/// Both copies of one upload; failures are the caller's to count.
Status UploadBoth(Stack* stack, const Plan& plan, int64_t upload,
                  Tracer* tracer, uint64_t request, int64_t parent) {
  const std::string body = UploadBody(plan.seed, upload);
  {
    ScopedSpan span(tracer, "net.upload_rtt", request, parent);
    CYCLERANK_RETURN_NOT_OK(
        stack->client.UploadDataset(UploadName(upload), body));
  }
  ScopedSpan span(tracer, "direct.upload", request, parent);
  return stack->direct_store.UploadDataset(UploadName(upload), body);
}

/// What the request section measured besides spans.
struct RequestCounts {
  double wall_s = 0;
  uint64_t comparisons = 0;
  uint64_t results = 0;
  uint64_t frame_bytes = 0;
  uint64_t result_bytes = 0;
  ResultCacheStats cache_before, cache_after;
  net::NetServerStats net_before, net_after;
};

/// The request section on a fresh stack; `tracer` may be disabled.
Status ReplayRequests(const Args& args, const Plan& plan,
                      const std::string& tag, Tracer* tracer, Report* report,
                      RequestCounts* counts) {
  CYCLERANK_ASSIGN_OR_RETURN(
      PlatformOptions net_options,
      StackOptions(plan.workload, args.workdir + "/" + tag + "-net"));
  CYCLERANK_ASSIGN_OR_RETURN(
      PlatformOptions direct_options,
      StackOptions(plan.workload, args.workdir + "/" + tag + "-direct"));
  Stack stack(net_options, direct_options);
  CYCLERANK_RETURN_NOT_OK(stack.server.Start());
  CYCLERANK_RETURN_NOT_OK(
      stack.client.Connect("127.0.0.1", stack.server.port()));

  // The daemon's set-up, on both copies. Only its result-cache inserts
  // are traced: they are all explore_hot ever inserts.
  Tracer off(false);
  for (int64_t upload : plan.warmup_uploads) {
    CYCLERANK_RETURN_NOT_OK(UploadBoth(&stack, plan, upload, &off, 0, -1));
  }
  for (const Comparison& comparison : plan.warmup) {
    const QuerySet qs = ToQuerySet(comparison);
    CYCLERANK_ASSIGN_OR_RETURN(auto wire,
                               OverWire(&stack.client, qs, &off, 0, -1));
    CYCLERANK_ASSIGN_OR_RETURN(
        auto direct, Direct(&stack.direct_gateway, qs, &off, 0, -1));
    for (const TaskResult& r : direct) {
      const auto generation =
          stack.direct_store.DatasetCacheGeneration(r.spec.dataset);
      const std::string key =
          TaskFingerprint(r.spec.dataset, generation.value_or(0),
                          r.spec.algorithm, r.spec.params);
      ScopedSpan span(tracer, "result_cache.put", kSetUpRequest);
      stack.cache.Put(key, r);
    }
  }

  counts->cache_before = stack.direct_gateway.result_cache().stats();
  counts->net_before = stack.server.stats();
  WallTimer wall;
  uint64_t next_request = 0;
  for (const Step* step : FirstSteps(plan, RequestSteps(plan.workload))) {
    const uint64_t request = next_request++;
    ScopedSpan root(tracer, "replay.step", request);
    if (step->upload >= 0) {
      ++report->attempted;
      const Status st =
          UploadBoth(&stack, plan, step->upload, tracer, request, root.id());
      if (!st.ok()) {
        report->Fail("upload: " + st.ToString());
        continue;
      }
    }
    for (const Comparison& comparison : step->comparisons) {
      const QuerySet qs = ToQuerySet(comparison);
      ++report->attempted;
      ++counts->comparisons;
      ScopedSpan cmp(tracer, "replay.comparison", request, root.id());
      auto wire = OverWire(&stack.client, qs, tracer, request, cmp.id());
      auto direct =
          Direct(&stack.direct_gateway, qs, tracer, request, cmp.id());
      if (!wire.ok() || !direct.ok() || wire->size() != qs.tasks.size() ||
          direct->size() != qs.tasks.size()) {
        report->Fail("comparison failed: " +
                     (wire.ok() ? direct.status() : wire.status()).ToString());
        continue;
      }
      {
        ScopedSpan span(tracer, "net.results_codec", request, cmp.id());
        net::GetResultsResponse response{request, Status::OK(), *direct};
        const std::string bytes = net::EncodeGetResultsResponse(response);
        counts->frame_bytes += bytes.size();
        net::FrameDecoder decoder(0);
        decoder.Feed(bytes);
        net::Frame frame;
        Status error;
        Result<net::GetResultsResponse> decoded =
            Status::ParseError("no frame");
        if (decoder.Next(&frame, &error) ==
            net::FrameDecoder::Outcome::kFrame) {
          decoded = net::DecodeGetResultsResponse(frame.payload);
        }
        if (!decoded.ok() || decoded->results.size() != direct->size()) {
          report->Fail("GetResults codec did not round-trip");
        }
      }
      for (size_t i = 0; i < direct->size(); ++i) {
        const TaskResult& r = (*direct)[i];
        if (!r.status.ok() || !(*wire)[i].status.ok() ||
            CanonicalBytes(r) != CanonicalBytes((*wire)[i])) {
          report->Fail(qs.tasks[i].ToString() +
                       ": wire and in-process results differ");
        }
        ++counts->results;
        {
          ScopedSpan span(tracer, "result_io.serialize", request, cmp.id());
          counts->result_bytes += SerializeTaskResult(r).size();
        }
        const auto generation =
            stack.direct_store.DatasetCacheGeneration(r.spec.dataset);
        const std::string key =
            TaskFingerprint(r.spec.dataset, generation.value_or(0),
                            r.spec.algorithm, r.spec.params);
        bool hit = false;
        {
          ScopedSpan span(tracer, "result_cache.get", request, cmp.id());
          hit = stack.cache.Get(key).has_value();
        }
        if (!hit) {
          ScopedSpan span(tracer, "result_cache.put", request, cmp.id());
          stack.cache.Put(key, r);
        }
      }
    }
  }
  counts->wall_s = wall.ElapsedSeconds();
  counts->cache_after = stack.direct_gateway.result_cache().stats();
  counts->net_after = stack.server.stats();
  return Status::OK();
}

/// Kernel section: every algorithm on the stream's first pairs, with the
/// stream's own parameters where the stream has that task.
void ReplayKernels(const Plan& plan, Tracer* tracer, Report* report) {
  std::vector<std::pair<std::string, std::string>> pairs;  // dataset, params
  std::map<std::string, TaskText> stream_tasks;  // dataset|params|algorithm
  for (const Step* step : FirstSteps(plan, RequestSteps(plan.workload))) {
    for (const Comparison& comparison : step->comparisons) {
      for (const TaskText& task : comparison.tasks) {
        if (task.params.empty()) continue;  // global pagerank
        stream_tasks.emplace(task.dataset + "|" + task.params + "|" +
                                 task.algorithm, task);
        const std::pair<std::string, std::string> pair{task.dataset,
                                                       task.params};
        if (pairs.size() < kKernelPairs &&
            std::find(pairs.begin(), pairs.end(), pair) == pairs.end()) {
          pairs.push_back(pair);
        }
      }
    }
  }
  std::map<std::string, GraphPtr> graphs;
  uint64_t request = 1u << 20;
  for (const auto& [dataset, params] : pairs) {
    GraphPtr& graph = graphs[dataset];
    if (graph == nullptr) {
      auto loaded = LoadStreamGraph(plan.seed, dataset);
      if (!loaded.ok()) {
        report->Fail("kernel graph: " + loaded.status().ToString());
        continue;
      }
      graph = *loaded;
    }
    for (const char* algorithm : kAlgorithms) {
      const std::string name = algorithm;
      auto known = stream_tasks.find(dataset + "|" + params + "|" + name);
      const TaskText task = known != stream_tasks.end()
                                ? known->second
                                : TaskText{dataset, name,
                                           name == "pagerank" ? "" : params};
      ++report->attempted;
      Result<TaskResult> result = Status::Internal("unset");
      {
        ScopedSpan span(tracer, "core.kernel." + name, request);
        result = ComputeReference(*graph, task);
      }
      if (!result.ok()) report->Fail(name + ": " + result.status().ToString());
      ++request;
    }
  }
}

/// What the upload section measured besides spans.
struct UploadCounts {
  GraphStoreStats store_before, store_after;
  SpillTierStats spill;  ///< dataset tier, after a final flush
};

/// Upload section: upload_churn's set-up and steps against one Datastore.
Status ReplayUploads(const Args& args, uint64_t seed, Tracer* tracer,
                     Report* report, UploadCounts* counts) {
  CYCLERANK_ASSIGN_OR_RETURN(
      Plan churn, MakePlan(Workload::kUploadChurn, seed, 1.0));
  CYCLERANK_ASSIGN_OR_RETURN(
      PlatformOptions options,
      StackOptions(Workload::kUploadChurn, args.workdir + "/layers"));
  Datastore store(&DatasetCatalog::BuiltIn(), options);
  for (int64_t upload : churn.warmup_uploads) {
    CYCLERANK_RETURN_NOT_OK(
        store.UploadDataset(UploadName(upload), UploadBody(seed, upload)));
  }
  counts->store_before = store.graph_store().stats();
  uint64_t request = 2u << 20;
  for (const Step* step : FirstSteps(churn, kUploadSteps)) {
    const std::string name = UploadName(step->upload);
    const std::string body = UploadBody(seed, step->upload);
    ++report->attempted;
    {
      ScopedSpan span(tracer, "graph.parse", request);
      if (!ReadGraphFromString(body).ok()) report->Fail("parse " + name);
    }
    {
      ScopedSpan span(tracer, "graph_store.upload", request);
      const Status st = store.UploadDataset(name, body);
      if (!st.ok()) report->Fail("upload " + name + ": " + st.ToString());
    }
    // Each dataset of the comparison once, in order: the fresh upload is
    // resident; the older one has usually been demoted, which the store's
    // reload counter tells after the call.
    std::vector<std::string> datasets;
    for (const Comparison& comparison : step->comparisons) {
      for (const TaskText& task : comparison.tasks) {
        if (std::find(datasets.begin(), datasets.end(), task.dataset) ==
            datasets.end()) {
          datasets.push_back(task.dataset);
        }
      }
    }
    for (const std::string& dataset : datasets) {
      const uint64_t reloads = store.graph_store().stats().reloads;
      const int64_t start = Tracer::NowNs();
      auto graph = store.GetDataset(dataset);
      const int64_t end = Tracer::NowNs();
      if (!graph.ok()) report->Fail("get " + dataset + ": " +
                                    graph.status().ToString());
      if (tracer->enabled()) {
        const bool reloaded = store.graph_store().stats().reloads > reloads;
        tracer->Record({reloaded ? "graph_store.reload" : "graph_store.get",
                        start, end, -1, request});
      }
    }
    ++request;
  }
  counts->store_after = store.graph_store().stats();
  CYCLERANK_RETURN_NOT_OK(store.Flush());
  counts->spill = store.SpillStats().datasets;
  return Status::OK();
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      CYCLERANK_ASSIGN_OR_RETURN(args.workload, ParseWorkload(value));
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_seed || args.workdir.empty() ||
      args.seconds <= 0) {
    return Status::InvalidArgument(
        "usage: e2e_replay --workload W --seed N --seconds S --workdir DIR "
        "[--spans FILE]");
  }
  return args;
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  auto plan = MakePlan(args->workload, args->seed, args->seconds);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 2;
  }
  args->workdir = std::filesystem::absolute(args->workdir).string();
  std::filesystem::create_directories(args->workdir);

  Report report;
  Tracer untraced(false);
  Tracer tracer(true);
  // Untraced passes on both sides of the traced one, so drift during the
  // run does not read as tracing overhead.
  RequestCounts before, requests, after;
  UploadCounts uploads;
  Report ignored;  // the untraced passes repeat the traced pass's checks
  Status st = ReplayRequests(*args, *plan, "untraced1", &untraced, &ignored,
                             &before);
  if (st.ok()) {
    st = ReplayRequests(*args, *plan, "traced", &tracer, &report, &requests);
  }
  if (st.ok()) {
    st = ReplayRequests(*args, *plan, "untraced2", &untraced, &ignored, &after);
  }
  const double baseline_s = (before.wall_s + after.wall_s) / 2;
  if (st.ok()) ReplayKernels(*plan, &tracer, &report);
  if (st.ok()) {
    st = ReplayUploads(*args, args->seed, &tracer, &report, &uploads);
  }
  std::filesystem::remove_all(args->workdir);
  if (!st.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::string cold = " on compare_cold";
  const std::string hot = " on explore_hot";
  const std::string churn = " on upload_churn";
  bool refused = false;
  auto p50 = [&](const std::string& metric, const std::string& span,
                 double scale, const std::string& unit,
                 const std::string& maps_to) {
    auto p = Percentile(tracer.DurationsMs(span), 5000);
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", metric.c_str(),
                   p.status().ToString().c_str());
      refused = true;
      return;
    }
    report.metrics[metric] = {*p * scale, unit, maps_to};
  };
  auto count = [&](const std::string& metric, double value,
                   const std::string& unit, const std::string& maps_to) {
    report.metrics[metric] = {value, unit, maps_to};
  };
  p50("net.submit_rtt_ms", "net.submit_rtt", 1, "ms",
      "comparison_p50_ms" + hot);
  p50("net.results_rtt_ms", "net.results_rtt", 1, "ms",
      "comparison_p50_ms" + hot);
  p50("net.results_codec_us", "net.results_codec", 1e3, "us",
      "comparisons_per_s" + hot);
  p50("gateway.submit_ms", "gateway.submit", 1, "ms",
      "comparison_p50_ms" + hot);
  p50("gateway.wait_ms", "gateway.wait", 1, "ms", "comparison_p50_ms" + cold);
  p50("gateway.get_results_ms", "gateway.get_results", 1, "ms",
      "comparison_p50_ms" + hot);
  p50("result_cache.get_us", "result_cache.get", 1e3, "us",
      "comparison_p50_ms" + hot);
  p50("result_cache.put_us", "result_cache.put", 1e3, "us",
      "comparison_p50_ms" + cold);
  p50("graph.parse_ms", "graph.parse", 1, "ms", "upload_p50_ms" + churn);
  p50("graph_store.upload_ms", "graph_store.upload", 1, "ms",
      "upload_p50_ms" + churn);
  p50("graph_store.get_ms", "graph_store.get", 1, "ms",
      "comparison_p50_ms" + churn);
  p50("graph_store.reload_ms", "graph_store.reload", 1, "ms",
      "comparison_p50_ms" + churn);
  for (const char* algorithm : kAlgorithms) {
    const std::string name = algorithm;
    // Global pagerank only runs in set-up (catalog materialisation and
    // explore_hot's first touches), never in a measured comparison.
    p50("core.kernel_ms." + name, "core.kernel." + name, 1, "ms",
        name == "pagerank" ? "setup_s" + hot
                           : "comparison_p50_ms, comparisons_per_s" + cold);
  }
  p50("result_io.serialize_us", "result_io.serialize", 1e3, "us",
      "comparisons_per_s" + hot);

  const double hits =
      double(requests.cache_after.hits - requests.cache_before.hits);
  const double misses =
      double(requests.cache_after.misses - requests.cache_before.misses);
  const double comparisons = std::max<double>(1, requests.comparisons);
  count("result_cache.hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
        "comparison_p50_ms" + hot);
  count("gateway.kernel_runs_per_comparison",
        double(requests.cache_after.insertions -
               requests.cache_before.insertions) / comparisons,
        "count", "comparisons_per_s" + cold);
  count("net.frames_per_comparison",
        double(requests.net_after.frames_received +
               requests.net_after.frames_sent -
               requests.net_before.frames_received -
               requests.net_before.frames_sent) / comparisons,
        "count", "comparisons_per_s" + hot);
  count("net.results_frame_bytes", double(requests.frame_bytes) / comparisons,
        "bytes", "comparison_p50_ms" + hot);
  count("result_io.result_bytes",
        double(requests.result_bytes) / std::max<double>(1, requests.results),
        "bytes", "comparisons_per_s" + hot);
  count("graph_store.evictions",
        double(uploads.store_after.evictions - uploads.store_before.evictions),
        "count", "upload_p50_ms" + churn);
  count("graph_store.reloads",
        double(uploads.store_after.reloads - uploads.store_before.reloads),
        "count", "comparison_p50_ms" + churn);
  count("spill.datasets.backpressure_waits",
        double(uploads.spill.backpressure_waits), "count",
        "upload_p50_ms" + churn);
  count("spill.datasets.buffer_hits", double(uploads.spill.buffer_hits),
        "count", "comparison_p50_ms" + churn);
  count("spill.datasets.compression_ratio",
        uploads.spill.bytes > 0
            ? double(uploads.spill.raw_bytes) / double(uploads.spill.bytes)
            : 0,
        "ratio", "comparison_p50_ms" + churn);
  count("trace.overhead_pct",
        100.0 * (requests.wall_s - baseline_s) / baseline_s, "%",
        "none: cost of tracing the request section");
  if (refused) return 1;

  for (const auto& [name, ms] : tracer.SelfTimeMsByName()) {
    report.counts["self_ms." + name] = ms;
  }
  report.counts["request_section_untraced_s"] = baseline_s;
  report.counts["request_section_traced_s"] = requests.wall_s;
  report.counts["spans"] = double(tracer.spans().size());
  report.provenance["workload"] = std::string(WorkloadName(args->workload));
  report.provenance["seed"] = std::to_string(args->seed);
  report.provenance["daemon_options"] =
      DaemonOptions(args->workload, args->workdir + "/<stack>");
  report.provenance["spill_fs"] = FilesystemType(
      std::filesystem::path(args->workdir).parent_path().string());
  report.provenance["upload_section_options"] =
      DaemonOptions(Workload::kUploadChurn, args->workdir + "/layers");
  if (!args->spans.empty()) {
    std::ofstream(args->spans) << tracer.ToJson();
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench
}  // namespace cyclerank

int main(int argc, char** argv) {
  return cyclerank::e2ebench::Main(argc, argv);
}
