// e2e_loadgen — drives a real cyclerankd over CYRQ1 with one workload's
// seeded request stream and prints the end-to-end metrics as JSON.
//
//   e2e_loadgen --workload compare_cold --seed 1 --seconds 12
//               --daemon .bench_build/cyclerankd --workdir .bench_out/run1
//
// The run length is a fixed operation count derived from `--seconds`
// (OperationsFor), so every commit does the same work. Set-up is repeated
// `kSetups` times (spawn a fresh daemon, connect, warm
// up) and timed each time; the last daemon serves the measured phase. The
// measured phase is a closed loop on one client connection, driven from the
// main thread: a second closed-loop client made each request's latency
// depend on how the two loops happened to overlap, which changed from run
// to run. Outputs are checked for correctness; a mismatch counts as a
// failed operation. run.py builds the binaries and calls this.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "daemon.h"
#include "net/client.h"
#include "reference.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace cyclerank {
namespace e2ebench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;

/// Every Nth step has its outputs recomputed in-process.
constexpr size_t kReferenceStride = 16;

/// Equal parts, by step count, of the measured phase. The p50s and the
/// throughput are taken in each part and the median over the parts is
/// reported, so a host stall episode that covers less than half the run
/// leaves them where they were.
constexpr size_t kParts = 10;

struct Args {
  Workload workload = Workload::kCompareCold;
  uint64_t seed = 0;
  double seconds = 0;
  std::string daemon;
  std::string workdir;
};

/// A result the daemon served, to be recomputed in-process after the run.
struct Sample {
  TaskText task;
  std::string bytes;
};

/// What one part of the measured phase observed.
struct PartLog {
  std::vector<double> comparison_ms;  ///< in completion order
  std::vector<double> upload_ms;
  double wall_s = 0;
  double probe_s = 0;  ///< of `wall_s`, time spent in upload probes
};

/// What the measured phase observed.
struct PhaseLog {
  std::vector<PartLog> parts;
  std::vector<Sample> samples;
};

std::string Key(const TaskText& task) {
  return task.dataset + "|" + task.algorithm + "|" + task.params;
}

/// Checks the shape of a comparison's results; returns false and logs a
/// failure when a task is missing, failed, or answers another task.
bool CheckResults(const Comparison& comparison,
                  const Result<std::vector<TaskResult>>& results,
                  Report* report) {
  if (!results.ok()) {
    report->Fail("GetResults: " + results.status().ToString());
    return false;
  }
  if (results->size() != comparison.tasks.size()) {
    report->Fail("comparison returned " + std::to_string(results->size()) +
                 " results for " + std::to_string(comparison.tasks.size()) +
                 " tasks");
    return false;
  }
  for (size_t i = 0; i < results->size(); ++i) {
    const TaskResult& r = (*results)[i];
    const TaskText& t = comparison.tasks[i];
    if (!r.status.ok() || r.spec.dataset != t.dataset ||
        r.spec.algorithm != t.algorithm) {
      report->Fail(Key(t) + ": " + r.status.ToString());
      return false;
    }
  }
  return true;
}

/// Submit, wait, fetch: one comparison round trip.
Result<std::vector<TaskResult>> RunComparison(net::NetClient* client,
                                              const QuerySet& qs) {
  CYCLERANK_ASSIGN_OR_RETURN(std::string id, client->SubmitQuerySet(qs));
  CYCLERANK_ASSIGN_OR_RETURN(bool done, client->WaitForCompletion(id, 120.0));
  if (!done) return Status::DeadlineExceeded("comparison " + id);
  return client->GetResults(id);
}

/// Everything set-up leaves behind for the measured phase.
struct Deployment {
  std::unique_ptr<Daemon> daemon;
  net::NetClient client;
  /// explore_hot: canonical bytes of each task's first serve.
  std::map<std::string, std::string> first_serves;
};

/// Spawns a daemon and runs the plan's set-up: uploads, then warm-up
/// comparisons (which also materialise every catalog dataset used).
Status SetUp(const Args& args, const Plan& plan, const std::string& spill_dir,
             Deployment* d) {
  CYCLERANK_ASSIGN_OR_RETURN(
      d->daemon,
      Daemon::Spawn(args.daemon, DaemonOptions(plan.workload, spill_dir)));
  net::NetClient& client = d->client;
  CYCLERANK_RETURN_NOT_OK(client.Connect("127.0.0.1", d->daemon->port()));
  for (int64_t upload : plan.warmup_uploads) {
    CYCLERANK_RETURN_NOT_OK(client.UploadDataset(
        UploadName(upload), UploadBody(plan.seed, upload)));
  }
  for (const Comparison& comparison : plan.warmup) {
    auto results = RunComparison(&client, ToQuerySet(comparison));
    Report report;
    if (!CheckResults(comparison, results, &report)) {
      return Status::Internal("warm-up: " + report.errors.front());
    }
    for (size_t i = 0; i < results->size(); ++i) {
      d->first_serves.emplace(Key(comparison.tasks[i]),
                              CanonicalBytes((*results)[i]));
    }
  }
  return Status::OK();
}

/// The measured closed loop over the plan's steps.
void RunPhase(const Plan& plan, net::NetClient* client,
              const std::map<std::string, std::string>& first_serves,
              PhaseLog* log, Report* report) {
  log->parts.resize(kParts);
  size_t current = 0;
  WallTimer part_timer;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const Step& step = plan.steps[s];
    const bool sampled = s % kReferenceStride == 0;
    const size_t p = s * kParts / plan.steps.size();
    if (p != current) {
      log->parts[current].wall_s = part_timer.ElapsedSeconds();
      part_timer.Restart();
      current = p;
    }
    PartLog& part = log->parts[p];
    if (step.upload >= 0) {
      const std::string body = UploadBody(plan.seed, step.upload);
      ++report->attempted;
      WallTimer timer;
      const Status st = client->UploadDataset(UploadName(step.upload), body);
      const double seconds = timer.ElapsedSeconds();
      part.upload_ms.push_back(seconds * 1e3);
      if (step.IsProbe()) part.probe_s += seconds;
      if (!st.ok()) {
        report->Fail("upload: " + st.ToString());
        continue;  // its comparisons would fail too
      }
    }
    for (const Comparison& comparison : step.comparisons) {
      const QuerySet qs = ToQuerySet(comparison);
      ++report->attempted;
      WallTimer timer;
      auto results = RunComparison(client, qs);
      part.comparison_ms.push_back(timer.ElapsedSeconds() * 1e3);
      if (!CheckResults(comparison, results, report)) continue;
      for (size_t i = 0; i < results->size(); ++i) {
        const TaskText& task = comparison.tasks[i];
        if (plan.workload == Workload::kExploreHot) {
          auto first = first_serves.find(Key(task));
          if (first == first_serves.end() ||
              first->second != CanonicalBytes((*results)[i])) {
            report->Fail(Key(task) + ": differs from its first serve");
            break;
          }
        } else if (sampled) {
          log->samples.push_back({task, CanonicalBytes((*results)[i])});
        }
      }
    }
  }
  log->parts[current].wall_s = part_timer.ElapsedSeconds();
}

/// Recomputes the sampled results in-process and compares bytes.
void CheckSamples(const Plan& plan, const std::vector<Sample>& samples,
                  Report* report) {
  std::map<std::string, GraphPtr> graphs;
  for (const Sample& sample : samples) {
    GraphPtr& graph = graphs[sample.task.dataset];
    if (graph == nullptr) {
      auto loaded = LoadStreamGraph(plan.seed, sample.task.dataset);
      if (!loaded.ok()) {
        report->Fail("reference graph: " + loaded.status().ToString());
        continue;
      }
      graph = *loaded;
    }
    auto expected = ComputeReference(*graph, sample.task);
    if (!expected.ok()) {
      report->Fail("reference run: " + expected.status().ToString());
    } else if (CanonicalBytes(*expected) != sample.bytes) {
      report->Fail(Key(sample.task) + ": differs from in-process Run");
    }
  }
}

/// The machine's CPU time so far, and the part of it the hypervisor ran
/// other guests instead (steal), in clock ticks from /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

Status RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return ec ? Status::IOError("e2ebench: remove " + path) : Status::OK();
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
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_seed || args.daemon.empty() ||
      args.workdir.empty() || args.seconds <= 0) {
    return Status::InvalidArgument(
        "usage: e2e_loadgen --workload W --seed N --seconds S "
        "--daemon PATH --workdir DIR");
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
  std::filesystem::create_directories(args->workdir);
  const std::string spill_dir =
      std::filesystem::absolute(args->workdir + "/spill").string();

  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (size_t s = 0; s < kSetups; ++s) {
    if (d != nullptr) {
      d.reset();  // closes the client, stops the daemon
      if (!RemoveTree(spill_dir).ok()) return 1;
    }
    d = std::make_unique<Deployment>();
    WallTimer timer;
    const Status st = SetUp(*args, *plan, spill_dir, d.get());
    setup_s.push_back(timer.ElapsedSeconds());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  PhaseLog log;
  const CpuTicks ticks_before = ReadCpuTicks();
  WallTimer phase;
  RunPhase(*plan, &d->client, d->first_serves, &log, &report);
  const double phase_s = phase.ElapsedSeconds();
  const CpuTicks ticks_after = ReadCpuTicks();
  auto rss = d->daemon->PeakRssMiB();
  d->client.Close();
  // The daemon's graceful drain (it flushes the spill tier) overlaps the
  // reference checks, which need nothing from it.
  Status stopped;
  std::thread stopper([&] { stopped = d->daemon->Stop(); });

  // Whole-run samples in order, and each part's p50s and throughput.
  // Upload probes are not part of the comparison stream's throughput.
  std::vector<double> comparison_ms, upload_ms;
  double probe_s = 0;
  std::vector<Result<double>> part_p50, part_upload_p50;
  std::vector<double> part_rate;
  for (const PartLog& part : log.parts) {
    comparison_ms.insert(comparison_ms.end(), part.comparison_ms.begin(),
                         part.comparison_ms.end());
    upload_ms.insert(upload_ms.end(), part.upload_ms.begin(),
                     part.upload_ms.end());
    probe_s += part.probe_s;
    part_p50.push_back(Percentile(part.comparison_ms, 5000));
    part_upload_p50.push_back(Percentile(part.upload_ms, 5000));
    part_rate.push_back(part.comparison_ms.size() /
                        (part.wall_s - part.probe_s));
  }
  if (!rss.ok()) report.Fail(rss.status().ToString());
  CheckSamples(*plan, log.samples, &report);
  stopper.join();
  if (!stopped.ok()) report.Fail(stopped.ToString());

  auto put = [&report](const std::string& name, double value,
                       const std::string& unit) {
    report.metrics[name] = {value, unit, ""};
  };
  put("comparisons_per_s", Median(part_rate), "1/s");
  put("setup_s", Median(setup_s), "s");
  put("peak_rss_mb", rss.value_or(0.0), "MiB");
  const std::pair<std::string, Result<double>> percentiles[] = {
      {"comparison_p50_ms", MedianOf(part_p50)},
      {"upload_p50_ms", MedianOf(part_upload_p50)}};
  for (const auto& [name, p] : percentiles) {
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   p.status().ToString().c_str());
      return 1;
    }
    put(name, *p, "ms");
  }
  // The p99s are not benchmark metrics: on a shared 4-core VM a few
  // percent of host steal moves them by more than any allowed bound
  // between runs (README.md). Kept for humans.
  if (auto p99 = WindowedPercentile(comparison_ms, 9900); p99.ok()) {
    report.counts["comparison_p99_ms"] = *p99;
  }
  if (auto p99 = Percentile(comparison_ms, 9900); p99.ok()) {
    report.counts["comparison_p99_whole_run_ms"] = *p99;
  }
  if (auto p99 = Percentile(upload_ms, 9900); p99.ok()) {
    report.counts["upload_p99_ms"] = *p99;
  }

  report.counts["comparisons"] = static_cast<double>(comparison_ms.size());
  report.counts["uploads"] = static_cast<double>(upload_ms.size());
  report.counts["reference_checks"] = static_cast<double>(log.samples.size());
  report.counts["phase_s"] = phase_s;
  report.counts["probe_s"] = probe_s;
  // The whole-run figures, beside the medians over parts.
  report.counts["comparisons_per_s_whole_run"] =
      comparison_ms.size() / (phase_s - probe_s);
  if (auto p50 = Percentile(comparison_ms, 5000); p50.ok()) {
    report.counts["comparison_p50_whole_run_ms"] = *p50;
  }
  // Host contention during the measured phase: when other guests take the
  // machine's cores, every timing of the run moves (README.md).
  if (ticks_after.total > ticks_before.total) {
    report.counts["host_steal_pct"] =
        100.0 * double(ticks_after.steal - ticks_before.steal) /
        double(ticks_after.total - ticks_before.total);
  }
  for (size_t s = 0; s < setup_s.size(); ++s) {
    report.counts["setup_s." + std::to_string(s)] = setup_s[s];
  }
  report.provenance["workload"] = std::string(WorkloadName(args->workload));
  report.provenance["seed"] = std::to_string(args->seed);
  report.provenance["operations"] =
      std::to_string(OperationsFor(args->workload, args->seconds));
  report.provenance["daemon_options"] =
      DaemonOptions(args->workload, spill_dir);
  report.provenance["spill_fs"] =
      args->workload == Workload::kUploadChurn
          ? FilesystemType(args->workdir)
          : "none (no spill_dir)";
  report.provenance["connections"] = "1";
  if (!RemoveTree(spill_dir).ok()) report.Fail("could not remove spill dir");
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench
}  // namespace cyclerank

int main(int argc, char** argv) {
  return cyclerank::e2ebench::Main(argc, argv);
}
