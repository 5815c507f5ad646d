#ifndef CYCLERANK_E2EBENCH_WORKLOADS_H_
#define CYCLERANK_E2EBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "platform/task.h"

namespace cyclerank {
namespace e2ebench {

/// The benchmark's three traffic mixes (README.md says why each exists).
enum class Workload { kCompareCold, kExploreHot, kUploadChurn };

Result<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload workload);

/// Fewest comparisons and uploads a run may have: with fewer, fewer than
/// ten samples would lie beyond p99 and the percentile rule refuses it.
inline constexpr size_t kMinOperations = 1000;

/// Upload probes spread evenly through the streams of compare_cold and
/// explore_hot (see `Step`): 50 per tenth of a run, plenty for a p50.
inline constexpr size_t kProbeUploads = 500;

/// SplitMix64. The benchmark owns its generator so that its request
/// streams stay byte-identical when the repository's own RNG changes.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0. Lemire's multiply-shift, no libm.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// One task as the load generator submits it.
struct TaskText {
  std::string dataset;
  std::string algorithm;
  std::string params;  ///< ParamMap text, e.g. "source=17"
};

TaskSpec ToSpec(const TaskText& task);

/// One submitted query set.
struct Comparison {
  std::vector<TaskText> tasks;
};

QuerySet ToQuerySet(const Comparison& comparison);

/// One closed-loop step: an optional upload, then its comparisons one
/// after another. A step with an upload and no comparisons is an upload
/// probe: compare_cold and explore_hot upload nothing of their own, so
/// probes spread through their streams let every workload report upload
/// latency, sampled over the whole run (see README.md).
struct Step {
  int64_t upload = -1;  ///< upload index (see UploadName/UploadBody), or -1
  std::vector<Comparison> comparisons;

  bool IsProbe() const { return upload >= 0 && comparisons.empty(); }
};

/// A workload's whole seeded request stream. Set-up work
/// (`warmup_uploads`, then `warmup`, which also makes the daemon load every
/// catalog dataset the stream uses) runs before the clock starts; the
/// load generator's one connection then runs `steps` in a closed loop.
struct Plan {
  Workload workload = Workload::kCompareCold;
  uint64_t seed = 0;
  std::vector<int64_t> warmup_uploads;   ///< upload indices, in order
  std::vector<Comparison> warmup;        ///< comparisons run in set-up
  std::vector<Step> steps;

  size_t NumComparisons() const;
  size_t NumUploads() const;  ///< measured uploads, probes included
};

/// Operations for a run of `seconds`: a fixed count per second of the
/// workload's nominal rate (at least `kMinOperations`), so every commit
/// does the same work. An operation is a comparison (compare_cold,
/// explore_hot) or an upload iteration (upload_churn).
size_t OperationsFor(Workload workload, double seconds);

/// The request stream of `workload` for `seed` and a run of `seconds`.
/// Loads the catalog datasets it draws sources from.
Result<Plan> MakePlan(Workload workload, uint64_t seed, double seconds);

/// Every request of `plan` as text, one line each — what the
/// byte-identical-stream test compares.
std::string RenderPlan(const Plan& plan);

/// The daemon options of `workload`. Every knob is explicit, and none
/// uses a 0 that resolves to the host's core count. `spill_dir` is
/// substituted for the workload that spills.
std::string DaemonOptions(Workload workload, const std::string& spill_dir);

/// Name of upload `index` in the daemon.
std::string UploadName(int64_t index);

/// A seeded wiki-like numeric edge list (about 2,000 nodes and 25k edges,
/// 220 KB of text): preferential attachment with reciprocal links.
std::string UploadBody(uint64_t seed, int64_t index);

/// Node count of every `UploadBody`.
inline constexpr uint32_t kUploadNodes = 2000;

}  // namespace e2ebench
}  // namespace cyclerank

#endif  // CYCLERANK_E2EBENCH_WORKLOADS_H_
