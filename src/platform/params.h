#ifndef CYCLERANK_PLATFORM_PARAMS_H_
#define CYCLERANK_PLATFORM_PARAMS_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/algorithm.h"
#include "graph/graph.h"

namespace cyclerank {

/// String key/value parameters of a task, as entered in the Web UI's
/// parameter panel (paper §IV-C and Fig. 2, e.g. "k = 3, sigma = exp" or
/// "alpha = 0.3"). Keys are case-insensitive and stored lowercase.
class ParamMap {
 public:
  ParamMap() = default;

  /// Parses "key=value" pairs separated by commas or semicolons, e.g.
  /// "k=3, sigma=exp, source=Fake news". Whitespace around tokens is
  /// ignored; values may contain spaces. Duplicate keys are rejected.
  static Result<ParamMap> Parse(std::string_view text);

  /// Sets `key` (lowercased) to `value`, overwriting.
  void Set(std::string_view key, std::string_view value);

  /// Raw lookup.
  std::optional<std::string> Get(std::string_view key) const;
  bool Has(std::string_view key) const;

  /// Typed lookups: return `fallback` when absent, an error when present
  /// but malformed.
  Result<double> GetDouble(std::string_view key, double fallback) const;
  Result<int64_t> GetInt(std::string_view key, int64_t fallback) const;
  std::string GetString(std::string_view key, std::string fallback) const;

  /// All keys, sorted (lowercase).
  std::vector<std::string> Keys() const;

  /// Canonical "k=v, k=v" rendering (sorted by key).
  std::string ToString() const;

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  friend bool operator==(const ParamMap& a, const ParamMap& b) {
    return a.values_ == b.values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Translates UI-level parameters into a typed `AlgorithmRequest` for
/// `graph`. Recognized keys:
///   source / reference / r  — reference node label (or numeric id)
///   alpha                   — damping factor
///   k / maxloop             — CycleRank maximum cycle length
///   sigma / scoring         — scoring function name (exp/lin/quad/const)
///   tolerance, max_iterations, epsilon, walks, seed, top_k
/// Execution-only keys (accepted here, never forwarded to kernels):
///   threads                 — kernel thread budget
///   deadline_ms             — scheduler deadline (see Scheduler::Enqueue)
/// Unknown keys are rejected (catches typos in task specs).
Result<AlgorithmRequest> BuildRequest(const Graph& graph,
                                      const ParamMap& params);

/// Canonical fingerprint of the computation `(dataset, algorithm, params)`,
/// used as the key of the platform's result cache and single-flight request
/// dedup (platform/result_cache.h). Two specs share a fingerprint exactly
/// when `BuildRequest` would resolve them to the same kernel invocation:
///   - parameter order and key case never matter (`ParamMap` is sorted and
///     lowercased);
///   - algorithm aliases resolve to the canonical registry name ("ppr" and
///     "pers_pagerank" fingerprint identically);
///   - aliased parameter keys collapse the way `BuildRequest` resolves them
///     (source/reference/r; maxloop overrides k; sigma shadows scoring);
///   - execution-only knobs (`threads=`, `deadline_ms=`) are excluded:
///     every kernel is bit-identical at any thread count, and a deadline
///     changes whether the task runs, never what it computes — so neither
///     may split (or collide) cache entries;
///   - dataset names, keys and values are %-escaped, so distinct specs can
///     never collide.
/// Values are compared textually: "0.85" and ".85" fingerprint differently,
/// which costs a cache miss but never a wrong hit.
///
/// `generation` is the dataset's binding generation
/// (`Datastore::DatasetCacheGeneration`): uploaded names can be re-bound to new
/// content after eviction, and the generation keeps the two bindings'
/// computations from ever sharing a fingerprint — neither in the result
/// cache nor in single-flight coalescing. Immutable catalog datasets use
/// 0; a name that currently resolves to nothing gets no fingerprint at
/// all (the gateway enqueues it un-keyed).
std::string TaskFingerprint(const std::string& dataset, uint64_t generation,
                            const std::string& algorithm,
                            const ParamMap& params);

/// `TaskFingerprint` for an immutable binding (generation 0).
inline std::string TaskFingerprint(const std::string& dataset,
                                   const std::string& algorithm,
                                   const ParamMap& params) {
  return TaskFingerprint(dataset, 0, algorithm, params);
}

/// The prefix every `TaskFingerprint` of `dataset` starts with (and, thanks
/// to %-escaping, no fingerprint of any other dataset does). The datastore
/// uses it to invalidate cached results when a dataset name is re-bound to
/// new content (upload after eviction).
std::string DatasetFingerprintPrefix(const std::string& dataset);

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_PARAMS_H_
