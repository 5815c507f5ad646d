#include "platform/params.h"

#include <limits>
#include <vector>

#include "common/strings.h"
#include "core/monte_carlo.h"
#include "core/scoring.h"

namespace cyclerank {

Result<ParamMap> ParamMap::Parse(std::string_view text) {
  ParamMap out;
  text = StripAsciiWhitespace(text);
  if (text.empty()) return out;
  // Split on commas and semicolons.
  std::vector<std::string_view> pairs;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',' || text[i] == ';') {
      pairs.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  for (std::string_view pair : pairs) {
    pair = StripAsciiWhitespace(pair);
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError("params: expected key=value, got '" +
                                std::string(pair) + "'");
    }
    const std::string key =
        AsciiToLower(StripAsciiWhitespace(pair.substr(0, eq)));
    const std::string_view value = StripAsciiWhitespace(pair.substr(eq + 1));
    if (key.empty()) {
      return Status::ParseError("params: empty key in '" + std::string(pair) +
                                "'");
    }
    if (out.Has(key)) {
      return Status::ParseError("params: duplicate key '" + key + "'");
    }
    out.Set(key, value);
  }
  return out;
}

void ParamMap::Set(std::string_view key, std::string_view value) {
  values_[AsciiToLower(key)] = std::string(value);
}

std::optional<std::string> ParamMap::Get(std::string_view key) const {
  auto it = values_.find(AsciiToLower(key));
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool ParamMap::Has(std::string_view key) const {
  return values_.count(AsciiToLower(key)) != 0;
}

Result<double> ParamMap::GetDouble(std::string_view key,
                                   double fallback) const {
  auto value = Get(key);
  if (!value.has_value()) return fallback;
  return ParseDouble(*value);
}

Result<int64_t> ParamMap::GetInt(std::string_view key,
                                 int64_t fallback) const {
  auto value = Get(key);
  if (!value.has_value()) return fallback;
  return ParseInt64(*value);
}

std::string ParamMap::GetString(std::string_view key,
                                std::string fallback) const {
  auto value = Get(key);
  return value.has_value() ? *value : fallback;
}

std::vector<std::string> ParamMap::Keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::string ParamMap::ToString() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    if (!out.empty()) out += ", ";
    out += key + "=" + value;
  }
  return out;
}

namespace {

/// %-escapes the fingerprint separators so the encoding stays injective.
std::string EscapeFingerprintToken(std::string_view token) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(token.size());
  for (const char c : token) {
    if (c == '%' || c == '&' || c == '=') {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string DatasetFingerprintPrefix(const std::string& dataset) {
  return "dataset=" + EscapeFingerprintToken(dataset) + "&";
}

std::string TaskFingerprint(const std::string& dataset, uint64_t generation,
                            const std::string& algorithm,
                            const ParamMap& params) {
  // Collapse aliased keys exactly the way BuildRequest resolves them, so two
  // spellings of the same computation share one fingerprint. Aliased and
  // execution-only keys are re-added (or dropped) explicitly below.
  ParamMap canonical;
  for (const std::string& key : params.Keys()) {
    if (key == "threads" || key == "shards" || key == "deadline_ms" ||
        key == "source" || key == "reference" || key == "r" || key == "k" ||
        key == "maxloop" || key == "sigma" || key == "scoring") {
      continue;
    }
    canonical.Set(key, params.GetString(key, ""));
  }
  // Reference node: first non-empty of source/reference/r.
  std::string source = params.GetString("source", "");
  if (source.empty()) source = params.GetString("reference", "");
  if (source.empty()) source = params.GetString("r", "");
  if (!source.empty()) canonical.Set("source", source);
  // Cycle length: BuildRequest reads k, then maxloop — maxloop wins.
  if (params.Has("maxloop")) {
    canonical.Set("k", params.GetString("maxloop", ""));
  } else if (params.Has("k")) {
    canonical.Set("k", params.GetString("k", ""));
  }
  // Scoring function: a non-empty sigma shadows scoring.
  std::string sigma = params.GetString("sigma", "");
  if (sigma.empty()) sigma = params.GetString("scoring", "");
  if (!sigma.empty()) canonical.Set("sigma", sigma);

  // Built-in aliases resolve to the canonical registry name. Unknown
  // (custom-registered) names stay verbatim: the registry is
  // case-sensitive for them, so lowercasing would let two distinct
  // algorithms differing only in case cross-serve each other's results.
  std::string canonical_algorithm = algorithm;
  if (auto kind = AlgorithmKindFromString(algorithm); kind.ok()) {
    canonical_algorithm = std::string(AlgorithmKindToString(*kind));
  }

  // "gen" sits in a fixed structural slot (between dataset and algorithm),
  // so it can never collide with a user parameter of the same name — those
  // sort into the params section after "algorithm".
  std::string out = DatasetFingerprintPrefix(dataset) +
                    "gen=" + std::to_string(generation) +
                    "&algorithm=" + EscapeFingerprintToken(canonical_algorithm);
  for (const std::string& key : canonical.Keys()) {
    out += '&';
    out += EscapeFingerprintToken(key);
    out += '=';
    out += EscapeFingerprintToken(canonical.GetString(key, ""));
  }
  return out;
}

namespace {

/// Reads the integer `key` (`fallback` when absent) and rejects anything
/// outside [0, max] before the caller narrows it to its field's type.
Result<int64_t> GetIntInRange(const ParamMap& params, std::string_view key,
                              int64_t fallback, int64_t max) {
  CYCLERANK_ASSIGN_OR_RETURN(const int64_t value, params.GetInt(key, fallback));
  if (value < 0 || value > max) {
    return Status::InvalidArgument("params: " + std::string(key) +
                                   " must be in [0, " + std::to_string(max) +
                                   "]");
  }
  return value;
}

constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();

}  // namespace

Result<AlgorithmRequest> BuildRequest(const Graph& graph,
                                      const ParamMap& params) {
  static const char* kKnownKeys[] = {
      "source",  "reference", "r",       "alpha",     "k",
      "maxloop", "sigma",     "scoring", "tolerance", "max_iterations",
      "epsilon", "walks",     "seed",    "top_k",     "threads",
      "shards",  "deadline_ms"};
  AlgorithmRequest request;

  // Reject unknown keys early: a typo like "alhpa=0.3" silently running
  // with defaults would invalidate an experiment.
  for (const std::string& key : params.Keys()) {
    bool known = false;
    for (const char* candidate : kKnownKeys) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("params: unknown key '" + key + "'");
    }
  }

  // Reference node: label first, numeric id as fallback.
  std::string ref_label = params.GetString("source", "");
  if (ref_label.empty()) ref_label = params.GetString("reference", "");
  if (ref_label.empty()) ref_label = params.GetString("r", "");
  if (!ref_label.empty()) {
    NodeId ref = graph.FindNode(ref_label);
    if (ref == kInvalidNode) {
      auto numeric = ParseInt64(ref_label);
      if (numeric.ok() && *numeric >= 0 && *numeric < graph.num_nodes()) {
        ref = static_cast<NodeId>(*numeric);
      } else {
        return Status::NotFound("reference node '" + ref_label +
                                "' not in graph");
      }
    }
    request.reference = ref;
  }

  CYCLERANK_ASSIGN_OR_RETURN(request.alpha,
                             params.GetDouble("alpha", request.alpha));

  int64_t k = request.max_cycle_length;
  CYCLERANK_ASSIGN_OR_RETURN(k, GetIntInRange(params, "k", k, kMaxUint32));
  CYCLERANK_ASSIGN_OR_RETURN(k,
                             GetIntInRange(params, "maxloop", k, kMaxUint32));
  request.max_cycle_length = static_cast<uint32_t>(k);

  std::string sigma = params.GetString("sigma", "");
  if (sigma.empty()) sigma = params.GetString("scoring", "");
  if (!sigma.empty()) {
    CYCLERANK_ASSIGN_OR_RETURN(request.scoring,
                               ScoringFunctionFromString(sigma));
  }

  CYCLERANK_ASSIGN_OR_RETURN(request.tolerance,
                             params.GetDouble("tolerance", request.tolerance));
  CYCLERANK_ASSIGN_OR_RETURN(
      const int64_t max_iter,
      GetIntInRange(params, "max_iterations", request.max_iterations,
                    kMaxUint32));
  request.max_iterations = static_cast<uint32_t>(max_iter);

  CYCLERANK_ASSIGN_OR_RETURN(request.epsilon,
                             params.GetDouble("epsilon", request.epsilon));
  // The Monte-Carlo kernel's own cap: it bounds the per-call shard table
  // (one RNG per 16384 walks) that is built before any walk runs.
  CYCLERANK_ASSIGN_OR_RETURN(
      const int64_t walks,
      GetIntInRange(params, "walks", static_cast<int64_t>(request.num_walks),
                    static_cast<int64_t>(kMaxMonteCarloWalks)));
  request.num_walks = static_cast<uint64_t>(walks);

  int64_t seed = static_cast<int64_t>(request.seed);
  CYCLERANK_ASSIGN_OR_RETURN(seed, params.GetInt("seed", seed));
  request.seed = static_cast<uint64_t>(seed);

  int64_t top_k = static_cast<int64_t>(request.top_k);
  CYCLERANK_ASSIGN_OR_RETURN(top_k, params.GetInt("top_k", top_k));
  if (top_k < 0) return Status::InvalidArgument("params: top_k must be >= 0");
  request.top_k = static_cast<size_t>(top_k);

  CYCLERANK_ASSIGN_OR_RETURN(
      const int64_t threads,
      GetIntInRange(params, "threads", request.num_threads, kMaxUint32));
  request.num_threads = static_cast<uint32_t>(threads);

  // Execution-only, like threads: 0 = monolithic (or the platform default).
  // Capped well below the node-count scale — a partition into 2^16 ranges
  // already exceeds any sensible locality win.
  CYCLERANK_ASSIGN_OR_RETURN(
      const int64_t shards,
      GetIntInRange(params, "shards", request.num_shards,
                    (int64_t{1} << 16) - 1));
  request.num_shards = static_cast<uint32_t>(shards);

  return request;
}

}  // namespace cyclerank
