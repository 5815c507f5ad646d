#ifndef CYCLERANK_CORE_SCORING_H_
#define CYCLERANK_CORE_SCORING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace cyclerank {

/// CycleRank scoring functions σ(n) weighting a cycle of length n
/// (paper Eq. (1): "σ(n) is the general form of a scoring function").
/// The paper's default — experimentally best on Wikipedia — is the
/// exponential damping σ(n) = e^-n; the CycleRank journal paper also
/// evaluates the reciprocal-linear, reciprocal-quadratic and constant
/// variants, which we ship for the ablation bench
/// (`bench/ablation_scoring.cc`).
enum class ScoringFunction {
  kExponential,  ///< σ(n) = e^-n (paper default)
  kLinear,       ///< σ(n) = 1/n
  kQuadratic,    ///< σ(n) = 1/n²
  kConstant,     ///< σ(n) = 1
};

/// Evaluates σ(n) for a cycle length `n >= 1`.
double Sigma(ScoringFunction fn, uint32_t n);

/// Canonical names: "exp", "lin", "quad", "const".
std::string_view ScoringFunctionToString(ScoringFunction fn);

/// Parses a scoring-function name (also accepts the long forms
/// "exponential", "linear", "quadratic", "constant").
Result<ScoringFunction> ScoringFunctionFromString(std::string_view name);

}  // namespace cyclerank

#endif  // CYCLERANK_CORE_SCORING_H_
