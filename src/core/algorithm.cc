#include "core/algorithm.h"

#include "common/strings.h"
#include "core/cheirank.h"
#include "core/cyclerank.h"
#include "core/forward_push.h"
#include "core/monte_carlo.h"
#include "core/pagerank.h"
#include "core/twodrank.h"

namespace cyclerank {

std::string_view AlgorithmKindToString(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kPageRank:
      return "pagerank";
    case AlgorithmKind::kPersonalizedPageRank:
      return "pers_pagerank";
    case AlgorithmKind::kCheiRank:
      return "cheirank";
    case AlgorithmKind::kPersonalizedCheiRank:
      return "pers_cheirank";
    case AlgorithmKind::k2DRank:
      return "2drank";
    case AlgorithmKind::kPersonalized2DRank:
      return "pers_2drank";
    case AlgorithmKind::kCycleRank:
      return "cyclerank";
    case AlgorithmKind::kPprForwardPush:
      return "ppr_push";
    case AlgorithmKind::kPprMonteCarlo:
      return "ppr_montecarlo";
  }
  return "?";
}

Result<AlgorithmKind> AlgorithmKindFromString(std::string_view name) {
  const std::string lower = AsciiToLower(StripAsciiWhitespace(name));
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    if (lower == AlgorithmKindToString(kind)) return kind;
  }
  // Friendly aliases matching the paper's phrasing.
  if (lower == "ppr" || lower == "personalized pagerank" ||
      lower == "pers. pagerank") {
    return AlgorithmKind::kPersonalizedPageRank;
  }
  if (lower == "pr") return AlgorithmKind::kPageRank;
  if (lower == "cr") return AlgorithmKind::kCycleRank;
  return Status::NotFound("unknown algorithm '" + std::string(name) + "'");
}

const std::vector<AlgorithmKind>& AllAlgorithmKinds() {
  static const std::vector<AlgorithmKind>* kinds =
      new std::vector<AlgorithmKind>{
          AlgorithmKind::kPageRank,
          AlgorithmKind::kPersonalizedPageRank,
          AlgorithmKind::kCheiRank,
          AlgorithmKind::kPersonalizedCheiRank,
          AlgorithmKind::k2DRank,
          AlgorithmKind::kPersonalized2DRank,
          AlgorithmKind::kCycleRank,
          AlgorithmKind::kPprForwardPush,
          AlgorithmKind::kPprMonteCarlo,
      };
  return *kinds;
}

namespace {

Status CheckReference(const Graph& g, const AlgorithmRequest& request,
                      std::string_view algo) {
  if (request.reference == kInvalidNode) {
    return Status::InvalidArgument(std::string(algo) +
                                   ": a reference node is required");
  }
  if (!g.IsValidNode(request.reference)) {
    return Status::OutOfRange(std::string(algo) + ": reference node " +
                              std::to_string(request.reference) +
                              " out of range");
  }
  return Status::OK();
}

PageRankOptions ToPageRankOptions(const AlgorithmRequest& request) {
  PageRankOptions options;
  options.alpha = request.alpha;
  options.tolerance = request.tolerance;
  options.max_iterations = request.max_iterations;
  options.num_threads = request.num_threads;
  return options;
}

RankingOptions ToRankingOptions(const AlgorithmRequest& request,
                                bool drop_zeros) {
  RankingOptions options;
  options.top_k = request.top_k;
  options.drop_zeros = drop_zeros;
  return options;
}

class PageRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "pagerank"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_ASSIGN_OR_RETURN(PageRankScores pr,
                               ComputePageRank(g, ToPageRankOptions(request)));
    return ScoresToRankedList(pr.scores,
                              ToRankingOptions(request, /*drop_zeros=*/false));
  }
};

class PersonalizedPageRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "pers_pagerank"; }
  bool requires_reference() const override { return true; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_RETURN_NOT_OK(CheckReference(g, request, name()));
    CYCLERANK_ASSIGN_OR_RETURN(
        PageRankScores pr,
        ComputePersonalizedPageRank(g, request.reference,
                                    ToPageRankOptions(request)));
    return ScoresToRankedList(pr.scores,
                              ToRankingOptions(request, /*drop_zeros=*/true));
  }
};

class CheiRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "cheirank"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_ASSIGN_OR_RETURN(PageRankScores scores,
                               ComputeCheiRank(g, ToPageRankOptions(request)));
    return ScoresToRankedList(scores.scores,
                              ToRankingOptions(request, /*drop_zeros=*/false));
  }
};

class PersonalizedCheiRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "pers_cheirank"; }
  bool requires_reference() const override { return true; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_RETURN_NOT_OK(CheckReference(g, request, name()));
    CYCLERANK_ASSIGN_OR_RETURN(
        PageRankScores scores,
        ComputePersonalizedCheiRank(g, request.reference,
                                    ToPageRankOptions(request)));
    return ScoresToRankedList(scores.scores,
                              ToRankingOptions(request, /*drop_zeros=*/true));
  }
};

class TwoDRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "2drank"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return false; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_ASSIGN_OR_RETURN(TwoDRankResult rank,
                               Compute2DRank(g, ToPageRankOptions(request)));
    return OrderToRankedList(rank.order, request.top_k);
  }
};

class Personalized2DRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "pers_2drank"; }
  bool requires_reference() const override { return true; }
  bool produces_scores() const override { return false; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_RETURN_NOT_OK(CheckReference(g, request, name()));
    CYCLERANK_ASSIGN_OR_RETURN(
        TwoDRankResult rank,
        ComputePersonalized2DRank(g, request.reference,
                                  ToPageRankOptions(request)));
    return OrderToRankedList(rank.order, request.top_k);
  }
};

class CycleRankAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "cyclerank"; }
  bool requires_reference() const override { return true; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_RETURN_NOT_OK(CheckReference(g, request, name()));
    CycleRankOptions options;
    options.max_cycle_length = request.max_cycle_length;
    options.scoring = request.scoring;
    options.num_threads = request.num_threads;
    CYCLERANK_ASSIGN_OR_RETURN(
        CycleRankScores scores,
        ComputeCycleRank(g, request.reference, options));
    return ScoresToRankedList(scores.scores,
                              ToRankingOptions(request, /*drop_zeros=*/true));
  }
};

class ForwardPushAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "ppr_push"; }
  bool requires_reference() const override { return true; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_RETURN_NOT_OK(CheckReference(g, request, name()));
    ForwardPushOptions options;
    options.alpha = request.alpha;
    options.epsilon = request.epsilon;
    options.num_threads = request.num_threads;
    CYCLERANK_ASSIGN_OR_RETURN(
        ForwardPushScores scores,
        ComputeForwardPushPpr(g, request.reference, options));
    return ScoresToRankedList(scores.scores,
                              ToRankingOptions(request, /*drop_zeros=*/true));
  }
};

class MonteCarloAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "ppr_montecarlo"; }
  bool requires_reference() const override { return true; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    CYCLERANK_RETURN_NOT_OK(CheckReference(g, request, name()));
    MonteCarloOptions options;
    options.alpha = request.alpha;
    options.num_walks = request.num_walks;
    options.seed = request.seed;
    options.num_threads = request.num_threads;
    CYCLERANK_ASSIGN_OR_RETURN(
        MonteCarloScores scores,
        ComputeMonteCarloPpr(g, request.reference, options));
    return ScoresToRankedList(scores.scores,
                              ToRankingOptions(request, /*drop_zeros=*/true));
  }
};

}  // namespace

std::unique_ptr<RelevanceAlgorithm> MakeAlgorithm(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kPageRank:
      return std::make_unique<PageRankAlgorithm>();
    case AlgorithmKind::kPersonalizedPageRank:
      return std::make_unique<PersonalizedPageRankAlgorithm>();
    case AlgorithmKind::kCheiRank:
      return std::make_unique<CheiRankAlgorithm>();
    case AlgorithmKind::kPersonalizedCheiRank:
      return std::make_unique<PersonalizedCheiRankAlgorithm>();
    case AlgorithmKind::k2DRank:
      return std::make_unique<TwoDRankAlgorithm>();
    case AlgorithmKind::kPersonalized2DRank:
      return std::make_unique<Personalized2DRankAlgorithm>();
    case AlgorithmKind::kCycleRank:
      return std::make_unique<CycleRankAlgorithm>();
    case AlgorithmKind::kPprForwardPush:
      return std::make_unique<ForwardPushAlgorithm>();
    case AlgorithmKind::kPprMonteCarlo:
      return std::make_unique<MonteCarloAlgorithm>();
  }
  return nullptr;
}

}  // namespace cyclerank
