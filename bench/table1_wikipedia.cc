// Experiment T1 — reproduces Table I of the paper:
//   "Top-5 articles with the highest PR (α=0.85), CR (K=3, σ=e^-n) and
//    PPR (α=0.3) scores computed on the 2018-03-01 English Wikipedia
//    snapshot. The reference articles for CR and PPR are 'Freddie Mercury'
//    and 'Pasta'."
// Substrate: the embedded EnwikiMini() corpus (src/datasets/corpus.h). The
// printed rows are laid out for side-by-side comparison with the paper's
// Table I.

#include <cstdio>
#include <string>

#include "common/timer.h"
#include "core/cyclerank.h"
#include "core/pagerank.h"
#include "core/ranking.h"
#include "datasets/corpus.h"
#include "eval/comparison.h"

namespace cyclerank {
namespace {

int RunTable1() {
  const Result<Graph> graph = EnwikiMini();
  if (!graph.ok()) {
    std::fprintf(stderr, "corpus: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Graph& g = graph.value();
  std::printf(
      "Table I: top-5 by PR (a=0.85), CR (K=3, sigma=e^-n), PPR (a=0.3)\n"
      "Dataset: enwiki-mini-2018 (%u nodes, %llu edges; stand-in for the\n"
      "2018-03-01 English Wikipedia snapshot)\n\n",
      g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));

  WallTimer timer;

  PageRankOptions pr_options;
  pr_options.alpha = 0.85;
  const auto pr = ComputePageRank(g, pr_options);
  if (!pr.ok()) {
    std::fprintf(stderr, "pagerank: %s\n", pr.status().ToString().c_str());
    return 1;
  }

  std::vector<ComparisonColumn> columns;
  columns.push_back({"PageRank (a=.85)", ScoresToRankedList(pr->scores)});

  for (const char* ref_label : {"Freddie Mercury", "Pasta"}) {
    const NodeId ref = g.FindNode(ref_label);
    CycleRankOptions cr_options;
    cr_options.max_cycle_length = 3;
    cr_options.scoring = ScoringFunction::kExponential;
    const auto cr = ComputeCycleRank(g, ref, cr_options);
    PageRankOptions ppr_options;
    ppr_options.alpha = 0.3;
    const auto ppr = ComputePersonalizedPageRank(g, ref, ppr_options);
    if (!cr.ok() || !ppr.ok()) {
      std::fprintf(stderr, "%s: computation failed\n", ref_label);
      return 1;
    }
    columns.push_back({std::string("Cyclerank [") + ref_label + "]",
                       ScoresToRankedList(cr->scores)});
    columns.push_back({std::string("Pers.PageRank [") + ref_label + "]",
                       ScoresToRankedList(ppr->scores)});
  }

  // Table I includes the reference article as row 1 (unlike Tables II-III).
  ComparisonTableOptions table_options;
  table_options.top_k = 5;
  std::fputs(RenderComparisonTable(g, columns, table_options).c_str(), stdout);
  std::printf("\n(total compute time: %ld ms)\n", timer.ElapsedMillis());

  std::puts(
      "\nPaper-shape checks:\n"
      "  - PR top-5 = United States / Animal / Arthropod / Association "
      "football / Insect\n"
      "  - CR columns stay inside the topical clusters\n"
      "  - PPR columns promote one-directional neighbours (FM Tribute "
      "Concert, HIV/AIDS; Bolognese sauce, Carbonara, Durum)");
  return 0;
}

}  // namespace
}  // namespace cyclerank

int main() { return cyclerank::RunTable1(); }
