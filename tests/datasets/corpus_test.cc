// Regression tests pinning the embedded corpora to the paper's tables.
// The benches in bench/ print these tables; the tests here keep the corpus
// wiring honest (every expectation below is a row of Tables I-III).

#include "datasets/corpus.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cyclerank.h"
#include "core/pagerank.h"
#include "core/ranking.h"

namespace cyclerank {
namespace {

std::vector<std::string> TopLabels(const Graph& g, const RankedList& list,
                                   size_t k, NodeId skip = kInvalidNode) {
  std::vector<std::string> out;
  for (const ScoredNode& entry : list) {
    if (entry.node == skip) continue;
    out.push_back(g.NodeName(entry.node));
    if (out.size() == k) break;
  }
  return out;
}

// ---- Table I ----------------------------------------------------------------

TEST(EnwikiMiniTest, PageRankTop5MatchesPaper) {
  const Graph g = EnwikiMini().value();
  PageRankOptions options;
  options.alpha = 0.85;
  const auto pr = ComputePageRank(g, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(pr.scores), 5),
            (std::vector<std::string>{"United States", "Animal", "Arthropod",
                                      "Association football", "Insect"}));
}

TEST(EnwikiMiniTest, CycleRankFreddieMatchesPaper) {
  const Graph g = EnwikiMini().value();
  const NodeId ref = g.FindNode("Freddie Mercury");
  ASSERT_NE(ref, kInvalidNode);
  CycleRankOptions options;
  options.max_cycle_length = 3;
  const auto cr = ComputeCycleRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(cr.scores), 5),
            (std::vector<std::string>{"Freddie Mercury", "Queen (band)",
                                      "Brian May", "Roger Taylor",
                                      "John Deacon"}));
}

TEST(EnwikiMiniTest, PprFreddieMatchesPaper) {
  const Graph g = EnwikiMini().value();
  const NodeId ref = g.FindNode("Freddie Mercury");
  PageRankOptions options;
  options.alpha = 0.3;
  const auto ppr = ComputePersonalizedPageRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(ppr.scores), 5),
            (std::vector<std::string>{"Freddie Mercury", "Queen (band)",
                                      "The FM Tribute Concert", "HIV/AIDS",
                                      "Queen II"}));
}

TEST(EnwikiMiniTest, CycleRankPastaMatchesPaper) {
  const Graph g = EnwikiMini().value();
  const NodeId ref = g.FindNode("Pasta");
  ASSERT_NE(ref, kInvalidNode);
  CycleRankOptions options;
  options.max_cycle_length = 3;
  const auto cr = ComputeCycleRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(cr.scores), 5),
            (std::vector<std::string>{"Pasta", "Italian cuisine", "Italy",
                                      "Spaghetti", "Flour"}));
}

TEST(EnwikiMiniTest, PprPastaMatchesPaper) {
  const Graph g = EnwikiMini().value();
  const NodeId ref = g.FindNode("Pasta");
  PageRankOptions options;
  options.alpha = 0.3;
  const auto ppr = ComputePersonalizedPageRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(ppr.scores), 5),
            (std::vector<std::string>{"Pasta", "Bolognese sauce", "Carbonara",
                                      "Durum", "Italy"}));
}

TEST(EnwikiMiniTest, HubPathologyStructure) {
  // The hub that dominates global PageRank shares no cycle with either
  // reference article — the paper's central claim in miniature.
  const Graph g = EnwikiMini().value();
  const NodeId us = g.FindNode("United States");
  ASSERT_NE(us, kInvalidNode);
  for (const char* ref_label : {"Freddie Mercury", "Pasta"}) {
    CycleRankOptions options;
    options.max_cycle_length = 3;
    const auto cr =
        ComputeCycleRank(g, g.FindNode(ref_label), options).value();
    EXPECT_DOUBLE_EQ(cr.scores[us], 0.0) << ref_label;
  }
}

// ---- Table II ---------------------------------------------------------------

TEST(AmazonMiniTest, PageRankTop5MatchesPaper) {
  const Graph g = AmazonBooksMini().value();
  PageRankOptions options;
  options.alpha = 0.85;
  const auto pr = ComputePageRank(g, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(pr.scores), 5),
            (std::vector<std::string>{"Good to Great", "The Catcher in the Rye",
                                      "DSM-IV", "The Great Gatsby",
                                      "Lord of the Flies"}));
}

TEST(AmazonMiniTest, CycleRank1984MatchesPaper) {
  const Graph g = AmazonBooksMini().value();
  const NodeId ref = g.FindNode("1984");
  ASSERT_NE(ref, kInvalidNode);
  CycleRankOptions options;
  options.max_cycle_length = 5;
  const auto cr = ComputeCycleRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(cr.scores), 5, ref),
            (std::vector<std::string>{"Animal Farm", "Fahrenheit 451",
                                      "The Catcher in the Rye",
                                      "Brave New World", "Lord of the Flies"}));
}

TEST(AmazonMiniTest, Ppr1984MatchesPaper) {
  const Graph g = AmazonBooksMini().value();
  const NodeId ref = g.FindNode("1984");
  PageRankOptions options;
  options.alpha = 0.85;
  const auto ppr = ComputePersonalizedPageRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(ppr.scores), 5, ref),
            (std::vector<std::string>{
                "The Catcher in the Rye", "Lord of the Flies", "Animal Farm",
                "Fahrenheit 451", "To Kill a Mockingbird"}));
}

TEST(AmazonMiniTest, CycleRankFellowshipMatchesPaper) {
  const Graph g = AmazonBooksMini().value();
  const NodeId ref = g.FindNode("The Fellowship of the Ring");
  ASSERT_NE(ref, kInvalidNode);
  CycleRankOptions options;
  options.max_cycle_length = 5;
  const auto cr = ComputeCycleRank(g, ref, options).value();
  EXPECT_EQ(TopLabels(g, ScoresToRankedList(cr.scores), 5, ref),
            (std::vector<std::string>{"The Hobbit", "The Return of the King",
                                      "The Silmarillion", "The Two Towers",
                                      "Unfinished Tales"}));
}

TEST(AmazonMiniTest, PprFellowshipShowsHarryPotterPathology) {
  // Paper order: Silmarillion, Hobbit, HP1, HP2, Return of the King. Our
  // miniature reproduces the *set* and the pathology (HP books inside the
  // PPR top-5, excluded from CycleRank); the within-set order differs, so
  // only the set is checked.
  const Graph g = AmazonBooksMini().value();
  const NodeId ref = g.FindNode("The Fellowship of the Ring");
  PageRankOptions options;
  options.alpha = 0.85;
  const auto ppr = ComputePersonalizedPageRank(g, ref, options).value();
  const auto top = TopLabels(g, ScoresToRankedList(ppr.scores), 5, ref);
  const std::vector<std::string> expected_set = {
      "The Silmarillion", "The Hobbit", "Harry Potter (Book 1)",
      "Harry Potter (Book 2)", "The Return of the King"};
  for (const std::string& label : expected_set) {
    EXPECT_NE(std::find(top.begin(), top.end(), label), top.end()) << label;
  }
}

TEST(AmazonMiniTest, HarryPotterExcludedFromCycleRank) {
  const Graph g = AmazonBooksMini().value();
  const NodeId ref = g.FindNode("The Fellowship of the Ring");
  CycleRankOptions options;
  options.max_cycle_length = 5;
  const auto cr = ComputeCycleRank(g, ref, options).value();
  EXPECT_DOUBLE_EQ(cr.scores[g.FindNode("Harry Potter (Book 1)")], 0.0);
  EXPECT_DOUBLE_EQ(cr.scores[g.FindNode("Harry Potter (Book 2)")], 0.0);
}

// ---- Table III --------------------------------------------------------------

struct EditionExpectation {
  const char* language;
  std::vector<std::string> top;
};

class FakeNewsEditionTest
    : public ::testing::TestWithParam<EditionExpectation> {};

TEST_P(FakeNewsEditionTest, CycleRankTopMatchesPaperColumn) {
  const auto& expectation = GetParam();
  const Graph g = FakeNewsEdition(expectation.language).value();
  const std::string title = FakeNewsTitle(expectation.language).value();
  const NodeId ref = g.FindNode(title);
  ASSERT_NE(ref, kInvalidNode) << title;
  CycleRankOptions options;
  options.max_cycle_length = 3;
  const auto cr = ComputeCycleRank(g, ref, options).value();
  const auto top = TopLabels(g, ScoresToRankedList(cr.scores), 5, ref);
  EXPECT_EQ(top, expectation.top);
}

INSTANTIATE_TEST_SUITE_P(
    AllEditions, FakeNewsEditionTest,
    ::testing::Values(
        EditionExpectation{"de",
                           {"Barack Obama", "Tagesschau.de", "Desinformation",
                            "Fake", "Donald Trump"}},
        EditionExpectation{"en",
                           {"CNN", "Facebook", "US pres. election, 2016",
                            "Propaganda", "Social media"}},
        EditionExpectation{"fr",
                           {"Ère post-vérité", "Donald Trump", "Facebook",
                            "Hoax", "Alex Jones (complotiste)"}},
        EditionExpectation{"it",
                           {"Disinformazione", "Post-verità", "Bufala",
                            "Debunker", "Clickbait"}},
        // nl and pl have fewer than five non-zero results — exactly as the
        // paper's Table III leaves those cells empty.
        EditionExpectation{"nl",
                           {"Facebook", "Journalistiek", "Hoax",
                            "Donald Trump"}},
        EditionExpectation{"pl",
                           {"Dezinformacja", "Propaganda",
                            "Media społecznościowe"}}),
    [](const auto& test_info) { return std::string(test_info.param.language); });

TEST(FakeNewsTest, LanguagesListedAndLoadable) {
  const auto& langs = FakeNewsLanguages();
  EXPECT_EQ(langs.size(), 6u);
  for (const std::string& lang : langs) {
    EXPECT_TRUE(FakeNewsEdition(lang).ok()) << lang;
    EXPECT_TRUE(FakeNewsTitle(lang).ok()) << lang;
  }
}

TEST(FakeNewsTest, UnknownLanguageRejected) {
  EXPECT_EQ(FakeNewsEdition("xx").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(FakeNewsTitle("xx").status().code(), StatusCode::kNotFound);
}

TEST(FakeNewsTest, LocalizedTitles) {
  EXPECT_EQ(FakeNewsTitle("de").value(), "Fake News");
  EXPECT_EQ(FakeNewsTitle("nl").value(), "Nepnieuws");
  EXPECT_EQ(FakeNewsTitle("en").value(), "Fake news");
}

}  // namespace
}  // namespace cyclerank
