#ifndef CYCLERANK_DATASETS_CORPUS_H_
#define CYCLERANK_DATASETS_CORPUS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace cyclerank {

/// Embedded, hand-authored labeled corpora.
///
/// These miniature graphs reproduce — at ~10² scale — the *structure* behind
/// the paper's Tables I–III: globally central hub articles that dominate
/// PageRank and leak into every Personalized PageRank ranking, versus
/// topical clusters whose members form short cycles with the reference
/// node (which is what CycleRank rewards). Node labels are the actual
/// article / product names from the tables so the generated tables are
/// directly comparable with the paper.

/// English Wikipedia miniature (snapshot role: enwiki 2018-03-01).
/// Contains the "Freddie Mercury" / Queen cluster, the "Pasta" / Italian
/// cuisine cluster, and the global hubs from the paper's PageRank top-5
/// ("United States", "Animal", "Arthropod", "Association football",
/// "Insect"). Used by the Table I bench.
Result<Graph> EnwikiMini();

/// Amazon books co-purchase miniature. Contains the dystopian-classics
/// cluster around "1984", the Tolkien cluster around "The Fellowship of
/// the Ring", the Harry Potter bestseller hub, and the business/psychology
/// books from the paper's PageRank column ("Good to Great", "DSM-IV", …).
/// Used by the Table II bench.
Result<Graph> AmazonBooksMini();

/// Wikipedia language editions supported by the Table III experiment.
const std::vector<std::string>& FakeNewsLanguages();  // de en fr it nl pl

/// Miniature wikilink graph of one language edition around its "Fake news"
/// article. The local article name matches the edition ("Fake News" in de,
/// "Nepnieuws" in nl, …), and the cycle structure yields the paper's
/// per-language top-5 (with fewer than five cycle-mates in nl and pl, as in
/// the paper where the remaining cells are empty). Used by the Table III
/// bench.
Result<Graph> FakeNewsEdition(std::string_view language);

/// The title of the "Fake news" article in `language` (the reference node
/// of the Table III experiment).
Result<std::string> FakeNewsTitle(std::string_view language);

}  // namespace cyclerank

#endif  // CYCLERANK_DATASETS_CORPUS_H_
