#include "platform/graph_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

TEST(GraphStoreTest, UnboundedByDefault) {
  GraphStore store;
  EXPECT_EQ(store.max_bytes(), 0u);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Put("g" + std::to_string(i), ChainGraph(64)).ok());
  }
  EXPECT_EQ(store.stats().entries, 50u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(GraphStoreTest, RejectsBadInput) {
  GraphStore store;
  EXPECT_EQ(store.Put("", ChainGraph(4)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Put("g", nullptr).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(store.Put("g", ChainGraph(4)).ok());
  EXPECT_EQ(store.Put("g", ChainGraph(4)).code(), StatusCode::kAlreadyExists);
}

TEST(GraphStoreTest, OversizedUploadRejectedWithByteFigures) {
  const GraphPtr big = ChainGraph(1000);
  GraphStore store(big->MemoryBytes() - 1);
  const Status status = store.Put("big", big);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The error states both the graph's footprint and the budget.
  EXPECT_NE(status.message().find(std::to_string(big->MemoryBytes())),
            std::string::npos);
  EXPECT_NE(status.message().find(std::to_string(big->MemoryBytes() - 1)),
            std::string::npos);
  EXPECT_EQ(store.stats().rejections, 1u);
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(GraphStoreTest, EvictsLeastRecentlyQueriedPastBudget) {
  const GraphPtr graph = ChainGraph(100);
  // Budget fits exactly two graphs of this size.
  GraphStore store(2 * graph->MemoryBytes());
  ASSERT_TRUE(store.Put("a", graph).ok());
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());
  ASSERT_TRUE(store.Put("c", ChainGraph(100)).ok());  // evicts "a"
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kExpired);
  EXPECT_TRUE(store.Get("b").ok());
  EXPECT_TRUE(store.Get("c").ok());
  const GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 2 * graph->MemoryBytes());
}

TEST(GraphStoreTest, GetBumpsRecencySoHotDatasetsSurvive) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(2 * graph->MemoryBytes());
  ASSERT_TRUE(store.Put("a", graph).ok());
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());
  // "a" is older but queried more recently, so "b" is the LRU victim.
  ASSERT_TRUE(store.Get("a").ok());
  ASSERT_TRUE(store.Put("c", ChainGraph(100)).ok());
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_EQ(store.Get("b").status().code(), StatusCode::kExpired);
  EXPECT_TRUE(store.Get("c").ok());
}

TEST(GraphStoreTest, NeverUploadedStaysNotFound) {
  GraphStore store(1 << 20);
  EXPECT_EQ(store.Get("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(GraphStoreTest, ReUploadingAnEvictedNameRevivesIt) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(graph->MemoryBytes());
  ASSERT_TRUE(store.Put("a", graph).ok());
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // evicts "a"
  ASSERT_EQ(store.Get("a").status().code(), StatusCode::kExpired);
  ASSERT_TRUE(store.Put("a", ChainGraph(100)).ok());  // revives, evicts "b"
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_EQ(store.Get("b").status().code(), StatusCode::kExpired);
}

TEST(GraphStoreTest, EvictionNeverFreesAPinnedSnapshot) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(graph->MemoryBytes());
  ASSERT_TRUE(store.Put("a", graph).ok());
  // A client (an executor) pins the snapshot before eviction.
  const GraphPtr pinned = store.Get("a").value();
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // evicts "a"
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kExpired);
  // The pinned snapshot is alive and intact: the store only dropped its
  // own reference.
  EXPECT_EQ(pinned->num_nodes(), 100u);
  EXPECT_EQ(pinned->num_edges(), 99u);
  EXPECT_TRUE(pinned->HasEdge(0, 1));
}

TEST(GraphStoreTest, RebindingANameChangesItsGeneration) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(graph->MemoryBytes());
  EXPECT_EQ(store.Generation("a"), 0u);  // not live
  ASSERT_TRUE(store.Put("a", graph).ok());
  const uint64_t first = store.Generation("a");
  EXPECT_GT(first, 0u);
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // evicts "a"
  EXPECT_EQ(store.Generation("a"), 0u);
  ASSERT_TRUE(store.Put("a", ChainGraph(100)).ok());  // re-binds "a"
  EXPECT_NE(store.Generation("a"), first);
  EXPECT_GT(store.Generation("a"), 0u);
}

TEST(GraphStoreTest, NamesAreSortedAndLiveOnly) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(2 * graph->MemoryBytes());
  ASSERT_TRUE(store.Put("zeta", graph).ok());
  ASSERT_TRUE(store.Put("alpha", ChainGraph(100)).ok());
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"alpha", "zeta"}));
  ASSERT_TRUE(store.Put("mid", ChainGraph(100)).ok());  // evicts "zeta"
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"alpha", "mid"}));
}

TEST(GraphStoreTest, StatsCountHitsAndMisses) {
  GraphStore store;
  ASSERT_TRUE(store.Put("a", ChainGraph(8)).ok());
  (void)store.Get("a");
  (void)store.Get("a");
  (void)store.Get("nope");
  const GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.uploads, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(GraphStoreSpillTest, EvictionDemotesToDiskAndGetReloads) {
  const GraphPtr graph = ChainGraph(100);
  SpillTier spill(FreshSpillDir("gs_demote"), SpillTierOptions{}, "dataset");
  GraphStore store(graph->MemoryBytes(), &spill);
  ASSERT_TRUE(store.Put("a", graph).ok());
  const uint64_t gen_a = store.Generation("a");
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // evicts "a" → disk
  EXPECT_TRUE(spill.Contains("a"));
  EXPECT_EQ(store.stats().spills, 1u);
  // The demoted binding keeps its generation — same content, merely cold.
  EXPECT_EQ(store.Generation("a"), gen_a);
  // Get transparently reloads it (most-recent), demoting "b" in turn.
  const GraphPtr reloaded = store.Get("a").value();
  EXPECT_EQ(reloaded->num_nodes(), 100u);
  EXPECT_EQ(reloaded->MemoryBytes(), graph->MemoryBytes());
  EXPECT_EQ(reloaded->Serialize(), graph->Serialize());  // bit-identical
  EXPECT_EQ(store.Generation("a"), gen_a);
  const GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.spills, 2u);  // "b" was demoted by the reload
  EXPECT_TRUE(store.Get("b").ok());
}

TEST(GraphStoreSpillTest, DiskResidentNameCountsAsUploaded) {
  const GraphPtr graph = ChainGraph(100);
  SpillTier spill(FreshSpillDir("gs_resident"), SpillTierOptions{}, "dataset");
  GraphStore store(graph->MemoryBytes(), &spill);
  ASSERT_TRUE(store.Put("a", graph).ok());
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // "a" → disk
  // A spilled dataset is still uploaded: the name cannot be re-bound...
  const Status dup = store.Put("a", ChainGraph(50));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(dup.message().find("disk"), std::string::npos);
  // ...and it is still listed.
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"a", "b"}));
}

TEST(GraphStoreSpillTest, PrunedSpillExpiresWithAPrunedMessage) {
  const GraphPtr graph = ChainGraph(100);
  // The disk tier holds exactly one spilled graph: the second demotion
  // prunes the first. The budget is the measured size of one spill file
  // (every graph here has the same bytes and a one-letter key).
  size_t one_file_bytes = 0;
  {
    SpillTier probe(FreshSpillDir("gs_pruned_probe"), SpillTierOptions{},
                    "dataset");
    ASSERT_TRUE(PutAndFlush(probe, "a", graph->Serialize()).ok());
    one_file_bytes = probe.stats().bytes;
  }
  SpillTierOptions budget;
  budget.max_bytes = one_file_bytes;
  SpillTier spill(FreshSpillDir("gs_pruned"), budget, "dataset");
  GraphStore store(graph->MemoryBytes(), &spill);
  ASSERT_TRUE(store.Put("a", graph).ok());
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // "a" → disk
  ASSERT_TRUE(store.Put("c", ChainGraph(100)).ok());  // "b" → disk, "a" pruned
  ASSERT_TRUE(spill.Flush().ok());
  EXPECT_EQ(spill.stats().prunes, 1u);
  const Status pruned = store.Get("a").status();
  EXPECT_EQ(pruned.code(), StatusCode::kExpired);
  EXPECT_NE(pruned.message().find("pruned"), std::string::npos);
  // "b" is still disk-resident and reloads fine.
  EXPECT_TRUE(store.Get("b").ok());
}

TEST(GraphStoreSpillTest, GenerationCounterResumesPastRecoveredBindings) {
  const std::string dir = FreshSpillDir("gs_genresume");
  const GraphPtr graph = ChainGraph(100);
  uint64_t spilled_generation = 0;
  {
    SpillTier spill(dir, SpillTierOptions{}, "dataset");
    GraphStore store(graph->MemoryBytes(), &spill);
    ASSERT_TRUE(store.Put("a", graph).ok());
    ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // "a" → disk
    spilled_generation = store.Generation("a");
    ASSERT_GT(spilled_generation, 0u);
  }
  // "Restart": a fresh store over the same directory. The recovered
  // binding keeps its generation, and new uploads get strictly larger
  // ones — fingerprints can never collide across the restart.
  SpillTier spill(dir, SpillTierOptions{}, "dataset");
  GraphStore store(graph->MemoryBytes(), &spill);
  EXPECT_EQ(store.Generation("a"), spilled_generation);
  ASSERT_TRUE(store.Put("fresh", ChainGraph(50)).ok());
  EXPECT_GT(store.Generation("fresh"), spilled_generation);
  EXPECT_EQ(store.Get("a").value()->Serialize(), graph->Serialize());
}

TEST(GraphStoreTest, EvictionMarkersAreBounded) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(graph->MemoryBytes());
  ASSERT_TRUE(store.Put("g0", graph).ok());
  // Evict far past the marker bound: old markers fall off FIFO and those
  // names answer NotFound again, so the marker set cannot grow forever.
  const size_t churn = GraphStore::kMaxEvictionMarkers + 10;
  for (size_t i = 1; i <= churn; ++i) {
    ASSERT_TRUE(store.Put("g" + std::to_string(i), ChainGraph(100)).ok());
  }
  EXPECT_EQ(store.Get("g0").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Get("g" + std::to_string(churn - 1)).status().code(),
            StatusCode::kExpired);
}

}  // namespace
}  // namespace cyclerank
