#include "platform/graph_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

/// Deterministic byte size of a `shards`-way view of `graph` (built with
/// the same partitioner the store uses) — the budgeted sharded tests use
/// it to compute exact eviction thresholds.
size_t ViewBytes(const GraphPtr& graph, uint32_t shards) {
  return ShardedGraph::Build(graph, shards, ContiguousRangePartitioner())
      .value()
      .MemoryBytes();
}

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

TEST(GraphStoreShardedTest, BuildsOnceThenServesFromTheSlot) {
  GraphStore store;
  ASSERT_TRUE(store.Put("a", ChainGraph(100)).ok());
  const GraphPtr pinned = store.Get("a").value();
  const ShardedGraphPtr first = store.GetSharded("a", pinned, 4).value();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->num_shards(), 4u);
  EXPECT_EQ(first->parent(), pinned);
  // The second call is a slot hit: the exact same view object comes back.
  const ShardedGraphPtr second = store.GetSharded("a", pinned, 4).value();
  EXPECT_EQ(second, first);
  // A different shard count is a different view, cached independently.
  const ShardedGraphPtr other = store.GetSharded("a", pinned, 2).value();
  EXPECT_NE(other, first);
  EXPECT_EQ(other->num_shards(), 2u);
  EXPECT_EQ(store.GetSharded("a", pinned, 2).value(), other);
  const GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.sharded_builds, 2u);
  EXPECT_EQ(stats.sharded_hits, 2u);
}

TEST(GraphStoreShardedTest, CachedViewsChargeTheByteBudget) {
  GraphStore store;
  ASSERT_TRUE(store.Put("a", ChainGraph(100)).ok());
  const GraphPtr pinned = store.Get("a").value();
  const size_t before = store.stats().bytes;
  EXPECT_EQ(before, pinned->MemoryBytes());
  const ShardedGraphPtr view = store.GetSharded("a", pinned, 3).value();
  // The slot now carries graph + view bytes.
  EXPECT_EQ(store.stats().bytes, before + view->MemoryBytes());
}

TEST(GraphStoreShardedTest, RejectsBadInput) {
  GraphStore store;
  ASSERT_TRUE(store.Put("a", ChainGraph(10)).ok());
  const GraphPtr pinned = store.Get("a").value();
  EXPECT_EQ(store.GetSharded("a", nullptr, 4).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.GetSharded("a", pinned, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphStoreShardedTest, UnknownNameGetsACorrectUncachedView) {
  // Catalog datasets never live in the graph store; the view is still
  // built (correctness does not depend on caching), just not retained.
  GraphStore store;
  const GraphPtr pinned = ChainGraph(50);
  const ShardedGraphPtr view = store.GetSharded("catalog", pinned, 4).value();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->parent(), pinned);
  // Nothing was cached: the next call builds again.
  const ShardedGraphPtr again = store.GetSharded("catalog", pinned, 4).value();
  EXPECT_NE(again, view);
  const GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.sharded_builds, 2u);
  EXPECT_EQ(stats.sharded_hits, 0u);
}

TEST(GraphStoreShardedTest, ReboundNameServesThePinnedSnapshotUncached) {
  const GraphPtr graph = ChainGraph(100);
  GraphStore store(graph->MemoryBytes());
  ASSERT_TRUE(store.Put("a", graph).ok());
  const GraphPtr pinned = store.Get("a").value();
  // Evict "a" and re-bind the name to different content.
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // evicts "a"
  ASSERT_TRUE(store.Put("a", ChainGraph(40)).ok());   // re-binds, evicts "b"
  // The view must mirror the *pinned* snapshot, not the name's new
  // binding — and it must not be cached into the rebound slot.
  const ShardedGraphPtr view = store.GetSharded("a", pinned, 2).value();
  EXPECT_EQ(view->parent(), pinned);
  EXPECT_EQ(view->parent()->num_nodes(), 100u);
  EXPECT_EQ(store.stats().sharded_hits, 0u);
  EXPECT_NE(store.GetSharded("a", pinned, 2).value(), view);
}

TEST(GraphStoreShardedTest, ViewTooLargeForTheBudgetServedTransiently) {
  const GraphPtr graph = ChainGraph(100);
  // The budget fits the graph but not graph + any sharded view.
  GraphStore store(graph->MemoryBytes() + 1);
  ASSERT_TRUE(store.Put("a", graph).ok());
  const GraphPtr pinned = store.Get("a").value();
  const ShardedGraphPtr view = store.GetSharded("a", pinned, 2).value();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->parent(), pinned);
  // The slot was not grown (caching would overflow it alone) and the
  // dataset itself stays resident.
  EXPECT_EQ(store.stats().bytes, graph->MemoryBytes());
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_NE(store.GetSharded("a", pinned, 2).value(), view);
}

TEST(GraphStoreShardedTest, CachingAViewCanDemoteColderDatasets) {
  const GraphPtr graph = ChainGraph(100);
  // Both graphs plus the view overflow the budget by exactly one byte:
  // growing the hot slot with the view evicts the colder dataset.
  GraphStore store(2 * graph->MemoryBytes() + ViewBytes(graph, 2) - 1);
  ASSERT_TRUE(store.Put("cold", ChainGraph(100)).ok());
  ASSERT_TRUE(store.Put("hot", graph).ok());
  const GraphPtr pinned = store.Get("hot").value();
  const ShardedGraphPtr view = store.GetSharded("hot", pinned, 2).value();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(store.Get("cold").status().code(), StatusCode::kExpired);
  // The slot that grew is never its own victim.
  EXPECT_TRUE(store.Get("hot").ok());
  EXPECT_EQ(store.GetSharded("hot", pinned, 2).value(), view);
}

TEST(GraphStoreShardedTest, EvictionDropsTheViewsWithTheSlot) {
  const GraphPtr graph = ChainGraph(100);
  const GraphPtr big = ChainGraph(150);
  // graph + view fit; adding "big" overflows by one byte and evicts the
  // grown slot wholesale.
  GraphStore store(graph->MemoryBytes() + ViewBytes(graph, 2) +
                   big->MemoryBytes() - 1);
  ASSERT_TRUE(store.Put("a", graph).ok());
  const GraphPtr pinned = store.Get("a").value();
  const ShardedGraphPtr view = store.GetSharded("a", pinned, 2).value();
  // Evicting "a" drops graph and views; the store's accounting returns to
  // exactly the surviving dataset's bytes.
  ASSERT_TRUE(store.Put("big", big).ok());  // evicts "a"
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kExpired);
  EXPECT_EQ(store.stats().bytes, big->MemoryBytes());
  // The caller's handles stay alive — eviction only drops the store's
  // references.
  EXPECT_EQ(view->parent(), pinned);
  EXPECT_EQ(view->OutNeighbors(0, 0).size(), 1u);
}

TEST(GraphStoreShardedSpillTest, ReloadedDatasetStartsWithNoViews) {
  const GraphPtr graph = ChainGraph(100);
  SpillTier spill(FreshSpillDir("gs_sharded_spill"), SpillTierOptions{}, "dataset");
  // One graph + one view fit (so the view gets cached); the second graph
  // overflows and demotes "a" to disk.
  GraphStore store(2 * graph->MemoryBytes() + ViewBytes(graph, 2) - 1,
                   &spill);
  ASSERT_TRUE(store.Put("a", graph).ok());
  const GraphPtr pinned = store.Get("a").value();
  (void)store.GetSharded("a", pinned, 2).value();
  ASSERT_TRUE(store.Put("b", ChainGraph(100)).ok());  // "a" → disk
  // Only the parent graph was serialized; the reloaded binding rebuilds
  // views on demand (against its *new* snapshot pointer).
  const GraphPtr reloaded = store.Get("a").value();
  const size_t builds_before = store.stats().sharded_builds;
  const ShardedGraphPtr rebuilt = store.GetSharded("a", reloaded, 2).value();
  EXPECT_EQ(rebuilt->parent(), reloaded);
  EXPECT_EQ(store.stats().sharded_builds, builds_before + 1);
  // And the rebuilt view is cached like any other.
  EXPECT_EQ(store.GetSharded("a", reloaded, 2).value(), rebuilt);
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
