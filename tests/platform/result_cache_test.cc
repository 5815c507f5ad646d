#include "platform/result_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace cyclerank {
namespace {

/// A completed result with `entries` ranking rows (the footprint knob).
TaskResult MakeResult(const std::string& task_id, size_t entries) {
  TaskResult result;
  result.task_id = task_id;
  result.spec.dataset = "d";
  result.spec.algorithm = "pagerank";
  result.status = Status::OK();
  for (size_t i = 0; i < entries; ++i) {
    result.ranking.push_back({static_cast<NodeId>(i), 1.0 / (1.0 + i)});
  }
  return result;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache;
  EXPECT_FALSE(cache.Get("k").has_value());
  cache.Put("k", MakeResult("t", 10));
  const auto hit = cache.Get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->task_id, "t");
  EXPECT_EQ(hit->ranking.size(), 10u);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedWhenOverBudget) {
  const size_t one = ResultCache::EstimateBytes("a", MakeResult("t", 100));
  // Room for two ~equal entries, not three.
  ResultCache cache(2 * one + one / 2);
  cache.Put("a", MakeResult("t", 100));
  cache.Put("b", MakeResult("t", 100));
  ASSERT_TRUE(cache.Get("a").has_value());  // bump "a": "b" is now LRU
  cache.Put("c", MakeResult("t", 100));
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
}

TEST(ResultCacheTest, EntryLargerThanBudgetRejected) {
  ResultCache cache(256);
  cache.Put("big", MakeResult("t", 10000));
  EXPECT_FALSE(cache.Get("big").has_value());
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheTest, ZeroBudgetDisablesStorage) {
  ResultCache cache(0);
  cache.Put("k", MakeResult("t", 1));
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, OverwriteReplacesEntryAndBytes) {
  ResultCache cache;
  cache.Put("k", MakeResult("old", 100));
  const size_t bytes_before = cache.stats().bytes;
  cache.Put("k", MakeResult("new", 10));
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_LT(stats.bytes, bytes_before);
  EXPECT_EQ(cache.Get("k")->task_id, "new");
}

TEST(ResultCacheTest, ErasePrefixDropsOnlyMatchingEntries) {
  ResultCache cache;
  cache.Put("d1/fp-a", MakeResult("a", 5));
  cache.Put("d1/fp-b", MakeResult("b", 5));
  cache.Put("d2/fp", MakeResult("c", 5));
  EXPECT_EQ(cache.ErasePrefix("d1/"), 2u);
  EXPECT_FALSE(cache.Get("d1/fp-a").has_value());
  EXPECT_FALSE(cache.Get("d1/fp-b").has_value());
  EXPECT_TRUE(cache.Get("d2/fp").has_value());
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, GetReturnsACopy) {
  ResultCache cache;
  cache.Put("k", MakeResult("t", 3));
  auto first = cache.Get("k");
  first->ranking.clear();  // mutating the copy must not corrupt the cache
  EXPECT_EQ(cache.Get("k")->ranking.size(), 3u);
}

}  // namespace
}  // namespace cyclerank
