#include "platform/datastore.h"

#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/io.h"
#include "platform/params.h"
#include "platform/result_io.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

GraphPtr SmallGraph() {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  return builder.BuildShared().value();
}

TEST(DatastoreTest, PutAndGetDataset) {
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("mine", SmallGraph()).ok());
  const GraphPtr g = store.GetDataset("mine").value();
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(store.UploadedDatasets(), (std::vector<std::string>{"mine"}));
}

TEST(DatastoreTest, MissingDatasetNotFound) {
  Datastore store(nullptr);
  EXPECT_EQ(store.GetDataset("nope").status().code(), StatusCode::kNotFound);
}

TEST(DatastoreTest, FallsBackToCatalog) {
  Datastore store;  // backed by the built-in catalog
  EXPECT_TRUE(store.GetDataset("fakenews-en").ok());
}

TEST(DatastoreTest, UploadedNameMayNotShadowCatalog) {
  Datastore store;
  EXPECT_EQ(store.PutDataset("fakenews-en", SmallGraph()).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatastoreTest, DuplicateUploadRejected) {
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("a", SmallGraph()).ok());
  EXPECT_EQ(store.PutDataset("a", SmallGraph()).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatastoreTest, RejectsBadInput) {
  Datastore store(nullptr);
  EXPECT_EQ(store.PutDataset("", SmallGraph()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.PutDataset("x", nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatastoreTest, UploadDatasetParsesContent) {
  Datastore store(nullptr);
  ASSERT_TRUE(store.UploadDataset("csv", "a,b\nb,a\n").ok());
  const GraphPtr g = store.GetDataset("csv").value();
  EXPECT_EQ(g->num_edges(), 2u);
  ASSERT_TRUE(store.UploadDataset("pajek", "*Vertices 2\n*Arcs\n1 2\n").ok());
  EXPECT_EQ(store.GetDataset("pajek").value()->num_edges(), 1u);
  ASSERT_TRUE(store.UploadDataset("asd", "2 1\n0 1\n").ok());
  EXPECT_EQ(store.GetDataset("asd").value()->num_nodes(), 2u);
}

TEST(DatastoreTest, UploadRejectsGarbage) {
  Datastore store(nullptr);
  EXPECT_FALSE(store.UploadDataset("bad", "not a graph at all").ok());
}

TEST(DatastoreTest, ResultsRoundTrip) {
  Datastore store(nullptr);
  TaskResult result;
  result.task_id = "t1";
  result.spec.dataset = "d";
  result.spec.algorithm = "pagerank";
  result.ranking = {{3, 0.9}, {1, 0.1}};
  result.seconds = 1.5;
  store.PutResult(result);
  ASSERT_TRUE(store.HasResult("t1"));
  const TaskResult loaded = store.GetResult("t1").value();
  EXPECT_EQ(loaded.ranking.size(), 2u);
  EXPECT_EQ(loaded.ranking[0].node, 3u);
  EXPECT_DOUBLE_EQ(loaded.seconds, 1.5);
}

TEST(DatastoreTest, MissingResultNotFound) {
  Datastore store(nullptr);
  EXPECT_FALSE(store.HasResult("zz"));
  EXPECT_EQ(store.GetResult("zz").status().code(), StatusCode::kNotFound);
}

TEST(DatastoreTest, ResultOverwriteKeepsLatest) {
  Datastore store(nullptr);
  TaskResult first;
  first.task_id = "t";
  first.seconds = 1.0;
  store.PutResult(first);
  TaskResult second;
  second.task_id = "t";
  second.seconds = 2.0;
  store.PutResult(second);
  EXPECT_DOUBLE_EQ(store.GetResult("t").value().seconds, 2.0);
}

TEST(DatastoreTest, LogsAppendInOrder) {
  Datastore store(nullptr);
  store.AppendLog("t", "first");
  store.AppendLog("t", "second");
  store.AppendLog("other", "unrelated");
  EXPECT_EQ(store.GetLog("t"), (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(store.GetLog("other").size(), 1u);
  EXPECT_TRUE(store.GetLog("none").empty());
}

TEST(DatastoreTest, GraphBudgetEvictsLeastRecentlyQueried) {
  const GraphPtr graph = ChainGraph(100);
  Datastore store(nullptr, GraphBudget(2 * graph->MemoryBytes()));
  ASSERT_TRUE(store.PutDataset("a", graph).ok());
  ASSERT_TRUE(store.PutDataset("b", ChainGraph(100)).ok());
  // "a" is older but queried more recently — "b" is the eviction victim.
  ASSERT_TRUE(store.GetDataset("a").ok());
  ASSERT_TRUE(store.PutDataset("c", ChainGraph(100)).ok());
  EXPECT_TRUE(store.GetDataset("a").ok());
  EXPECT_EQ(store.GetDataset("b").status().code(), StatusCode::kExpired);
  EXPECT_TRUE(store.GetDataset("c").ok());
  EXPECT_EQ(store.UploadedDatasets(), (std::vector<std::string>{"a", "c"}));
  // Never-uploaded names keep reporting NotFound, not Expired.
  EXPECT_EQ(store.GetDataset("never").status().code(), StatusCode::kNotFound);
}

TEST(DatastoreTest, OversizedGraphRejectedUpFrontWithBytes) {
  const GraphPtr big = ChainGraph(500);
  Datastore store(nullptr, GraphBudget(big->MemoryBytes() / 2));
  const Status status = store.PutDataset("big", big);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(std::to_string(big->MemoryBytes())),
            std::string::npos);
}

TEST(DatastoreTest, UploadDatasetRejectsOversizedContentBeforeParsing) {
  Datastore store(nullptr, GraphBudget(64));
  // 65+ bytes of edge list: rejected on the raw byte count, before any
  // parse work — the message states both figures.
  std::string content;
  for (int i = 0; content.size() <= 64; ++i) {
    content += std::to_string(i) + "," + std::to_string(i + 1) + "\n";
  }
  const Status status = store.UploadDataset("big", content);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(std::to_string(content.size())),
            std::string::npos);
  EXPECT_NE(status.message().find("64"), std::string::npos);
  // Unbounded stores still accept anything parseable.
  Datastore unbounded(nullptr);
  EXPECT_TRUE(unbounded.UploadDataset("big", content).ok());
}

TEST(DatastoreTest, UploadRefusesTinyBodiesNamingHugeGraphs) {
  // A 2 MiB budget holds at most 131072 nodes (16 bytes of offsets each).
  // Each body names at least 2^32 - 2 nodes in at most 32 bytes; at the
  // parent they threw bad_alloc or asked for 32 GiB offset arrays, and the
  // ASD count was cut to 32 bits.
  Datastore store(nullptr, GraphBudget(2 << 20));
  const struct {
    const char* format;
    std::string body;
    const char* count;
  } kCases[] = {
      {"edgelist", "4294967294,0\n", "4294967295"},
      {"pajek", "*Vertices 4294967298\n*Arcs\n1 2\n", "4294967298"},
      {"asd", "4294967297 1\n0 1\n", "4294967297"},
      // Never sniffed as METIS: it reads as an ASD header with no edges.
      {"metis", "4294967294 0\n", "4294967294"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.format);
    ASSERT_LE(c.body.size(), 32u);
    const Status status = store.UploadDataset(c.format, c.body);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(std::string(c.count) +
                                    " nodes exceed the node ceiling of 131072"),
              std::string::npos)
        << status.ToString();
  }
  // The METIS reader, selected explicitly, uses the same ceiling.
  GraphBuildOptions build;
  build.max_nodes = (2 << 20) / 16;
  EXPECT_EQ(ReadGraphFromString("4294967294 0\n", GraphFormat::kMetis, build)
                .status()
                .ToString(),
            "InvalidArgument: metis header: 4294967294 nodes exceed the node "
            "ceiling of 131072");
  EXPECT_TRUE(store.UploadedDatasets().empty());
}

TEST(DatastoreTest, UploadNodeCeilingIsTheBudgetOver16) {
  // 1600 bytes: 100 nodes pass the ceiling and are refused on their bytes
  // by PutDataset; 101 nodes are refused by the reader, on their count.
  Datastore store(nullptr, GraphBudget(1600));
  const Status at = store.UploadDataset("at", "100 0\n");
  EXPECT_EQ(at.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(at.message().find("bytes"), std::string::npos) << at.ToString();
  const Status past = store.UploadDataset("past", "101 0\n");
  EXPECT_EQ(past.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.message().find("101 nodes exceed the node ceiling of 100"),
            std::string::npos)
      << past.ToString();
  // With no budget the ceiling is the NodeId range.
  Datastore unbounded(nullptr);
  EXPECT_TRUE(unbounded.UploadDataset("wide", "100000 0\n").ok());
  EXPECT_NE(unbounded.UploadDataset("asd", "4294967297 1\n0 1\n")
                .message()
                .find("4294967297 nodes exceed the node ceiling of 4294967295"),
            std::string::npos);
}

TEST(DatastoreTest, EvictionNeverFreesAPinnedSnapshot) {
  const GraphPtr graph = ChainGraph(100);
  Datastore store(nullptr, GraphBudget(graph->MemoryBytes()));
  ASSERT_TRUE(store.PutDataset("hot", graph).ok());
  // An executor pins the snapshot (GetDataset at task start)…
  const GraphPtr pinned = store.GetDataset("hot").value();
  // …then an upload evicts the dataset out of the store.
  ASSERT_TRUE(store.PutDataset("filler", ChainGraph(100)).ok());
  ASSERT_EQ(store.GetDataset("hot").status().code(), StatusCode::kExpired);
  // The pinned snapshot still reads intact.
  EXPECT_EQ(pinned->num_nodes(), 100u);
  EXPECT_EQ(pinned->num_edges(), 99u);
  // Re-uploading revives the name for new tasks.
  ASSERT_TRUE(store.PutDataset("hot", ChainGraph(100)).ok());
  EXPECT_TRUE(store.GetDataset("hot").ok());
}

TEST(DatastoreTest, GraphStoreStatsExposed) {
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("a", ChainGraph(10)).ok());
  (void)store.GetDataset("a");
  const GraphStoreStats stats = store.graph_store().stats();
  EXPECT_EQ(stats.uploads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TaskResult ResultFor(const std::string& id) {
  TaskResult result;
  result.task_id = id;
  return result;
}

TEST(DatastoreTest, RetentionEvictsOldestResultsFifo) {
  Datastore store(nullptr, RetainResults(3));
  for (int i = 0; i < 5; ++i) {
    const std::string id = "t" + std::to_string(i);
    store.AppendLog(id, "ran");
    store.PutResult(ResultFor(id));
  }
  EXPECT_EQ(store.NumStoredResults(), 3u);
  // t0, t1 evicted; t2..t4 live.
  EXPECT_EQ(store.GetResult("t0").status().code(), StatusCode::kExpired);
  EXPECT_EQ(store.GetResult("t1").status().code(), StatusCode::kExpired);
  EXPECT_FALSE(store.HasResult("t0"));
  for (const char* id : {"t2", "t3", "t4"}) {
    EXPECT_TRUE(store.HasResult(id)) << id;
  }
  // Logs of evicted tasks are dropped with the result; live logs stay.
  EXPECT_TRUE(store.GetLog("t0").empty());
  EXPECT_EQ(store.GetLog("t4"), (std::vector<std::string>{"ran"}));
  // Never-stored tasks still report NotFound, not Expired.
  EXPECT_EQ(store.GetResult("never").status().code(), StatusCode::kNotFound);
}

TEST(DatastoreTest, RetentionZeroMeansUnlimited) {
  Datastore store(nullptr, RetainResults(0));
  for (int i = 0; i < 100; ++i) {
    store.PutResult(ResultFor("t" + std::to_string(i)));
  }
  EXPECT_EQ(store.NumStoredResults(), 100u);
  EXPECT_TRUE(store.HasResult("t0"));
}

TEST(DatastoreTest, RetryOverwriteKeepsRetentionSlot) {
  Datastore store(nullptr, RetainResults(2));
  store.AppendLog("a", "first run");
  store.PutResult(ResultFor("a"));
  store.PutResult(ResultFor("b"));
  // Overwriting "a" must not count as a new insertion (or "b" would be
  // unfairly evicted ahead of it later).
  store.AppendLog("a", "retry");
  TaskResult retry = ResultFor("a");
  retry.seconds = 9.0;
  store.PutResult(retry);
  EXPECT_EQ(store.NumStoredResults(), 2u);
  EXPECT_DOUBLE_EQ(store.GetResult("a").value().seconds, 9.0);
  // The overwrite keeps the log lines of the earlier attempt.
  EXPECT_EQ(store.GetLog("a"),
            (std::vector<std::string>{"first run", "retry"}));
  store.PutResult(ResultFor("c"));  // evicts "a", the oldest insertion
  EXPECT_EQ(store.GetResult("a").status().code(), StatusCode::kExpired);
  EXPECT_TRUE(store.GetLog("a").empty());
  EXPECT_TRUE(store.HasResult("b"));
  EXPECT_TRUE(store.HasResult("c"));
}

TEST(DatastoreTest, ReStoringAnEvictedResultRevivesIt) {
  Datastore store(nullptr, RetainResults(1));
  store.AppendLog("a", "first run");
  store.PutResult(ResultFor("a"));
  store.PutResult(ResultFor("b"));  // evicts "a"
  EXPECT_EQ(store.GetResult("a").status().code(), StatusCode::kExpired);
  store.AppendLog("a", "re-run");
  store.PutResult(ResultFor("a"));  // re-run stored again, evicts "b"
  EXPECT_TRUE(store.HasResult("a"));
  // The eviction dropped the first run's lines; the re-run's stay.
  EXPECT_EQ(store.GetLog("a"), (std::vector<std::string>{"re-run"}));
  EXPECT_EQ(store.GetResult("b").status().code(), StatusCode::kExpired);
}

TEST(DatastoreTest, EvictionMarkersAreBoundedToo) {
  Datastore store(nullptr, RetainResults(2));
  for (int i = 0; i < 10; ++i) {
    store.PutResult(ResultFor("t" + std::to_string(i)));
  }
  // Markers are FIFO-bounded by the same knob: only the two most recent
  // evictions (t6, t7) still answer Expired; older ones fell off and are
  // indistinguishable from never-stored.
  EXPECT_EQ(store.GetResult("t7").status().code(), StatusCode::kExpired);
  EXPECT_EQ(store.GetResult("t6").status().code(), StatusCode::kExpired);
  EXPECT_EQ(store.GetResult("t0").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.HasResult("t8"));
  EXPECT_TRUE(store.HasResult("t9"));
}

// ---- Disk spill tier behind the facade ------------------------------------

/// Options for a spill-enabled datastore: memory holds one ~100-node chain
/// and one result; evictions demote to `dir`.
PlatformOptions SpillOptions(const std::string& dir) {
  PlatformOptions options;
  options.graph_store_bytes = ChainGraph(100)->MemoryBytes();
  options.max_retained_results = 1;
  options.spill_dir = dir;
  return options;
}

TaskResult RichResultFor(const std::string& id) {
  TaskResult result;
  result.task_id = id;
  result.spec.dataset = "d";
  result.spec.algorithm = "pagerank";
  result.spec.params.Set("alpha", "0.85");
  result.ranking = {{3, 0.9}, {1, 0.1 + 0.2}};
  result.seconds = 1.0 / 3.0;
  return result;
}

TEST(DatastoreSpillTest, EvictedResultReloadsFromDisk) {
  Datastore store(nullptr, SpillOptions(FreshSpillDir("ds_result_reload")));
  store.AppendLog("r1", "ran");
  store.PutResult(RichResultFor("r1"));
  store.PutResult(RichResultFor("r2"));  // retention=1: r1 → disk
  EXPECT_FALSE(store.HasResult("r1"));
  store.Flush();  // demotion is write-behind: barrier before stats
  ASSERT_EQ(store.result_spill()->stats().spills, 1u);
  // The reload is transparent and bit-identical...
  const TaskResult reloaded = store.GetResult("r1").value();
  EXPECT_EQ(SerializeTaskResult(reloaded),
            SerializeTaskResult(RichResultFor("r1")));
  // ...and re-admits r1 to the memory tier, demoting r2 in its place.
  EXPECT_TRUE(store.HasResult("r1"));
  EXPECT_FALSE(store.HasResult("r2"));
  EXPECT_TRUE(store.GetResult("r2").ok());  // reloads right back
  // Logs followed the *memory* eviction and stay gone (documented).
  EXPECT_TRUE(store.GetLog("r1").empty());
}

TEST(DatastoreSpillTest, ExpiredMessagesDistinguishPrunedFromNeverStored) {
  PlatformOptions options = SpillOptions(FreshSpillDir("ds_pruned"));
  // A result spill budget too small for any result file: every demotion
  // is rejected → marked pruned.
  options.result_spill_bytes = 16;
  Datastore store(nullptr, options);
  store.PutResult(RichResultFor("r1"));
  store.PutResult(RichResultFor("r2"));  // r1 evicted, cannot spill
  // Write-behind keeps the victim readable until the flush thread rejects
  // it as oversize; the barrier makes the pruning observable.
  store.Flush();
  const Status pruned = store.GetResult("r1").status();
  EXPECT_EQ(pruned.code(), StatusCode::kExpired);
  EXPECT_NE(pruned.message().find("pruned"), std::string::npos);
  // A task that never existed is a NotFound, never an Expired: operators
  // can tell budget pressure from typos.
  EXPECT_EQ(store.GetResult("typo").status().code(), StatusCode::kNotFound);
}

TEST(DatastoreSpillTest, DatasetSpillKeepsCacheGenerationAcrossDemotion) {
  Datastore store(nullptr, SpillOptions(FreshSpillDir("ds_gen")));
  ASSERT_TRUE(store.PutDataset("a", ChainGraph(100)).ok());
  const auto gen_before = store.DatasetCacheGeneration("a");
  ASSERT_TRUE(gen_before.has_value());
  ASSERT_TRUE(store.PutDataset("b", ChainGraph(100)).ok());  // "a" → disk
  // Demotion is not a re-binding: the generation — and with it every
  // cached result's fingerprint — survives, both while the dataset sits
  // on disk and after it reloads.
  EXPECT_EQ(store.DatasetCacheGeneration("a"), gen_before);
  ASSERT_TRUE(store.GetDataset("a").ok());
  EXPECT_EQ(store.DatasetCacheGeneration("a"), gen_before);
}

TEST(DatastoreSpillTest, RestartRecoversSpilledDatasetsAndResults) {
  const std::string dir = FreshSpillDir("ds_restart");
  const GraphPtr original = ChainGraph(100);
  std::string graph_bytes_before;
  std::string result_bytes_before;
  uint64_t gen_before = 0;
  {
    Datastore store(nullptr, SpillOptions(dir));
    ASSERT_TRUE(store.PutDataset("a", original).ok());
    ASSERT_TRUE(store.PutDataset("b", ChainGraph(100)).ok());  // "a" → disk
    gen_before = *store.DatasetCacheGeneration("a");
    graph_bytes_before = original->Serialize();
    store.PutResult(RichResultFor("r1"));
    store.PutResult(RichResultFor("r2"));  // r1 → disk
    result_bytes_before = SerializeTaskResult(RichResultFor("r1"));
  }  // process "dies"; only the spill directory survives
  Datastore store(nullptr, SpillOptions(dir));
  EXPECT_GE(store.dataset_spill()->stats().recovered_files, 1u);
  EXPECT_GE(store.result_spill()->stats().recovered_files, 1u);
  // Spilled entries reload bit-identically after the restart.
  const GraphPtr graph = store.GetDataset("a").value();
  EXPECT_EQ(graph->Serialize(), graph_bytes_before);
  EXPECT_EQ(graph->MemoryBytes(), original->MemoryBytes());
  const TaskResult result = store.GetResult("r1").value();
  EXPECT_EQ(SerializeTaskResult(result), result_bytes_before);
  // The recovered binding keeps its generation; a *new* binding gets a
  // strictly larger one, so pre-restart fingerprints can never be served
  // for post-restart uploads.
  EXPECT_EQ(store.DatasetCacheGeneration("a"), gen_before);
  ASSERT_TRUE(store.PutDataset("fresh", ChainGraph(50)).ok());
  EXPECT_GT(*store.DatasetCacheGeneration("fresh"), gen_before);
}

TEST(DatastoreSpillTest, CorruptSpillFileDegradesToExpiredNotACrash) {
  const std::string dir = FreshSpillDir("ds_corrupt");
  {
    Datastore store(nullptr, SpillOptions(dir));
    ASSERT_TRUE(store.PutDataset("a", ChainGraph(100)).ok());
    ASSERT_TRUE(store.PutDataset("b", ChainGraph(100)).ok());  // "a" → disk
  }
  // Truncate every dataset spill file, as a crashed writer would.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".spill") {
      std::filesystem::resize_file(entry.path(), 10);
    }
  }
  // Recovery skips the torn file with a warning instead of crashing, and
  // the dataset is simply gone (its in-memory expiry marker died with the
  // old process, so it reports NotFound — indistinguishable from never
  // uploaded, which is all a fresh process can know).
  Datastore store(nullptr, SpillOptions(dir));
  EXPECT_GE(store.dataset_spill()->stats().skipped_corrupt_files, 1u);
  EXPECT_EQ(store.dataset_spill()->stats().recovered_files, 0u);
  EXPECT_FALSE(store.GetDataset("a").ok());
}

}  // namespace
}  // namespace cyclerank
