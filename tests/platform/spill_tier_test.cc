#include "platform/spill_tier.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/env.h"
#include "common/logging.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

namespace fs = std::filesystem;

/// Captures warning+ log lines for the duration of a test.
class LogCapture {
 public:
  LogCapture() {
    Logger::Global().set_sink([this](LogLevel level, std::string_view msg) {
      if (level >= LogLevel::kWarning) lines_.emplace_back(msg);
    });
  }
  ~LogCapture() { Logger::Global().set_sink(nullptr); }

  bool Contains(std::string_view needle) const {
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  size_t size() const { return lines_.size(); }

 private:
  std::vector<std::string> lines_;
};

/// The bytes of the only spill file in `dir` (the manifest excluded).
std::string OnlySpillFileBytes(const std::string& dir) {
  std::string bytes;
  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".spill") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    ++files;
  }
  EXPECT_EQ(files, 1) << "expected exactly one spill file in " << dir;
  return bytes;
}

/// `n` seeded pseudo-random bytes: `CompressBlock` stores them verbatim.
std::string IncompressibleBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string bytes;
  bytes.reserve(n);
  for (size_t i = 0; i < n; ++i) bytes.push_back(static_cast<char>(rng() & 0xff));
  return bytes;
}

/// Inverts the byte `from_end` bytes before the end of every spill file in
/// `dir`, keeping the size: bit rot the checksum or codec must catch.
void FlipSpillFileByte(const std::string& dir, std::streamoff from_end) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".spill") continue;
    std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                        std::ios::binary);
    file.seekg(-from_end, std::ios::end);
    const int byte = file.get();
    file.seekp(-from_end, std::ios::end);
    file.put(static_cast<char>(byte ^ 0xff));
  }
}

TEST(SpillTierTest, PutGetRoundTripWithMeta) {
  SpillTier tier(FreshSpillDir("roundtrip"), SpillTierOptions{}, "dataset");
  ASSERT_TRUE(tier.enabled());
  // The payload is opaque bytes — embedded NULs and high bytes included.
  const std::string payload("payload\0bytes\xff", 14);
  ASSERT_TRUE(PutAndFlush(tier, "my key / with+specials", payload, 42).ok());
  EXPECT_TRUE(tier.Contains("my key / with+specials"));
  EXPECT_EQ(tier.Meta("my key / with+specials"), 42u);
  const SpillTier::Loaded loaded = tier.Get("my key / with+specials").value();
  EXPECT_EQ(loaded.payload, payload);
  EXPECT_EQ(loaded.meta, 42u);
  EXPECT_EQ(tier.stats().spills, 1u);
  EXPECT_EQ(tier.stats().reloads, 1u);
}

TEST(SpillTierTest, MissesAndErase) {
  SpillTier tier(FreshSpillDir("misses"), SpillTierOptions{}, "dataset");
  EXPECT_EQ(tier.Get("ghost").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(tier.Put("a", "x").ok());
  tier.Erase("a");
  EXPECT_FALSE(tier.Contains("a"));
  // Erase is supersession, not budget pressure: no pruned marker.
  EXPECT_FALSE(tier.WasPruned("a"));
  EXPECT_EQ(tier.Get("a").status().code(), StatusCode::kNotFound);
}

TEST(SpillTierTest, OverwriteReplacesPayloadAndAccounting) {
  SpillTier tier(FreshSpillDir("overwrite"), SpillTierOptions{}, "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "k", IncompressibleBytes(1000, 1), 1).ok());
  const size_t bytes_before = tier.stats().bytes;
  ASSERT_TRUE(PutAndFlush(tier, "k", "tiny", 2).ok());
  EXPECT_EQ(tier.Get("k").value().payload, "tiny");
  EXPECT_EQ(tier.Meta("k"), 2u);
  EXPECT_EQ(tier.stats().entries, 1u);
  EXPECT_LT(tier.stats().bytes, bytes_before);
}

TEST(SpillTierTest, BudgetPrunesLeastRecentlyUsed) {
  // Each file is 100 incompressible payload bytes + a 49-byte header; a
  // 3-file budget.
  const std::string payload = IncompressibleBytes(100, 2);
  SpillTierOptions options;
  options.max_bytes = 3 * (payload.size() + 64);
  SpillTier tier(FreshSpillDir("prune"), options, "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "a", payload).ok());
  ASSERT_TRUE(PutAndFlush(tier, "b", payload).ok());
  ASSERT_TRUE(PutAndFlush(tier, "c", payload).ok());
  // Touch "a" so "b" is the LRU victim of the next Put.
  ASSERT_TRUE(tier.Get("a").ok());
  ASSERT_TRUE(PutAndFlush(tier, "d", payload).ok());
  EXPECT_TRUE(tier.Contains("a"));
  EXPECT_FALSE(tier.Contains("b"));
  EXPECT_TRUE(tier.WasPruned("b"));
  const Status pruned = tier.Get("b").status();
  EXPECT_EQ(pruned.code(), StatusCode::kExpired);
  EXPECT_NE(pruned.message().find("pruned"), std::string::npos);
  EXPECT_EQ(tier.stats().prunes, 1u);
  // Re-spilling a pruned key revives it.
  ASSERT_TRUE(PutAndFlush(tier, "b", payload).ok());
  EXPECT_FALSE(tier.WasPruned("b"));
}

TEST(SpillTierTest, RecoveryRestoresEntriesAndRecencyOrder) {
  const std::string dir = FreshSpillDir("recovery");
  const std::string payload = IncompressibleBytes(50, 3);
  {
    SpillTier tier(dir, SpillTierOptions{}, "dataset");
    ASSERT_TRUE(PutAndFlush(tier, "cold", payload, 7).ok());
    ASSERT_TRUE(PutAndFlush(tier, "warm", payload, 8).ok());
    ASSERT_TRUE(PutAndFlush(tier, "hot", payload, 9).ok());
  }
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 3u);
  EXPECT_EQ(revived.Keys(),
            (std::vector<std::string>{"cold", "hot", "warm"}));
  EXPECT_EQ(revived.Meta("cold"), 7u);
  EXPECT_EQ(revived.MaxMeta(), 9u);
  EXPECT_EQ(revived.Get("warm").value().payload, payload);
  // Recency order survived via the manifest: under a budget that holds
  // only three files, the next Put prunes "cold" first.
  SpillTierOptions options;
  options.max_bytes = 3 * (payload.size() + 64);
  SpillTier bounded(dir, options, "dataset");
  ASSERT_TRUE(PutAndFlush(bounded, "new", payload, 10).ok());
  EXPECT_EQ(bounded.stats().prunes, 1u);
  EXPECT_FALSE(bounded.Contains("cold"));
  EXPECT_TRUE(bounded.Contains("hot"));
  EXPECT_TRUE(bounded.Contains("warm"));
}

TEST(SpillTierTest, TruncatedFileSkippedAtRecoveryWithWarning) {
  const std::string dir = FreshSpillDir("truncated");
  {
    SpillTier tier(dir, SpillTierOptions{}, "dataset");
    ASSERT_TRUE(tier.Put("whole", std::string(100, 'w')).ok());
    ASSERT_TRUE(tier.Put("torn", std::string(100, 't')).ok());
  }
  // Truncate one spill file, as a crashed writer would.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("torn", 0) == 0) {
      fs::resize_file(entry.path(), 20);
    }
  }
  LogCapture log;
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 1u);
  EXPECT_EQ(revived.stats().skipped_corrupt_files, 1u);
  EXPECT_TRUE(log.Contains("skipping spill file"));
  EXPECT_TRUE(revived.Contains("whole"));
  EXPECT_FALSE(revived.Contains("torn"));
  EXPECT_EQ(revived.Get("torn").status().code(), StatusCode::kNotFound);
}

TEST(SpillTierTest, BitRotDetectedByChecksumOnGet) {
  const std::string dir = FreshSpillDir("bitrot");
  SpillTier tier(dir, SpillTierOptions{}, "dataset");
  // Incompressible, so the file ends in a stored block: the flipped last
  // byte is a raw payload byte and only the checksum can catch it.
  ASSERT_TRUE(PutAndFlush(tier, "k", IncompressibleBytes(100, 4)).ok());
  FlipSpillFileByte(dir, 1);
  LogCapture log;
  const Status status = tier.Get("k").status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("corrupt"), std::string::npos);
  EXPECT_TRUE(log.Contains("checksum"));
  // The corrupt entry was dropped, not retried forever.
  EXPECT_FALSE(tier.Contains("k"));
  EXPECT_EQ(tier.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(SpillTierTest, StragglerFilesWithoutManifestAreRecovered) {
  const std::string dir = FreshSpillDir("straggler");
  {
    SpillTier tier(dir, SpillTierOptions{}, "dataset");
    ASSERT_TRUE(tier.Put("a", "payload-a", 1).ok());
    ASSERT_TRUE(tier.Put("b", "payload-b", 2).ok());
  }
  fs::remove(fs::path(dir) / "manifest");
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 2u);
  EXPECT_EQ(revived.Get("a").value().payload, "payload-a");
  EXPECT_EQ(revived.Get("b").value().payload, "payload-b");
}

TEST(SpillTierTest, DisabledTierDegradesGracefully) {
  // A path that cannot be created: a regular file occupies the name.
  const std::string parent = FreshSpillDir("disabled");
  const std::string blocked = parent + "/occupied";
  std::ofstream(blocked) << "not a directory";
  LogCapture log;
  SpillTier tier(blocked + "/sub", SpillTierOptions{}, "dataset");
  EXPECT_FALSE(tier.enabled());
  EXPECT_EQ(tier.Put("k", "v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tier.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(SpillTierTest, LongKeysGetHashedFileNames) {
  SpillTier tier(FreshSpillDir("longkeys"), SpillTierOptions{}, "dataset");
  const std::string long_a(500, 'a');
  const std::string long_b = long_a + "b";  // same 160-char prefix
  ASSERT_TRUE(PutAndFlush(tier, long_a, "payload-a").ok());
  ASSERT_TRUE(PutAndFlush(tier, long_b, "payload-b").ok());
  EXPECT_EQ(tier.Get(long_a).value().payload, "payload-a");
  EXPECT_EQ(tier.Get(long_b).value().payload, "payload-b");
}

// ---- PR 6: write-behind buffer, compression, key filter --------------------

SpillTierOptions WriteBehind(size_t buffer_bytes, size_t max_bytes = 0) {
  SpillTierOptions options;
  options.max_bytes = max_bytes;
  options.write_behind_bytes = buffer_bytes;
  return options;
}

TEST(SpillTierWriteBehindTest, ReadYourWriteBeforeFlush) {
  SpillTier tier(FreshSpillDir("wb_ryw"), WriteBehind(1u << 20), "dataset");
  tier.SetFlushPausedForTest(true);  // hold the entry in the buffer
  ASSERT_TRUE(tier.Put("k", "buffered payload", 5).ok());
  // Fully visible before any byte reaches disk.
  EXPECT_TRUE(tier.Contains("k"));
  EXPECT_EQ(tier.Meta("k"), 5u);
  EXPECT_EQ(tier.Keys(), (std::vector<std::string>{"k"}));
  EXPECT_EQ(tier.MaxMeta(), 5u);
  const SpillTier::Loaded loaded = tier.Get("k").value();
  EXPECT_EQ(loaded.payload, "buffered payload");
  EXPECT_EQ(loaded.meta, 5u);
  SpillTierStats stats = tier.stats();
  EXPECT_EQ(stats.buffer_hits, 1u);
  EXPECT_EQ(stats.queue_depth, 1u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_EQ(stats.entries, 0u);  // nothing on disk yet
  // After the barrier the entry lives on disk and reads come from there.
  tier.SetFlushPausedForTest(false);
  tier.Flush();
  stats = tier.stats();
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(tier.Get("k").value().payload, "buffered payload");
  EXPECT_EQ(tier.stats().reloads, 1u);
}

TEST(SpillTierWriteBehindTest, DestructionDrainsBufferLosingNothing) {
  const std::string dir = FreshSpillDir("wb_drain");
  {
    SpillTier tier(dir, WriteBehind(1u << 20), "dataset");
    tier.SetFlushPausedForTest(true);
    ASSERT_TRUE(tier.Put("a", "payload-a", 1).ok());
    ASSERT_TRUE(tier.Put("b", "payload-b", 2).ok());
    ASSERT_TRUE(tier.Put("c", "payload-c", 3).ok());
    EXPECT_EQ(tier.stats().queue_depth, 3u);
    // Destruction overrides the pause and drains every buffered write.
  }
  SpillTier revived(dir, WriteBehind(1u << 20), "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 3u);
  EXPECT_EQ(revived.Get("a").value().payload, "payload-a");
  EXPECT_EQ(revived.Get("b").value().payload, "payload-b");
  EXPECT_EQ(revived.Get("c").value().payload, "payload-c");
  EXPECT_EQ(revived.MaxMeta(), 3u);
}

/// Pauses the flusher, queues `entries` Puts, resumes and flushes; returns
/// the `Env` calls that took. Each flushed file costs two (tmp write,
/// rename), and so does each manifest rewrite.
uint64_t EnvOpsToFlushABatch(SpillTier& tier, FaultInjectingEnv& env,
                             size_t entries) {
  const uint64_t before = env.stats().ops;
  tier.SetFlushPausedForTest(true);
  for (size_t i = 0; i < entries; ++i) {
    EXPECT_TRUE(tier.Put("k" + std::to_string(i), "payload", 1).ok());
  }
  tier.SetFlushPausedForTest(false);
  EXPECT_TRUE(tier.Flush().ok());
  return env.stats().ops - before;
}

TEST(SpillTierWriteBehindTest, ManifestWrittenOncePerDrainedBatch) {
  FaultInjectingEnv env(Env::Default());
  SpillTierOptions options = WriteBehind(1u << 20);
  options.env = &env;
  const std::string dir = FreshSpillDir("wb_manifest_batch");
  {
    SpillTier tier(dir, options, "dataset");
    // 8 files and one manifest rewrite for the whole batch, and Flush() is
    // a barrier that includes it.
    EXPECT_EQ(EnvOpsToFlushABatch(tier, env, 8), 8u * 2 + 2);
  }
  // The batch-end manifest lists every entry: recovery finds all 8.
  SpillTier revived(dir, options, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 8u);
  std::ifstream manifest(dir + "/manifest");
  std::string line;
  int listed = -1;  // the first line is the format magic
  while (std::getline(manifest, line)) ++listed;
  EXPECT_EQ(listed, 8);
}

TEST(SpillTierWriteBehindTest, ManifestRewrittenWithinABatchThatStaysBusy) {
  // The queue holds 2.5 caps' worth of entries when the flusher resumes,
  // so it stays non-empty until the last one: the manifest is rewritten
  // after each `kManifestBatchFiles` files, and once more when it drains.
  FaultInjectingEnv env(Env::Default());
  SpillTierOptions options = WriteBehind(1u << 20);
  options.env = &env;
  SpillTier tier(FreshSpillDir("wb_manifest_cap"), options, "dataset");
  constexpr size_t kEntries = 2 * SpillTier::kManifestBatchFiles +
                           SpillTier::kManifestBatchFiles / 2;
  EXPECT_EQ(EnvOpsToFlushABatch(tier, env, kEntries), kEntries * 2 + 3 * 2);
}

TEST(SpillTierWriteBehindTest, BackpressureEngagesAtByteBound) {
  // A bound smaller than two payloads: the first Put is admitted alone,
  // the second must wait for the flusher.
  SpillTier tier(FreshSpillDir("wb_backpressure"), WriteBehind(2048),
                 "dataset");
  tier.SetFlushPausedForTest(true);
  ASSERT_TRUE(tier.Put("first", std::string(1500, 'x')).ok());
  std::atomic<bool> second_done{false};
  std::thread blocked([&] {
    ASSERT_TRUE(tier.Put("second", std::string(1500, 'y')).ok());
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_done.load()) << "Put must block past the byte bound";
  tier.SetFlushPausedForTest(false);  // let the flusher drain "first"
  blocked.join();
  EXPECT_TRUE(second_done.load());
  tier.Flush();
  EXPECT_GE(tier.stats().backpressure_waits, 1u);
  EXPECT_EQ(tier.Get("first").value().payload, std::string(1500, 'x'));
  EXPECT_EQ(tier.Get("second").value().payload, std::string(1500, 'y'));
}

TEST(SpillTierWriteBehindTest, OverwriteWhileBufferedServesNewest) {
  const std::string dir = FreshSpillDir("wb_overwrite");
  {
    SpillTier tier(dir, WriteBehind(1u << 20), "dataset");
    tier.SetFlushPausedForTest(true);
    ASSERT_TRUE(tier.Put("k", "version-1", 1).ok());
    ASSERT_TRUE(tier.Put("k", "version-2", 2).ok());
    EXPECT_EQ(tier.Get("k").value().payload, "version-2");
    EXPECT_EQ(tier.Meta("k"), 2u);
    EXPECT_EQ(tier.stats().queue_depth, 1u);  // one key, newest wins
    tier.SetFlushPausedForTest(false);
    tier.Flush();
    EXPECT_EQ(tier.Get("k").value().payload, "version-2");
  }
  SpillTier revived(dir, WriteBehind(1u << 20), "dataset");
  EXPECT_EQ(revived.Get("k").value().payload, "version-2");
  EXPECT_EQ(revived.Meta("k"), 2u);
}

TEST(SpillTierWriteBehindTest, EraseWhileBufferedDropsTheEntry) {
  SpillTier tier(FreshSpillDir("wb_erase"), WriteBehind(1u << 20), "dataset");
  tier.SetFlushPausedForTest(true);
  ASSERT_TRUE(tier.Put("gone", "payload").ok());
  tier.Erase("gone");
  EXPECT_FALSE(tier.Contains("gone"));
  tier.SetFlushPausedForTest(false);
  tier.Flush();
  EXPECT_FALSE(tier.Contains("gone"));
  EXPECT_EQ(tier.Get("gone").status().code(), StatusCode::kNotFound);
  // Not budget pressure — the caller superseded it.
  EXPECT_FALSE(tier.WasPruned("gone"));
}

TEST(SpillTierWriteBehindTest, ErasePrefixDropsBufferedAndDiskEntries) {
  SpillTier tier(FreshSpillDir("wb_eraseprefix"), WriteBehind(1u << 20),
                 "dataset");
  ASSERT_TRUE(tier.Put("p/disk", "on disk").ok());
  tier.Flush();  // p/disk reaches disk
  tier.SetFlushPausedForTest(true);
  ASSERT_TRUE(tier.Put("p/buffered", "in buffer").ok());
  ASSERT_TRUE(tier.Put("q/kept", "stays").ok());
  EXPECT_EQ(tier.ErasePrefix("p/"), 2u);
  EXPECT_FALSE(tier.Contains("p/disk"));
  EXPECT_FALSE(tier.Contains("p/buffered"));
  EXPECT_TRUE(tier.Contains("q/kept"));
  tier.SetFlushPausedForTest(false);
  tier.Flush();
  EXPECT_EQ(tier.Get("p/buffered").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tier.Get("q/kept").value().payload, "stays");
}

TEST(SpillTierWriteBehindTest, OversizePayloadPrunedOnFlush) {
  // Budget far below the file size: Put still accepts the enqueue (the
  // check runs on the flush thread), then the entry is dropped and
  // remembered as pruned.
  SpillTier tier(FreshSpillDir("wb_oversize"), WriteBehind(1u << 20, 64),
                 "result");
  LogCapture log;
  // Incompressible payload so the encoded file genuinely exceeds 64 bytes.
  ASSERT_TRUE(tier.Put("big", IncompressibleBytes(1000, 7)).ok());
  tier.Flush();
  EXPECT_FALSE(tier.Contains("big"));
  EXPECT_TRUE(tier.WasPruned("big"));
  EXPECT_EQ(tier.Get("big").status().code(), StatusCode::kExpired);
  EXPECT_TRUE(log.Contains("larger than the entire spill budget"));
}

TEST(SpillTierCompressionTest, CompressedFilesRoundTripBitIdentically) {
  SpillTier tier(FreshSpillDir("cmp_roundtrip"), SpillTierOptions{},
                 "dataset");
  // Repetitive payload (the CSR shape) — must take the LZ path.
  std::string payload;
  for (uint32_t i = 0; i < 20000; ++i) payload += "abcdefgh";
  ASSERT_TRUE(PutAndFlush(tier, "k", payload, 9).ok());
  const SpillTierStats stats = tier.stats();
  EXPECT_LT(stats.bytes, stats.raw_bytes)
      << "compressible payload must shrink on disk";
  EXPECT_EQ(stats.raw_bytes, payload.size());
  const SpillTier::Loaded loaded = tier.Get("k").value();
  EXPECT_EQ(loaded.payload, payload);
  EXPECT_EQ(loaded.meta, 9u);
}

TEST(SpillTierCompressionTest, CorruptCompressedPayloadDegradesToMiss) {
  const std::string dir = FreshSpillDir("cmp_bitrot");
  SpillTier tier(dir, SpillTierOptions{}, "dataset");
  std::string payload;
  for (uint32_t i = 0; i < 5000; ++i) payload += "abcdefgh";
  ASSERT_TRUE(PutAndFlush(tier, "k", payload).ok());
  // Flip a byte inside the compressed block without changing the size —
  // either the block fails to decode or the raw checksum mismatches;
  // both must degrade to a dropped entry, never corrupt output.
  FlipSpillFileByte(dir, 3);
  LogCapture log;
  const Status status = tier.Get("k").status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("corrupt"), std::string::npos);
  EXPECT_FALSE(tier.Contains("k"));
  EXPECT_EQ(tier.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(SpillTierCompressionTest, V2FileBytesArePinned) {
  // FNV-1a of the whole CYSP2 file written for a fixed (key, payload,
  // meta), one LZ-compressed and one stored-block payload. A change to the
  // header layout, the checksum, or the block codec changes these.
  std::string compressible;
  for (int i = 0; i < 2000; ++i) compressible += std::to_string(i % 37) + ",";
  const struct {
    std::string payload;
    size_t file_bytes;
    uint64_t fnv;
  } cases[] = {
      {compressible, 169, 0x0e32c2a6e5eee219ull},
      {IncompressibleBytes(600, 16), 661, 0x3164dcce76614fb2ull},
  };
  for (const auto& c : cases) {
    const std::string dir = FreshSpillDir("format_v2_golden");
    {
      SpillTier tier(dir, SpillTierOptions{}, "dataset");
      ASSERT_TRUE(tier.Put("golden/key 1", c.payload, 0x0123456789abcdefull)
                      .ok());
      ASSERT_TRUE(tier.Flush().ok());
    }
    const std::string file = OnlySpillFileBytes(dir);
    ASSERT_EQ(file.substr(0, 6), "CYSP2\n");
    EXPECT_EQ(file.size(), c.file_bytes);
    EXPECT_EQ(binio::Fnv1a64(file), c.fnv) << std::hex << "0x"
                                           << binio::Fnv1a64(file);
  }
}

/// Appends `v` little-endian, spelled out byte by byte so the CYSP1 layout
/// is pinned independently of the codec helpers under test.
void AppendLe64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// A hand-encoded CYSP1 (uncompressed, no longer written) spill file.
std::string EncodeV1File(const std::string& key, const std::string& payload,
                         uint64_t meta) {
  std::string file = "CYSP1\n";
  AppendLe64(&file, meta);
  AppendLe64(&file, binio::Fnv1a64(payload));
  AppendLe64(&file, key.size());
  file += key;
  AppendLe64(&file, payload.size());
  file += payload;
  return file;
}

TEST(SpillTierCompressionTest, UncompressedV1FilesStillLoad) {
  // A directory left by an older process that wrote v1 files: one intact,
  // one with a flipped payload byte (its header is fine, its checksum is
  // not). File names are what the tier derives from the keys.
  const std::string dir = FreshSpillDir("format_v1");
  const std::string payload(5000, 'v');
  std::ofstream(fs::path(dir) / "old.spill", std::ios::binary)
      << EncodeV1File("old", payload, 7);
  std::string rotten = EncodeV1File("rot", payload, 9);
  rotten[rotten.size() - 100] ^= 0x01;
  std::ofstream(fs::path(dir) / "rot.spill", std::ios::binary) << rotten;

  SpillTier tier(dir, SpillTierOptions{}, "dataset");
  // Recovery validates headers only: both files are indexed.
  EXPECT_EQ(tier.stats().recovered_files, 2u);
  EXPECT_EQ(tier.stats().raw_bytes, 2 * payload.size());
  EXPECT_EQ(tier.Meta("old"), 7u);
  EXPECT_EQ(tier.MaxMeta(), 9u);
  const SpillTier::Loaded loaded = tier.Get("old").value();
  EXPECT_EQ(loaded.payload, payload);
  EXPECT_EQ(loaded.meta, 7u);
  // The checksum catches the flipped byte on Get: dropped as corrupt.
  LogCapture log;
  const Status rot = tier.Get("rot").status();
  EXPECT_EQ(rot.code(), StatusCode::kIOError);
  EXPECT_NE(rot.message().find("corrupt"), std::string::npos);
  EXPECT_TRUE(log.Contains("checksum"));
  EXPECT_FALSE(tier.Contains("rot"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "rot.spill"));

  // New writes are v2 and coexist with the v1 file across a restart.
  ASSERT_TRUE(PutAndFlush(tier, "new", payload, 8).ok());
  std::ifstream written(fs::path(dir) / "new.spill", std::ios::binary);
  std::string magic(6, '\0');
  written.read(magic.data(), 6);
  EXPECT_EQ(magic, "CYSP2\n");
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 2u);
  EXPECT_EQ(revived.stats().skipped_corrupt_files, 0u);
  EXPECT_EQ(revived.Meta("old"), 7u);
  EXPECT_EQ(revived.Meta("new"), 8u);
  EXPECT_EQ(revived.Get("old").value().payload, payload);
  EXPECT_EQ(revived.Get("new").value().payload, payload);
}

TEST(SpillTierFilterTest, ColdMissesShortCircuitWithoutDiskProbes) {
  SpillTier tier(FreshSpillDir("filter_cold"), WriteBehind(1u << 20),
                 "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "present", "payload").ok());
  // A key never stored is answered by the filter alone: the counter
  // increments and the exact-index miss counter does not — no lock was
  // taken, no directory probe happened.
  EXPECT_EQ(tier.Get("never-stored").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(tier.Contains("also-never-stored"));
  const SpillTierStats stats = tier.stats();
  EXPECT_EQ(stats.filter_negatives, 2u);
  EXPECT_EQ(stats.misses, 0u);
  // Present keys pass the filter and resolve exactly.
  EXPECT_TRUE(tier.Contains("present"));
}

TEST(SpillTierFilterTest, FilterIsRebuiltByRecovery) {
  const std::string dir = FreshSpillDir("filter_recovery");
  {
    SpillTier tier(dir, WriteBehind(1u << 20), "dataset");
    ASSERT_TRUE(tier.Put("survivor", "payload", 3).ok());
  }
  SpillTier revived(dir, WriteBehind(1u << 20), "dataset");
  // The recovered key passes the filter and reloads; a stranger still
  // short-circuits.
  EXPECT_EQ(revived.Get("survivor").value().payload, "payload");
  EXPECT_EQ(revived.Get("stranger").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(revived.stats().filter_negatives, 1u);
  EXPECT_EQ(revived.stats().misses, 0u);
}

}  // namespace
}  // namespace cyclerank
