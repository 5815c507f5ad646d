#include "platform/spill_tier.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/env.h"
#include "common/logging.h"
#include "platform/datastore.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

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

/// The bytes of the only spill file in `dir`.
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

/// `n` seeded pseudo-random bytes.
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

/// Every file name in `dir`, sorted.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(SpillTierTest, RecoveryRestoresEntriesInFilenameOrder) {
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
  // Recency is not persisted: a restart lists the files by name, the first
  // name most recent, whatever order they were spilled or read in. Under a
  // budget that holds only three files, the next Put prunes "warm".
  SpillTierOptions options;
  options.max_bytes = 3 * (payload.size() + 64);
  SpillTier bounded(dir, options, "dataset");
  ASSERT_TRUE(PutAndFlush(bounded, "new", payload, 10).ok());
  EXPECT_EQ(bounded.stats().prunes, 1u);
  EXPECT_TRUE(bounded.Contains("cold"));
  EXPECT_TRUE(bounded.Contains("hot"));
  EXPECT_FALSE(bounded.Contains("warm"));
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
  // The file ends in a stored block: the flipped last byte is a raw
  // payload byte and only the checksum can catch it.
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

// ---- write-behind buffer, file format, cold misses -------------------------

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
/// the `Env` calls that took. Each flushed file costs two: its tmp write
/// and the rename into place.
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

TEST(SpillTierWriteBehindTest, FlushedEntryCostsOneWriteAndOneRename) {
  FaultInjectingEnv env(Env::Default());
  SpillTierOptions options = WriteBehind(1u << 20);
  options.env = &env;
  const std::string dir = FreshSpillDir("wb_env_ops");
  {
    SpillTier tier(dir, options, "dataset");
    // Flush() is a barrier over every Env call of the batch; no other
    // file is written besides the entries' own.
    EXPECT_EQ(EnvOpsToFlushABatch(tier, env, 8), 16u);
    std::vector<std::string> expected;
    for (int i = 0; i < 8; ++i) {
      expected.push_back("k" + std::to_string(i) + ".spill");
    }
    EXPECT_EQ(FileNames(dir), expected);
  }
  SpillTier revived(dir, options, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 8u);
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

TEST(SpillTierWriteBehindTest, EraseDropsBufferedAndDiskEntries) {
  const std::string dir = FreshSpillDir("wb_erase_both");
  SpillTier tier(dir, WriteBehind(1u << 20), "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "p-disk", "on disk").ok());
  tier.SetFlushPausedForTest(true);
  ASSERT_TRUE(tier.Put("p-buffered", "in buffer").ok());
  ASSERT_TRUE(tier.Put("q-kept", "stays").ok());
  tier.Erase("p-disk");
  tier.Erase("p-buffered");
  EXPECT_FALSE(tier.Contains("p-disk"));
  EXPECT_FALSE(tier.Contains("p-buffered"));
  EXPECT_TRUE(tier.Contains("q-kept"));
  tier.SetFlushPausedForTest(false);
  ASSERT_TRUE(tier.Flush().ok());
  EXPECT_EQ(tier.Get("p-buffered").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tier.Get("q-kept").value().payload, "stays");
  EXPECT_EQ(FileNames(dir), (std::vector<std::string>{"q-kept.spill"}));
}

TEST(SpillTierWriteBehindTest, OversizePayloadPrunedOnFlush) {
  // Budget far below the file size: Put still accepts the enqueue (the
  // check runs on the flush thread), then the entry is dropped and
  // remembered as pruned.
  SpillTier tier(FreshSpillDir("wb_oversize"), WriteBehind(1u << 20, 64),
                 "result");
  LogCapture log;
  ASSERT_TRUE(tier.Put("big", IncompressibleBytes(1000, 7)).ok());
  tier.Flush();
  EXPECT_FALSE(tier.Contains("big"));
  EXPECT_TRUE(tier.WasPruned("big"));
  EXPECT_EQ(tier.Get("big").status().code(), StatusCode::kExpired);
  EXPECT_TRUE(log.Contains("larger than the entire spill budget"));
}

TEST(SpillTierCompressionTest, RepetitivePayloadIsStoredVerbatim) {
  const std::string dir = FreshSpillDir("cmp_roundtrip");
  SpillTier tier(dir, SpillTierOptions{}, "dataset");
  // Even a payload an LZ coder would shrink is written verbatim: 39
  // header bytes for key "k" and a 160,000-byte payload, then the payload.
  std::string payload;
  for (uint32_t i = 0; i < 20000; ++i) payload += "abcdefgh";
  ASSERT_TRUE(PutAndFlush(tier, "k", payload, 9).ok());
  const SpillTierStats stats = tier.stats();
  EXPECT_EQ(stats.raw_bytes, payload.size());
  EXPECT_EQ(stats.bytes, payload.size() + 39);
  const std::string file = OnlySpillFileBytes(dir);
  EXPECT_EQ(file.substr(39), payload);
  const SpillTier::Loaded loaded = tier.Get("k").value();
  EXPECT_EQ(loaded.payload, payload);
  EXPECT_EQ(loaded.meta, 9u);
}

/// The payload of `kLzFixtureFile`: "0,1,...,36," over and over, 5,458
/// bytes.
std::string LzFixturePayload() {
  std::string payload;
  for (int i = 0; i < 2000; ++i) payload += std::to_string(i % 37) + ",";
  return payload;
}

/// A CYSP2 file whose payload is an LZ block, byte for byte as older
/// versions wrote it for key "golden/key 1", meta 0x0123456789abcdef and
/// `LzFixturePayload()`. Files like it may still sit in a spill directory
/// and hold the only copy of an upload, so they must keep loading.
const std::string kLzFixtureFile =
    "CYSP2\n"
    "\xef\xcd\xab\x89\x67\x45\x23\x01"  // meta
    "\xfa\xab\xc2\x06\x06\x23\x7f\xc8"  // FNV-1a 64 of the raw payload
    "\x0c\x00\x00\x00\x00\x00\x00\x00"  // key length 12
    "golden/key 1"
    "\x52\x15\x00\x00\x00\x00\x00\x00"  // raw payload size 5458
    "\x6f\x00\x00\x00\x00\x00\x00\x00"  // block length 111
    "\x01\xd2\x2a"                      // LZ block, raw size 5458
    "\x65"                               // 101 literals
    "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,"
    "26,27,28,29,30,31,32,33,34,35,36,"
    "\xed\x29\x65\x00"                  // 5357-byte match at offset 101
    "\x00\x00"s;                         // no literals, end of stream

/// Places `file` in a fresh tier directory under the name the tier derives
/// from the fixture's key; returns the directory.
std::string LzFixtureDir(const std::string& name, const std::string& file) {
  const std::string dir = FreshSpillDir(name);
  std::ofstream(fs::path(dir) / "golden%2fkey%201.spill", std::ios::binary)
      << file;
  return dir;
}

TEST(SpillTierCompressionTest, LzBlockFilesStillLoad) {
  ASSERT_EQ(kLzFixtureFile.size(), 169u);
  ASSERT_EQ(binio::Fnv1a64(kLzFixtureFile), 0x0e32c2a6e5eee219ull);
  const std::string dir = LzFixtureDir("format_v2_lz", kLzFixtureFile);
  for (int open = 0; open < 2; ++open) {  // a restart reads it again
    SpillTier tier(dir, SpillTierOptions{}, "dataset");
    const SpillTierStats stats = tier.stats();
    EXPECT_EQ(stats.recovered_files, 1u);
    EXPECT_EQ(stats.skipped_corrupt_files, 0u);
    EXPECT_EQ(stats.bytes, 169u);
    EXPECT_EQ(stats.raw_bytes, LzFixturePayload().size());
    EXPECT_EQ(tier.Meta("golden/key 1"), 0x0123456789abcdefull);
    const SpillTier::Loaded loaded = tier.Get("golden/key 1").value();
    EXPECT_EQ(loaded.payload, LzFixturePayload());
    EXPECT_EQ(loaded.meta, 0x0123456789abcdefull);
  }
}

TEST(SpillTierCompressionTest, CorruptCompressedPayloadDegradesToMiss) {
  // One flipped byte inside the LZ block, the size unchanged: a literal
  // decodes to the wrong bytes and fails the raw checksum, a match offset
  // reaching before the output fails to decode. Both drop the entry,
  // never hand out corrupt bytes.
  const struct {
    size_t from_end;
    const char* why;
  } flips[] = {{10, "checksum"}, {3, "does not decode"}};
  for (const auto& flip : flips) {
    SCOPED_TRACE(flip.why);
    std::string rotten = kLzFixtureFile;
    rotten[rotten.size() - flip.from_end] ^= 0xff;
    const std::string dir = LzFixtureDir("cmp_bitrot", rotten);
    SpillTier tier(dir, SpillTierOptions{}, "dataset");
    EXPECT_EQ(tier.stats().recovered_files, 1u);  // the header is intact
    LogCapture log;
    const Status status = tier.Get("golden/key 1").status();
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_NE(status.message().find("corrupt"), std::string::npos);
    EXPECT_TRUE(log.Contains(flip.why));
    EXPECT_FALSE(tier.Contains("golden/key 1"));
    EXPECT_EQ(tier.Get("golden/key 1").status().code(), StatusCode::kNotFound);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "golden%2fkey%201.spill"));
  }
}

/// Appends `v` little-endian, spelled out byte by byte so the file layouts
/// are pinned independently of the codec helpers under test.
void AppendLe64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// A hand-encoded raw-body spill file: CYSP1 (FNV-1a, no longer written)
/// or CYSP3 (XXH64, the format written).
std::string EncodeRawBodyFile(const std::string& magic, uint64_t checksum,
                              const std::string& key,
                              const std::string& payload, uint64_t meta) {
  std::string file = magic;
  AppendLe64(&file, meta);
  AppendLe64(&file, checksum);
  AppendLe64(&file, key.size());
  file += key;
  AppendLe64(&file, payload.size());
  file += payload;
  return file;
}

std::string EncodeV1File(const std::string& key, const std::string& payload,
                         uint64_t meta) {
  return EncodeRawBodyFile("CYSP1\n", binio::Fnv1a64(payload), key, payload,
                           meta);
}

/// A hand-encoded CYSP2 file (no longer written) holding the payload as a
/// stored block.
std::string EncodeV2File(const std::string& key, const std::string& payload,
                         uint64_t meta) {
  std::string block(1, '\0');  // stored
  binio::AppendVarint(&block, payload.size());
  block += payload;
  std::string file = "CYSP2\n";
  AppendLe64(&file, meta);
  AppendLe64(&file, binio::Fnv1a64(payload));
  AppendLe64(&file, key.size());
  file += key;
  AppendLe64(&file, payload.size());
  AppendLe64(&file, block.size());
  return file + block;
}

/// The (key, payload, meta) of the pinned CYSP2 and CYSP3 files.
const std::string kGoldenKey = "golden/key 1";
constexpr uint64_t kGoldenMeta = 0x0123456789abcdefull;
std::string GoldenPayload() { return IncompressibleBytes(600, 16); }

TEST(SpillTierCompressionTest, V2FileBytesArePinned) {
  // The CYSP2 file older versions wrote for the golden entry: the payload
  // as a stored block. Writers no longer make it, but it must keep loading.
  // (An LZ-block CYSP2 file is pinned too: `LzBlockFilesStillLoad`.)
  const std::string payload = GoldenPayload();
  const std::string file = EncodeV2File(kGoldenKey, payload, kGoldenMeta);
  ASSERT_EQ(file.size(), 661u);
  ASSERT_EQ(binio::Fnv1a64(file), 0x3164dcce76614fb2ull)
      << std::hex << "0x" << binio::Fnv1a64(file);
  const std::string dir = LzFixtureDir("format_v2_golden", file);
  SpillTier tier(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(tier.stats().recovered_files, 1u);
  EXPECT_EQ(tier.stats().bytes, 661u);
  EXPECT_EQ(tier.stats().raw_bytes, payload.size());
  const SpillTier::Loaded loaded = tier.Get(kGoldenKey).value();
  EXPECT_EQ(loaded.payload, payload);
  EXPECT_EQ(loaded.meta, kGoldenMeta);
}

TEST(SpillTierCompressionTest, V3FileBytesArePinned) {
  // The CYSP3 file written for the golden entry: the CYSP2 file above less
  // its 11 block bytes (raw-size word, mode byte, size varint), with an
  // XXH64 checksum. A change to the header layout or the checksum changes
  // the FNV-1a of the whole file.
  const std::string dir = FreshSpillDir("format_v3_golden");
  {
    SpillTier tier(dir, SpillTierOptions{}, "dataset");
    ASSERT_TRUE(tier.Put(kGoldenKey, GoldenPayload(), kGoldenMeta).ok());
    ASSERT_TRUE(tier.Flush().ok());
  }
  const std::string file = OnlySpillFileBytes(dir);
  EXPECT_EQ(file, EncodeRawBodyFile("CYSP3\n", binio::Xxh64(GoldenPayload()),
                                    kGoldenKey, GoldenPayload(), kGoldenMeta));
  EXPECT_EQ(file.size(), 650u);
  EXPECT_EQ(binio::Fnv1a64(file), 0xb70d1003728e28b3ull)
      << std::hex << "0x" << binio::Fnv1a64(file);
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

  // New writes are CYSP3 and coexist with the v1 file across a restart.
  ASSERT_TRUE(PutAndFlush(tier, "new", payload, 8).ok());
  std::ifstream written(fs::path(dir) / "new.spill", std::ios::binary);
  std::string magic(6, '\0');
  written.read(magic.data(), 6);
  EXPECT_EQ(magic, "CYSP3\n");
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 2u);
  EXPECT_EQ(revived.stats().skipped_corrupt_files, 0u);
  EXPECT_EQ(revived.Meta("old"), 7u);
  EXPECT_EQ(revived.Meta("new"), 8u);
  EXPECT_EQ(revived.Get("old").value().payload, payload);
  EXPECT_EQ(revived.Get("new").value().payload, payload);
}

/// Checks that recovering `dir` lists `keys` most recent first, read back
/// through pruning: for every k, a copy recovered under a budget that fits
/// exactly the first k files keeps exactly those keys, because recovery
/// prunes least recent first. The copies leave `dir` itself untouched.
void ExpectRecoveredRecency(const std::string& dir,
                            const std::vector<std::string>& keys) {
  size_t budget = 0;
  for (size_t k = 1; k <= keys.size(); ++k) {
    budget += fs::file_size(fs::path(dir) / (keys[k - 1] + ".spill"));
    const std::string copy = FreshSpillDir("recency_probe");
    fs::copy(dir, copy, fs::copy_options::recursive);
    SpillTierOptions options;
    options.max_bytes = budget;
    SpillTier tier(copy, options, "dataset");
    std::vector<std::string> kept(keys.begin(), keys.begin() + k);
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(tier.Keys(), kept) << dir << ": budget of the first " << k;
  }
}

/// Every regular file under `root` with its bytes, keyed by relative path.
std::map<std::string, std::string> FileContents(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[fs::relative(entry.path(), root).string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

TEST(SpillTierTest, SpillDirOfTheOlderLayoutRecovers) {
  // The layout older versions left under a spill_dir: `datasets/` and
  // `results/` tiers holding CYSP1 and CYSP2 files, each with a `manifest`
  // (a recency order recovery no longer reads, naming one file that is
  // gone) and a torn `manifest.tmp`, plus a `cache/` tier that is no
  // longer opened. Opening the tiers deletes the leftovers.
  const std::string root = FreshSpillDir("older_layout");
  const auto payload_of = [](const std::string& sub, const std::string& key) {
    std::string payload;
    for (int i = 0; i < 300; ++i) payload += sub + "/" + key + ";";
    return payload;
  };
  const std::vector<std::string> keys = {"a1", "b2", "c1", "d2"};
  for (const std::string sub : {"datasets", "results", "cache"}) {
    const std::string dir = root + "/" + sub;
    fs::create_directories(dir);
    std::ofstream(fs::path(dir) / "b2.spill", std::ios::binary)
        << EncodeV2File("b2", payload_of(sub, "b2"), 2);
    std::ofstream(fs::path(dir) / "d2.spill", std::ios::binary)
        << EncodeV2File("d2", payload_of(sub, "d2"), 4);
    std::ofstream(fs::path(dir) / "a1.spill", std::ios::binary)
        << EncodeV1File("a1", payload_of(sub, "a1"), 1);
    std::ofstream(fs::path(dir) / "c1.spill", std::ios::binary)
        << EncodeV1File("c1", payload_of(sub, "c1"), 3);
    const std::string manifest =
        "cyclerank-spill-manifest v1\nd2.spill\ngone.spill\nc1.spill\n"
        "a1.spill\nb2.spill\n";
    std::ofstream(fs::path(dir) / "manifest") << manifest;
    std::ofstream(fs::path(dir) / "manifest.tmp") << manifest.substr(0, 40);
  }
  // Split the tree into the leftovers and the tiers' own *.spill files.
  std::map<std::string, std::string> spills = FileContents(root);
  std::map<std::string, std::string> leftovers;
  for (auto it = spills.begin(); it != spills.end();) {
    const bool leftover = it->first.rfind("cache/", 0) == 0 ||
                          it->first.find("manifest") != std::string::npos;
    if (!leftover) {
      ++it;
      continue;
    }
    leftovers.insert(*it);
    it = spills.erase(it);
  }
  ASSERT_EQ(leftovers.size(), 2u * 2 + 4 + 2);
  ASSERT_EQ(spills.size(), 2u * 4);

  for (const std::string sub : {"datasets", "results"}) {
    SCOPED_TRACE(sub);
    const std::string dir = root + "/" + sub;
    // The stale manifest does not order anything: the LRU lists the files
    // by name, the first name most recent.
    ExpectRecoveredRecency(dir, keys);
    {
      SpillTier tier(dir, SpillTierOptions{}, sub);
      EXPECT_EQ(tier.stats().recovered_files, 4u);
      EXPECT_EQ(tier.stats().skipped_corrupt_files, 0u);
      EXPECT_EQ(tier.MaxMeta(), 4u);
      // Read coldest first: recency moves in memory only.
      for (auto key = keys.rbegin(); key != keys.rend(); ++key) {
        EXPECT_EQ(tier.Get(*key).value().payload, payload_of(sub, *key))
            << *key;
      }
    }
    // A second recovery of the same directory gives the same order.
    ExpectRecoveredRecency(dir, keys);
  }
  // The datastore opens only the two tiers it still has.
  {
    PlatformOptions options;
    options.spill_dir = root;
    Datastore store(nullptr, options);
    EXPECT_EQ(store.SpillStats().datasets.recovered_files, 4u);
    EXPECT_EQ(store.SpillStats().results.recovered_files, 4u);
    ASSERT_TRUE(store.Flush().ok());
  }
  // Opening removed every leftover, `cache/` included; the recovered
  // *.spill files are all that is left, byte for byte.
  const std::map<std::string, std::string> after = FileContents(root);
  for (const auto& [path, bytes] : leftovers) {
    EXPECT_EQ(after.count(path), 0u) << path;
  }
  EXPECT_FALSE(fs::exists(fs::path(root) / "cache"));
  EXPECT_EQ(after, spills);
}

TEST(SpillTierColdMissTest, ColdMissesNeverTouchTheFilesystem) {
  FaultInjectingEnv env(Env::Default());
  SpillTierOptions options = WriteBehind(1u << 20);
  options.env = &env;
  SpillTier tier(FreshSpillDir("cold_miss"), options, "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "present", "payload").ok());
  // A key never stored is answered from the buffer and the index: no Env
  // call. Only Get counts a miss.
  const uint64_t ops = env.stats().ops;
  EXPECT_EQ(tier.Get("never-stored").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(tier.Contains("also-never-stored"));
  EXPECT_EQ(tier.Meta("never-stored"), std::nullopt);
  EXPECT_EQ(env.stats().ops, ops);
  EXPECT_EQ(tier.stats().misses, 1u);
  // Present keys resolve exactly.
  EXPECT_TRUE(tier.Contains("present"));
  EXPECT_EQ(tier.Meta("present"), 0u);
}

TEST(SpillTierColdMissTest, RecoveredKeysLoadAndStrangersMissColdly) {
  const std::string dir = FreshSpillDir("cold_miss_recovery");
  {
    SpillTier tier(dir, WriteBehind(1u << 20), "dataset");
    ASSERT_TRUE(tier.Put("survivor", "payload", 3).ok());
  }
  FaultInjectingEnv env(Env::Default());
  SpillTierOptions options = WriteBehind(1u << 20);
  options.env = &env;
  SpillTier revived(dir, options, "dataset");
  // The recovered key reloads; a stranger misses without an Env call.
  EXPECT_EQ(revived.Get("survivor").value().payload, "payload");
  EXPECT_EQ(revived.Meta("survivor"), 3u);
  const uint64_t ops = env.stats().ops;
  EXPECT_EQ(revived.Get("stranger").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(revived.Contains("stranger"));
  EXPECT_EQ(revived.Meta("stranger"), std::nullopt);
  EXPECT_EQ(env.stats().ops, ops);
  EXPECT_EQ(revived.stats().misses, 1u);
}

}  // namespace
}  // namespace cyclerank
