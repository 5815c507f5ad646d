#include "platform/platform_options.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/status.h"

namespace cyclerank {
namespace {

TEST(PlatformOptionsTest, EmptyStringYieldsDefaults) {
  const PlatformOptions parsed = PlatformOptions::FromString("").value();
  EXPECT_EQ(parsed, PlatformOptions{});
  EXPECT_EQ(parsed.graph_store_bytes, 0u);
  EXPECT_EQ(parsed.result_cache_bytes, ResultCache::kDefaultMaxBytes);
  EXPECT_EQ(parsed.max_retained_results, 0u);
  EXPECT_EQ(parsed.num_workers, 0u);
  EXPECT_EQ(parsed.default_threads, 0u);
  EXPECT_EQ(parsed.uuid_seed, 0u);
  EXPECT_EQ(parsed.max_tasks_per_submission, 0u);
  EXPECT_EQ(parsed.spill_dir, "");
  EXPECT_EQ(parsed.graph_spill_bytes, 0u);
  EXPECT_EQ(parsed.result_spill_bytes, 0u);
  EXPECT_EQ(parsed.spill_write_behind_bytes, 32u << 20);
}

TEST(PlatformOptionsTest, ParsesEveryKnob) {
  const PlatformOptions parsed =
      PlatformOptions::FromString(
          "graph_store_bytes=1000, result_cache_bytes=2000, "
          "max_retained_results=30, num_workers=4, default_threads=2, "
          "uuid_seed=99, max_tasks_per_submission=16, "
          "spill_dir=/tmp/spill, graph_spill_bytes=4000, "
          "result_spill_bytes=5000, spill_write_behind_bytes=6000, "
          "spill_compression=true")
          .value();
  EXPECT_EQ(parsed.graph_store_bytes, 1000u);
  EXPECT_EQ(parsed.result_cache_bytes, 2000u);
  EXPECT_EQ(parsed.max_retained_results, 30u);
  EXPECT_EQ(parsed.num_workers, 4u);
  EXPECT_EQ(parsed.default_threads, 2u);
  EXPECT_EQ(parsed.uuid_seed, 99u);
  EXPECT_EQ(parsed.max_tasks_per_submission, 16u);
  EXPECT_EQ(parsed.spill_dir, "/tmp/spill");
  EXPECT_EQ(parsed.graph_spill_bytes, 4000u);
  EXPECT_EQ(parsed.result_spill_bytes, 5000u);
  EXPECT_EQ(parsed.spill_write_behind_bytes, 6000u);
}

TEST(PlatformOptionsTest, KeysAreCaseInsensitiveAndWhitespaceTolerant) {
  const PlatformOptions parsed =
      PlatformOptions::FromString("  NUM_WORKERS = 8 ;  Uuid_Seed=5  ")
          .value();
  EXPECT_EQ(parsed.num_workers, 8u);
  EXPECT_EQ(parsed.uuid_seed, 5u);
}

TEST(PlatformOptionsTest, ByteKnobsAcceptBinarySuffixes) {
  EXPECT_EQ(PlatformOptions::FromString("graph_store_bytes=64m")
                .value()
                .graph_store_bytes,
            64u << 20);
  EXPECT_EQ(PlatformOptions::FromString("graph_store_bytes=64MiB")
                .value()
                .graph_store_bytes,
            64u << 20);
  EXPECT_EQ(PlatformOptions::FromString("result_cache_bytes=2k")
                .value()
                .result_cache_bytes,
            2048u);
  EXPECT_EQ(PlatformOptions::FromString("result_cache_bytes=1gb")
                .value()
                .result_cache_bytes,
            1u << 30);
}

TEST(PlatformOptionsTest, RoundTripsThroughToString) {
  PlatformOptions options;
  options.graph_store_bytes = 123456;
  options.result_cache_bytes = 0;
  options.max_retained_results = 77;
  options.num_workers = 3;
  options.default_threads = 5;
  options.uuid_seed = 42;
  options.max_tasks_per_submission = 9;
  options.spill_dir = "/var/tmp/cyclerank-spill";
  options.graph_spill_bytes = 1u << 20;
  options.result_spill_bytes = 2u << 20;
  options.spill_write_behind_bytes = 64u << 10;
  const PlatformOptions reparsed =
      PlatformOptions::FromString(options.ToString()).value();
  EXPECT_EQ(reparsed, options);
  // The retired num_shards knob is no longer rendered.
  EXPECT_EQ(options.ToString().find("num_shards"), std::string::npos);
  // Defaults round-trip too.
  EXPECT_EQ(PlatformOptions::FromString(PlatformOptions{}.ToString()).value(),
            PlatformOptions{});
  // The full uint64 seed range round-trips (a randomly drawn seed can
  // exceed int64's range).
  options.uuid_seed = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(PlatformOptions::FromString(options.ToString()).value(), options);
}

TEST(PlatformOptionsTest, UnknownKeysRejected) {
  const auto result = PlatformOptions::FromString("graph_store_byte=1g");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("graph_store_byte"),
            std::string::npos);
  EXPECT_FALSE(PlatformOptions::FromString("threads=4").ok());
}

TEST(PlatformOptionsTest, MalformedValuesRejected) {
  EXPECT_FALSE(PlatformOptions::FromString("num_workers=-1").ok());
  EXPECT_FALSE(PlatformOptions::FromString("num_workers=abc").ok());
  EXPECT_FALSE(PlatformOptions::FromString("graph_store_bytes=10q").ok());
  EXPECT_FALSE(PlatformOptions::FromString("graph_store_bytes=m").ok());
  EXPECT_FALSE(PlatformOptions::FromString("uuid_seed=-3").ok());
  EXPECT_FALSE(PlatformOptions::FromString("default_threads=4294967296").ok());
  EXPECT_FALSE(PlatformOptions::FromString("num_workers").ok());
}

TEST(PlatformOptionsTest, DuplicateKeysRejected) {
  EXPECT_FALSE(
      PlatformOptions::FromString("num_workers=2, num_workers=3").ok());
}

TEST(PlatformOptionsTest, SpillKnobsParse) {
  // Byte suffixes work on the spill budgets like on every byte knob.
  EXPECT_EQ(PlatformOptions::FromString("graph_spill_bytes=64m")
                .value()
                .graph_spill_bytes,
            64u << 20);
  EXPECT_EQ(PlatformOptions::FromString("result_spill_bytes=2k")
                .value()
                .result_spill_bytes,
            2048u);
  EXPECT_FALSE(PlatformOptions::FromString("graph_spill_bytes=abc").ok());
  // An explicitly empty spill_dir parses to the disabled default.
  EXPECT_EQ(PlatformOptions::FromString("spill_dir=").value().spill_dir, "");
}

/// Expects `text` to be rejected with `code` and a message naming `key`.
void ExpectRejected(std::string_view text, StatusCode code,
                    std::string_view key) {
  const auto parsed = PlatformOptions::FromString(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().code(), code) << text;
  EXPECT_NE(parsed.status().message().find(key), std::string::npos)
      << parsed.status().message();
}

TEST(PlatformOptionsTest, LsmKnobsParse) {
  // The write-behind bound takes byte suffixes. 0 would ask for the
  // removed synchronous mode: rejected, pointing at the barrier to use.
  EXPECT_EQ(PlatformOptions::FromString("spill_write_behind_bytes=8m")
                .value()
                .spill_write_behind_bytes,
            8u << 20);
  ExpectRejected("spill_write_behind_bytes=0", StatusCode::kInvalidArgument,
                 "spill_write_behind_bytes");
  EXPECT_NE(PlatformOptions::FromString("spill_write_behind_bytes=0")
                .status()
                .message()
                .find("Datastore::Flush()"),
            std::string::npos);
  // Spill payloads are always stored uncompressed: true/1/false/0 (any
  // case) are all accepted as the same no-op, anything else is a parse
  // error.
  for (const char* value : {"TRUE", "1", "false", "0", "False"}) {
    EXPECT_EQ(PlatformOptions::FromString(std::string("spill_compression=") +
                                          value)
                  .value(),
              PlatformOptions{})
        << value;
  }
  ExpectRejected("spill_compression=maybe", StatusCode::kParseError,
                 "spill_compression");
  EXPECT_FALSE(PlatformOptions::FromString("spill_write_behind_bytes=-1").ok());
}

TEST(PlatformOptionsTest, RetiredNumShardsKey) {
  // Kernels always run on the monolithic graph, which num_shards=0|1
  // always meant: those parse as no-ops so old configs keep working. A
  // real shard count is rejected, naming the key; garbage is a parse
  // error.
  EXPECT_EQ(PlatformOptions::FromString("num_shards=0").value(),
            PlatformOptions{});
  EXPECT_EQ(PlatformOptions::FromString("num_shards=1").value(),
            PlatformOptions{});
  ExpectRejected("num_shards=2", StatusCode::kInvalidArgument, "num_shards");
  ExpectRejected("num_shards=x", StatusCode::kParseError, "num_shards");
}

TEST(PlatformOptionsTest, AcceptsTheEndToEndBenchmarkDaemonOptions) {
  // The option string e2ebench/workloads.cc hands to cyclerankd (upload
  // churn shape). The benchmark's files are frozen, so these keys and
  // values must keep parsing.
  const auto parsed = PlatformOptions::FromString(
      "admission_queue_limit=64, default_deadline_ms=0, default_threads=1, "
      "io_threads=2, listen_port=0, max_connections=8, max_frame_bytes=64m, "
      "max_retained_results=4096, max_tasks_per_submission=16, "
      "num_shards=1, num_workers=2, result_cache_bytes=64m, "
      "spill_breaker_probe_ms=1000, spill_compression=true, "
      "spill_retry_backoff_ms=1, spill_retry_limit=3, "
      "spill_write_behind_bytes=32m, uuid_seed=1, graph_spill_bytes=256m, "
      "graph_store_bytes=2m, result_spill_bytes=256m, spill_dir=spill");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->spill_write_behind_bytes, 32u << 20);
  EXPECT_EQ(parsed->spill_dir, "spill");
}

TEST(PlatformOptionsTest, OutOfRangeSpillKnobsRejected) {
  // The tier keeps the retry limit in an int and compares the probe
  // interval in int64 nanoseconds: values that would wrap are refused
  // instead of silently disabling retries or overflowing.
  ExpectRejected("spill_retry_limit=4294967296", StatusCode::kOutOfRange,
                 "spill_retry_limit");
  ExpectRejected("spill_retry_limit=2147483648", StatusCode::kOutOfRange,
                 "spill_retry_limit");
  EXPECT_EQ(PlatformOptions::FromString("spill_retry_limit=2147483647")
                .value()
                .spill_retry_limit,
            2147483647u);
  ExpectRejected("spill_breaker_probe_ms=10000000000000",
                 StatusCode::kOutOfRange, "spill_breaker_probe_ms");
  ExpectRejected("spill_breaker_probe_ms=4294967296", StatusCode::kOutOfRange,
                 "spill_breaker_probe_ms");
  EXPECT_EQ(PlatformOptions::FromString("spill_breaker_probe_ms=4294967295")
                .value()
                .spill_breaker_probe_ms,
            4294967295u);
}

TEST(PlatformOptionsTest, FaultHandlingKnobsParse) {
  // The PR-8 retry/breaker/overload knobs: plain integers, with the
  // defaults documented in the header.
  const PlatformOptions defaults = PlatformOptions::FromString("").value();
  EXPECT_EQ(defaults.spill_retry_limit, 3u);
  EXPECT_EQ(defaults.spill_retry_backoff_ms, 1u);
  EXPECT_EQ(defaults.spill_breaker_probe_ms, 1000u);
  EXPECT_EQ(defaults.admission_queue_limit, 0u);
  EXPECT_EQ(defaults.default_deadline_ms, 0u);

  const PlatformOptions parsed =
      PlatformOptions::FromString(
          "spill_retry_limit=5, spill_retry_backoff_ms=2, "
          "spill_breaker_probe_ms=250, admission_queue_limit=64, "
          "default_deadline_ms=1500")
          .value();
  EXPECT_EQ(parsed.spill_retry_limit, 5u);
  EXPECT_EQ(parsed.spill_retry_backoff_ms, 2u);
  EXPECT_EQ(parsed.spill_breaker_probe_ms, 250u);
  EXPECT_EQ(parsed.admission_queue_limit, 64u);
  EXPECT_EQ(parsed.default_deadline_ms, 1500u);

  // Round trip through the canonical text form, defaults included.
  EXPECT_EQ(PlatformOptions::FromString(parsed.ToString()).value(), parsed);

  EXPECT_FALSE(PlatformOptions::FromString("spill_retry_limit=-1").ok());
  EXPECT_FALSE(PlatformOptions::FromString("default_deadline_ms=soon").ok());
  EXPECT_FALSE(PlatformOptions::FromString("admission_queue_limit=").ok());
}

TEST(PlatformOptionsTest, ResolvedNumWorkers) {
  PlatformOptions options;
  options.num_workers = 7;
  EXPECT_EQ(options.ResolvedNumWorkers(), 7u);
  options.num_workers = 0;
  EXPECT_GE(options.ResolvedNumWorkers(), 1u);
}

}  // namespace
}  // namespace cyclerank
