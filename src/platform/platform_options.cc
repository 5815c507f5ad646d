#include "platform/platform_options.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <thread>

#include "common/strings.h"
#include "platform/params.h"

namespace cyclerank {

namespace {

/// Full-range uint64 parser (ParseInt64 tops out at 2^63-1, which would
/// break the documented ToString/FromString round-trip for large seeds).
Result<uint64_t> ParseUint64(std::string_view key, std::string_view text) {
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::ParseError("platform options: " + std::string(key) +
                              " expects a non-negative integer (< 2^64), got '" +
                              std::string(text) + "'");
  }
  return value;
}

/// Parses a byte-size value: a non-negative integer with an optional
/// binary suffix ("64m", "1gib", "512k"). Plain integers are bytes.
Result<size_t> ParseByteSize(std::string_view key, const std::string& text) {
  size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == 0) {
    return Status::ParseError("platform options: " + std::string(key) +
                              " expects a byte count, got '" + text + "'");
  }
  CYCLERANK_ASSIGN_OR_RETURN(
      uint64_t value,
      ParseUint64(key, std::string_view(text).substr(0, digits)));
  const std::string suffix = AsciiToLower(
      StripAsciiWhitespace(std::string_view(text).substr(digits)));
  uint64_t multiplier = 1;
  if (suffix.empty()) {
    multiplier = 1;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    multiplier = 1ull << 10;
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    multiplier = 1ull << 20;
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    multiplier = 1ull << 30;
  } else {
    return Status::ParseError("platform options: " + std::string(key) +
                              " has unknown byte-size suffix '" + suffix +
                              "' (expected k/kb/kib, m/mb/mib, g/gb/gib)");
  }
  if (multiplier != 1 &&
      value > std::numeric_limits<uint64_t>::max() / multiplier) {
    return Status::OutOfRange("platform options: " + std::string(key) + "='" +
                              text + "' overflows a byte count");
  }
  return static_cast<size_t>(value * multiplier);
}

Result<size_t> ParseCount(std::string_view key, const std::string& text) {
  CYCLERANK_ASSIGN_OR_RETURN(uint64_t value, ParseUint64(key, text));
  return static_cast<size_t>(value);
}

}  // namespace

Result<PlatformOptions> PlatformOptions::FromString(std::string_view text) {
  // Reuse the task-parameter grammar: comma/semicolon separated key=value,
  // whitespace-tolerant, lowercased keys, duplicates rejected.
  CYCLERANK_ASSIGN_OR_RETURN(ParamMap params, ParamMap::Parse(text));
  PlatformOptions options;
  for (const std::string& key : params.Keys()) {
    const std::string value = params.GetString(key, "");
    if (key == "graph_store_bytes") {
      CYCLERANK_ASSIGN_OR_RETURN(options.graph_store_bytes,
                                 ParseByteSize(key, value));
    } else if (key == "result_cache_bytes") {
      CYCLERANK_ASSIGN_OR_RETURN(options.result_cache_bytes,
                                 ParseByteSize(key, value));
    } else if (key == "max_retained_results") {
      CYCLERANK_ASSIGN_OR_RETURN(options.max_retained_results,
                                 ParseCount(key, value));
    } else if (key == "num_workers") {
      CYCLERANK_ASSIGN_OR_RETURN(options.num_workers, ParseCount(key, value));
    } else if (key == "default_threads") {
      CYCLERANK_ASSIGN_OR_RETURN(size_t threads, ParseCount(key, value));
      if (threads > std::numeric_limits<uint32_t>::max()) {
        return Status::OutOfRange(
            "platform options: default_threads must be in [0, 2^32), got " +
            value);
      }
      options.default_threads = static_cast<uint32_t>(threads);
    } else if (key == "num_shards") {
      // Accepted for old configs: every kernel runs on the monolithic CSR,
      // which 0 and 1 always meant.
      CYCLERANK_ASSIGN_OR_RETURN(size_t shards, ParseCount(key, value));
      if (shards > 1) {
        return Status::InvalidArgument(
            "platform options: num_shards=" + value +
            " is no longer supported (shard-local execution was removed; "
            "kernels always run on the monolithic graph)");
      }
    } else if (key == "uuid_seed") {
      CYCLERANK_ASSIGN_OR_RETURN(options.uuid_seed, ParseUint64(key, value));
    } else if (key == "max_tasks_per_submission") {
      CYCLERANK_ASSIGN_OR_RETURN(options.max_tasks_per_submission,
                                 ParseCount(key, value));
    } else if (key == "spill_dir") {
      options.spill_dir = value;
    } else if (key == "graph_spill_bytes") {
      CYCLERANK_ASSIGN_OR_RETURN(options.graph_spill_bytes,
                                 ParseByteSize(key, value));
    } else if (key == "result_spill_bytes") {
      CYCLERANK_ASSIGN_OR_RETURN(options.result_spill_bytes,
                                 ParseByteSize(key, value));
    } else if (key == "spill_write_behind_bytes") {
      CYCLERANK_ASSIGN_OR_RETURN(options.spill_write_behind_bytes,
                                 ParseByteSize(key, value));
      if (options.spill_write_behind_bytes == 0) {
        return Status::InvalidArgument(
            "platform options: spill_write_behind_bytes must be > 0 (spilling "
            "is always write-behind; call Datastore::Flush() for a "
            "durability barrier)");
      }
    } else if (key == "spill_compression") {
      // Accepted for old configs and ignored, whatever its boolean value:
      // spill payloads are always written uncompressed.
      const std::string lowered = AsciiToLower(value);
      if (lowered != "true" && lowered != "1" && lowered != "false" &&
          lowered != "0") {
        return Status::ParseError(
            "platform options: spill_compression expects true/1/false/0 "
            "(it has no effect), got '" + value + "'");
      }
    } else if (key == "spill_retry_limit") {
      CYCLERANK_ASSIGN_OR_RETURN(options.spill_retry_limit,
                                 ParseCount(key, value));
      if (options.spill_retry_limit >
          static_cast<size_t>(std::numeric_limits<int>::max())) {
        return Status::OutOfRange(
            "platform options: spill_retry_limit must be in [0, 2^31), got " +
            value);
      }
    } else if (key == "spill_retry_backoff_ms") {
      CYCLERANK_ASSIGN_OR_RETURN(options.spill_retry_backoff_ms,
                                 ParseUint64(key, value));
    } else if (key == "spill_breaker_probe_ms") {
      CYCLERANK_ASSIGN_OR_RETURN(options.spill_breaker_probe_ms,
                                 ParseUint64(key, value));
      if (options.spill_breaker_probe_ms >= (uint64_t{1} << 32)) {
        return Status::OutOfRange(
            "platform options: spill_breaker_probe_ms must be in [0, 2^32), "
            "got " + value);
      }
    } else if (key == "listen_port") {
      CYCLERANK_ASSIGN_OR_RETURN(uint64_t port, ParseUint64(key, value));
      if (port > 65535) {
        return Status::OutOfRange(
            "platform options: listen_port must be in [0, 65535], got " +
            value);
      }
      options.listen_port = static_cast<uint16_t>(port);
    } else if (key == "max_connections") {
      CYCLERANK_ASSIGN_OR_RETURN(options.max_connections,
                                 ParseCount(key, value));
    } else if (key == "max_frame_bytes") {
      CYCLERANK_ASSIGN_OR_RETURN(options.max_frame_bytes,
                                 ParseByteSize(key, value));
    } else if (key == "io_threads") {
      CYCLERANK_ASSIGN_OR_RETURN(options.io_threads, ParseCount(key, value));
    } else if (key == "admission_queue_limit") {
      CYCLERANK_ASSIGN_OR_RETURN(options.admission_queue_limit,
                                 ParseCount(key, value));
    } else if (key == "default_deadline_ms") {
      CYCLERANK_ASSIGN_OR_RETURN(options.default_deadline_ms,
                                 ParseUint64(key, value));
    } else {
      // Unknown keys are rejected, mirroring BuildRequest: a typo like
      // "graph_store_byte=1g" silently running unbounded would defeat the
      // deployment config.
      return Status::InvalidArgument("platform options: unknown key '" + key +
                                     "'");
    }
  }
  return options;
}

std::string PlatformOptions::ToString() const {
  // Sorted keys, plain byte counts: the canonical form round-trips through
  // FromString exactly.
  std::string out;
  const auto append = [&out](std::string_view key, uint64_t value) {
    if (!out.empty()) out += ", ";
    out += std::string(key) + "=" + std::to_string(value);
  };
  append("admission_queue_limit", admission_queue_limit);
  append("default_deadline_ms", default_deadline_ms);
  append("default_threads", default_threads);
  append("graph_spill_bytes", graph_spill_bytes);
  append("graph_store_bytes", graph_store_bytes);
  append("io_threads", io_threads);
  append("listen_port", listen_port);
  append("max_connections", max_connections);
  append("max_frame_bytes", max_frame_bytes);
  append("max_retained_results", max_retained_results);
  append("max_tasks_per_submission", max_tasks_per_submission);
  append("num_workers", num_workers);
  append("result_cache_bytes", result_cache_bytes);
  append("result_spill_bytes", result_spill_bytes);
  append("spill_breaker_probe_ms", spill_breaker_probe_ms);
  // The string-valued knob rides as-is, in sorted-key order; an empty
  // spill_dir parses back to the empty (disabled) default.
  out += ", spill_dir=" + spill_dir;
  append("spill_retry_backoff_ms", spill_retry_backoff_ms);
  append("spill_retry_limit", spill_retry_limit);
  append("spill_write_behind_bytes", spill_write_behind_bytes);
  append("uuid_seed", uuid_seed);
  return out;
}

size_t PlatformOptions::ResolvedNumWorkers() const {
  if (num_workers != 0) return num_workers;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

}  // namespace cyclerank
