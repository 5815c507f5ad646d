#include "platform/spill_tier.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/backoff.h"
#include "common/binary_io.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/mutex.h"

namespace cyclerank {
namespace {

/// Spill file layouts (all integers little-endian).
///
/// v1 (uncompressed — no longer written, but read forever: a spill
/// directory from an older process may hold the only copy of an upload):
///   magic "CYSP1\n"                        6 bytes
///   meta word (opaque to the tier)         u64
///   FNV-1a 64 checksum of the payload      u64
///   original key                           u64 length + bytes
///   payload                                u64 length + bytes
///
/// v2 (compressed; the only format written): checksum-then-compress
/// — the checksum is still computed over the *raw* payload, so bit-rot
/// detection is identical to v1, and the raw size travels in the header so
/// recovery can account uncompressed bytes without decoding anything:
///   magic "CYSP2\n"                        6 bytes
///   meta word                              u64
///   FNV-1a 64 checksum of the RAW payload  u64
///   original key                           u64 length + bytes
///   raw payload size                       u64
///   binio::CompressBlock(payload)          u64 length + bytes
///
/// The key is stored *in* the file, so recovery never has to invert the
/// filename encoding, and a renamed file still identifies itself.
constexpr std::string_view kSpillMagicV2 = "CYSP2\n";
constexpr size_t kMagicBytes = 6;
constexpr size_t kFixedHeaderBytes = kMagicBytes + 8 + 8;  // magic+meta+sum

constexpr std::string_view kManifestName = "manifest";
constexpr std::string_view kManifestMagic = "cyclerank-spill-manifest v1";
constexpr std::string_view kSpillSuffix = ".spill";

/// Per-entry overhead charged to the write-behind buffer on top of the
/// payload's own estimate (map node, queue slot, bookkeeping).
constexpr size_t kBufferEntryOverhead = 64;

/// Cap on a single retry backoff delay regardless of how many doublings
/// the retry budget allows.
constexpr uint64_t kRetryBackoffCapMs = 100;

class BytesSpillPayload final : public SpillPayload {
 public:
  explicit BytesSpillPayload(std::string bytes) : bytes_(std::move(bytes)) {}
  std::string Serialize() const override { return bytes_; }
  size_t ApproxBytes() const override { return bytes_.size(); }

 private:
  const std::string bytes_;
};

/// Filesystem-safe, injective encoding of a key: alphanumerics and
/// `._-` pass through, everything else is %-escaped. Over-long names are
/// truncated with the full key's hash appended (the true key is read from
/// the file, never decoded from the name).
std::string SpillFileName(const std::string& key) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() + 8);
  for (const char c : key) {
    const auto byte = static_cast<unsigned char>(c);
    if (std::isalnum(byte) != 0 || c == '.' || c == '_' || c == '-') {
      out += c;
    } else {
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    }
  }
  if (out.size() > 200) {
    std::string hash;
    binio::AppendU64(&hash, binio::Fnv1a64(key));
    std::string hex;
    for (const char c : hash) {
      const auto byte = static_cast<unsigned char>(c);
      hex += kHex[byte >> 4];
      hex += kHex[byte & 0xf];
    }
    out = out.substr(0, 160) + "-" + hex;
  }
  return out + std::string(kSpillSuffix);
}

/// A spill file's header: every field but the payload bytes.
struct SpillFileHeader {
  bool compressed = false;  ///< v2 (block-compressed body) vs v1
  uint64_t meta = 0;
  uint64_t checksum = 0;    ///< FNV-1a 64 of the raw payload
  std::string key;
  uint64_t raw_bytes = 0;   ///< uncompressed payload size
  uint64_t file_bytes = 0;  ///< size of the whole file
  size_t body_offset = 0;   ///< start of the payload (v1) or block (v2)
};

/// The one decoder of both header layouts, shared by the recovery scan
/// (which reads only file prefixes) and `Get` (which has the whole file).
/// `read_prefix(n)` yields the file's first `n` bytes, fewer if it is
/// shorter; `file_bytes` is its size. Validates the magic, the key length,
/// and that the declared body ends exactly at the end of the file; the
/// payload itself is neither read nor verified. Returns nullopt with a
/// reason for corrupt, truncated, or unreadable files.
std::optional<SpillFileHeader> DecodeSpillHeader(
    uint64_t file_bytes,
    const std::function<Result<std::string>(size_t)>& read_prefix,
    std::string* why) {
  constexpr std::string_view kSpillMagicV1 = "CYSP1\n";  // read-only
  constexpr size_t key_offset = kFixedHeaderBytes + 8;  // after key length
  Result<std::string> fixed = read_prefix(key_offset);
  if (!fixed.ok()) {
    *why = "unreadable (" + fixed.status().message() + ")";
    return std::nullopt;
  }
  if (fixed->size() < key_offset) {
    *why = "truncated before the key";
    return std::nullopt;
  }
  const std::string_view magic =
      std::string_view(*fixed).substr(0, kMagicBytes);
  SpillFileHeader header;
  header.file_bytes = file_bytes;
  if (magic == kSpillMagicV2) {
    header.compressed = true;
  } else if (magic != kSpillMagicV1) {
    *why = "bad magic";
    return std::nullopt;
  }
  binio::Reader reader(std::string_view(*fixed).substr(kMagicBytes));
  uint64_t key_len = 0;
  (void)reader.ReadU64(&header.meta);
  (void)reader.ReadU64(&header.checksum);
  (void)reader.ReadU64(&key_len);
  if (key_len > file_bytes - std::min<uint64_t>(file_bytes, key_offset)) {
    *why = "key length exceeds the file";
    return std::nullopt;
  }
  // v1 carries one length word after the key (payload), v2 two (raw size
  // + encoded block length).
  header.body_offset = key_offset + static_cast<size_t>(key_len) +
                       (header.compressed ? 16 : 8);
  Result<std::string> head = read_prefix(header.body_offset);
  if (!head.ok()) {
    *why = "unreadable (" + head.status().message() + ")";
    return std::nullopt;
  }
  if (head->size() < header.body_offset) {
    *why = "truncated inside the key";
    return std::nullopt;
  }
  header.key = head->substr(key_offset, static_cast<size_t>(key_len));
  binio::Reader tail_reader(std::string_view(*head).substr(
      key_offset + static_cast<size_t>(key_len)));
  uint64_t body_len = 0;
  if (header.compressed) (void)tail_reader.ReadU64(&header.raw_bytes);
  (void)tail_reader.ReadU64(&body_len);
  if (!header.compressed) header.raw_bytes = body_len;
  if (body_len != file_bytes - header.body_offset) {
    *why = "payload length disagrees with the file size (truncated write?)";
    return std::nullopt;
  }
  return header;
}

/// The on-disk image of one entry: the v2 header + the compressed payload.
std::string EncodeSpillFile(const std::string& key, std::string_view raw,
                            uint64_t meta) {
  const std::string encoded = binio::CompressBlock(raw);
  std::string file;
  file.reserve(kFixedHeaderBytes + 32 + key.size() + encoded.size());
  file.append(kSpillMagicV2);
  binio::AppendU64(&file, meta);
  binio::AppendU64(&file, binio::Fnv1a64(raw));
  binio::AppendString(&file, key);
  binio::AppendU64(&file, raw.size());
  binio::AppendString(&file, encoded);
  return file;
}

}  // namespace

SpillPayloadPtr MakeBytesSpillPayload(std::string bytes) {
  return std::make_shared<const BytesSpillPayload>(std::move(bytes));
}

SpillTier::SpillTier(std::string dir, SpillTierOptions options,
                     std::string what)
    : dir_(std::move(dir)),
      options_(options),
      what_(std::move(what)),
      env_(options.env != nullptr ? options.env : Env::Default()),
      lru_(options.max_bytes) {
  {
    MutexLock lock(mu_);
    const Status created = env_->CreateDirs(dir_);
    if (!created.ok()) {
      CYCLERANK_LOG(kError) << "spill tier (" << what_
                            << "): cannot create directory '" << dir_ << "': "
                            << created.message() << "; tier disabled, "
                            << "eviction degrades to drop";
      return;
    }
    enabled_ = true;
    RecoverLocked();
  }
  flusher_ = std::thread(&SpillTier::FlushWorker, this);
}

SpillTier::~SpillTier() {
  if (flusher_.joinable()) {  // not started for a disabled tier
    {
      MutexLock lock(buffer_mu_);
      stop_ = true;
      flush_paused_ = false;  // destruction overrides a test pause
    }
    work_cv_.NotifyAll();
    flusher_.join();
  }
  // Durability losses the owner never asked Flush() about still must not
  // vanish silently: shutdown is the last chance to say so.
  MutexLock lock(mu_);
  if (unreported_flush_failures_ != 0) {
    CYCLERANK_LOG(kError) << "spill tier (" << what_ << "): destroyed with "
                          << unreported_flush_failures_
                          << " buffered write(s) that never reached disk "
                          << "(marked pruned); last error: "
                          << last_flush_error_.message();
  }
}

void SpillTier::RecoverLocked() {
  // Pass 1: every *.spill file with a valid header, keyed by filename.
  std::map<std::string, SpillFileHeader> valid;
  Result<std::vector<std::string>> listing = env_->ListDir(dir_);
  if (!listing.ok()) {
    CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                            << "): recovery scan cannot list '" << dir_
                            << "': " << listing.status().message()
                            << "; starting empty";
  } else {
    for (const std::string& filename : *listing) {
      if (filename.size() < kSpillSuffix.size() ||
          filename.compare(filename.size() - kSpillSuffix.size(),
                           kSpillSuffix.size(), kSpillSuffix) != 0) {
        continue;  // the manifest, temp files, strangers
      }
      const std::string path = dir_ + "/" + filename;
      std::string why;
      std::optional<SpillFileHeader> header;
      if (Result<uint64_t> size = env_->FileSize(path); !size.ok()) {
        why = "unreadable (" + size.status().message() + ")";
      } else {
        // Only prefixes are read: checksums are verified on `Get`, when
        // the payload is needed anyway.
        header = DecodeSpillHeader(
            *size, [&](size_t n) { return env_->ReadFilePrefix(path, n); },
            &why);
      }
      if (!header.has_value()) {
        ++stats_.skipped_corrupt_files;
        CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                                << "): skipping spill file '" << filename
                                << "' during recovery: " << why;
        continue;
      }
      valid.emplace(filename, std::move(*header));
    }
  }
  // Pass 2: recency order — manifest-listed files first (hottest first),
  // unlisted stragglers appended coldest, sorted by name for determinism.
  std::vector<std::string> ordered;
  std::set<std::string> listed;
  bool manifest_ok = false;
  Result<std::string> manifest =
      env_->ReadFile(dir_ + "/" + std::string(kManifestName));
  if (manifest.ok()) {
    std::istringstream in(*manifest);
    std::string line;
    if (std::getline(in, line) && line == kManifestMagic) {
      manifest_ok = true;
      while (std::getline(in, line)) {
        if (!line.empty() && valid.count(line) != 0 &&
            listed.insert(line).second) {
          ordered.push_back(line);
        }
      }
    }
  }
  for (const auto& [filename, info] : valid) {
    if (listed.count(filename) == 0) ordered.push_back(filename);
  }
  // Insert coldest-first so the front of the LRU ends up hottest.
  for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
    const SpillFileHeader& info = valid.at(*it);
    if (lru_.Contains(info.key)) {
      ++stats_.skipped_corrupt_files;
      CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                              << "): skipping spill file '" << *it
                              << "': duplicate key '" << info.key << "'";
      continue;
    }
    lru_.Insert(info.key, Info{info.meta, info.raw_bytes},
                static_cast<size_t>(info.file_bytes));
    raw_bytes_ += info.raw_bytes;
    FilterAdd(info.key);
    ++stats_.recovered_files;
  }
  if (stats_.recovered_files != 0 || stats_.skipped_corrupt_files != 0) {
    CYCLERANK_LOG(kInfo) << "spill tier (" << what_ << "): recovered "
                         << stats_.recovered_files << " " << what_
                         << "(s) from '" << dir_ << "' ("
                         << lru_.bytes() << " bytes), skipped "
                         << stats_.skipped_corrupt_files;
  }
  PruneLocked();
  if (!manifest_ok || stats_.skipped_corrupt_files != 0 ||
      stats_.prunes != 0) {
    WriteManifestLocked();
  }
}

Status SpillTier::Put(const std::string& key, SpillPayloadPtr payload,
                      uint64_t meta) {
  if (!enabled_) {
    return Status::FailedPrecondition("spill tier (" + what_ +
                                      "): disabled (directory '" + dir_ +
                                      "' could not be initialized)");
  }
  if (payload == nullptr) {
    return Status::InvalidArgument("spill tier (" + what_ +
                                   "): null payload for '" + key + "'");
  }
  if (BreakerRejects()) {
    // Degraded to memory-only: don't buffer payloads destined for a dead
    // disk. The key is remembered as pruned so a later miss reports
    // "stored and dropped" — unless an older spill of it is still live,
    // in which case that one remains the last durable value.
    MutexLock lock(mu_);
    FilterAdd(key);
    if (!lru_.Contains(key)) {
      pruned_.Mark(key);
      pruned_.Bound(kMaxPrunedMarkers);
    }
    return Status::Unavailable(
        "spill tier (" + what_ + "): degraded to memory-only (circuit "
        "breaker open); '" + key + "' not spilled");
  }

  const size_t approx =
      payload->ApproxBytes() + key.size() + kBufferEntryOverhead;
  {
    MutexLock lock(buffer_mu_);
    // Backpressure: past the byte bound the caller waits for the flusher.
    // A single payload larger than the whole bound is admitted alone (the
    // buffer must make progress), which is why the emptiness check is part
    // of the predicate.
    if (!stop_ && !pending_.empty() &&
        pending_bytes_ + approx > options_.write_behind_bytes) {
      ++backpressure_waits_;
      drained_cv_.Wait(buffer_mu_, [&]() CYR_REQUIRES(buffer_mu_) {
        return stop_ || pending_.empty() ||
               pending_bytes_ + approx <= options_.write_behind_bytes;
      });
    }
    // Add to the filter *before* publishing the entry: releasing
    // buffer_mu_ then orders this relaxed store before any reader that
    // synchronizes with the insert, so a filter miss can never hide an
    // entry such a reader is entitled to see.
    FilterAdd(key);
    auto [it, inserted] = pending_.try_emplace(key);
    if (!inserted) pending_bytes_ -= it->second.approx_bytes;
    it->second.payload = std::move(payload);
    it->second.meta = meta;
    it->second.seq = ++next_seq_;
    it->second.approx_bytes = approx;
    if (!it->second.queued) {
      // Not queued means either a fresh entry or one whose flush is in
      // flight right now; either way the new seq needs its own queue slot
      // (an already-queued entry's slot will pick the new seq up itself).
      it->second.queued = true;
      flush_queue_.push_back(key);
    }
    pending_bytes_ += approx;
  }
  work_cv_.NotifyOne();
  return Status::OK();
}

Status SpillTier::Put(const std::string& key, std::string_view payload,
                      uint64_t meta) {
  return Put(key, MakeBytesSpillPayload(std::string(payload)), meta);
}

void SpillTier::FlushWorker() {
  // Files indexed since the manifest was last written. The manifest is
  // rewritten when the queue drains or `kManifestBatchFiles` files are
  // unlisted, not once per file, and `flushing_` stays set until it is, so
  // Flush() remains a barrier that includes it.
  size_t unlisted = 0;
  for (;;) {
    std::string key;
    SpillPayloadPtr payload;
    uint64_t meta = 0;
    uint64_t seq = 0;
    {
      MutexLock lock(buffer_mu_);
      if (unlisted == 0 || !flush_queue_.empty()) {
        work_cv_.Wait(buffer_mu_, [&]() CYR_REQUIRES(buffer_mu_) {
          return stop_ || (!flush_queue_.empty() && !flush_paused_);
        });
        if (flush_queue_.empty()) {
          if (stop_) return;  // drained — every accepted write is on disk
          continue;
        }
        key = std::move(flush_queue_.front());
        flush_queue_.pop_front();
        auto it = pending_.find(key);
        if (it == pending_.end() || !it->second.queued) {
          continue;  // erased, or a stale duplicate queue slot
        }
        it->second.queued = false;
        payload = it->second.payload;
        meta = it->second.meta;
        seq = it->second.seq;
        flushing_ = true;
      }
    }
    // Serialize + compress + write with no lock held — this is the whole
    // point of the write-behind tier.
    if (payload != nullptr && FlushOne(key, payload, meta, seq)) ++unlisted;
    if (unlisted != 0) {
      bool drained = false;
      {
        MutexLock lock(buffer_mu_);
        drained = flush_queue_.empty();
      }
      // More of the batch to come, and a crash would lose little recency.
      if (!drained && unlisted < kManifestBatchFiles) continue;
      MutexLock disk_lock(mu_);
      WriteManifestLocked();
      unlisted = 0;
    }
    {
      MutexLock lock(buffer_mu_);
      flushing_ = false;
    }
    flushed_cv_.NotifyAll();
  }
}

bool SpillTier::FlushOne(const std::string& key, const SpillPayloadPtr& payload,
                         uint64_t meta, uint64_t seq) {
  const std::string raw = payload->Serialize();
  const std::string file = EncodeSpillFile(key, raw, meta);
  if (options_.max_bytes != 0 && file.size() > options_.max_bytes) {
    CYCLERANK_LOG(kWarning)
        << "spill tier (" << what_ << "): '" << key << "' needs "
        << file.size() << " bytes on disk, larger than the entire spill "
        << "budget of " << options_.max_bytes << " bytes; dropped (pruned)";
    {
      MutexLock lock(mu_);
      if (UnindexLocked(key).has_value()) RemoveFileLocked(key);
      pruned_.Mark(key);
      pruned_.Bound(kMaxPrunedMarkers);
      WriteManifestLocked();
    }
    DropPending(key, seq);
    return false;
  }
  const Status written = WriteSpillFile(key, file);
  if (!written.ok()) {
    CYCLERANK_LOG(kError) << "spill tier (" << what_
                          << "): write-behind flush of '" << key
                          << "' failed, entry lost: " << written.message();
    {
      // Remember the loss the same way a budget prune is remembered (when
      // no older spill survives as the last durable value), and record it
      // for the next Flush() report — durability failures must surface as
      // a real Status, not just a log line.
      MutexLock lock(mu_);
      if (!lru_.Contains(key)) {
        pruned_.Mark(key);
        pruned_.Bound(kMaxPrunedMarkers);
      }
      ++stats_.flush_failures;
      ++unreported_flush_failures_;
      last_flush_error_ = written;
    }
    DropPending(key, seq);
    return false;
  }
  return FinishPending(key, seq, Info{meta, raw.size()}, file.size());
}

bool SpillTier::FinishPending(const std::string& key, uint64_t seq,
                              Info info, size_t file_bytes) {
  MutexLock lock(buffer_mu_);
  auto it = pending_.find(key);
  if (it != pending_.end() && it->second.seq == seq) {
    // Index the flushed file *before* dropping the buffer entry, so a
    // concurrent Get always finds the key in at least one of the two —
    // the never-invisible guarantee.
    {
      MutexLock disk_lock(mu_);
      IndexLocked(key, info, file_bytes);
    }
    pending_bytes_ -= it->second.approx_bytes;
    pending_.erase(it);
    lock.Unlock();
    drained_cv_.NotifyAll();
    return true;
  }
  if (it == pending_.end()) {
    // Erased while the flush was in flight: the rename above resurrected
    // a file the caller asked to drop. It was never indexed (only this
    // thread indexes), so remove it directly — unless a newer flush has
    // already re-indexed the key.
    lock.Unlock();
    MutexLock disk_lock(mu_);
    if (!lru_.Contains(key)) RemoveFileLocked(key);
    return false;
  }
  // Superseded while in flight: the newer seq holds a queue slot and its
  // flush will overwrite the file we just wrote. Leave everything alone.
  return false;
}

void SpillTier::DropPending(const std::string& key, uint64_t seq) {
  {
    MutexLock lock(buffer_mu_);
    auto it = pending_.find(key);
    if (it == pending_.end() || it->second.seq != seq) return;
    pending_bytes_ -= it->second.approx_bytes;
    pending_.erase(it);
  }
  drained_cv_.NotifyAll();
}

Status SpillTier::WriteSpillFile(const std::string& key,
                                 std::string_view file) {
  const std::string path = FilePath(key);
  const std::string tmp_path = path + ".tmp";
  // tmp write + rename retried as one unit: after any failure the tmp file
  // may be torn, so the only safe resumption point is the beginning.
  return GuardedIo("spill write", [&]() {
    const Status written = env_->WriteFile(tmp_path, file);
    if (!written.ok()) {
      (void)env_->Remove(tmp_path);
      return written;
    }
    const Status renamed = env_->Rename(tmp_path, path);
    if (!renamed.ok()) (void)env_->Remove(tmp_path);
    return renamed;
  });
}

Status SpillTier::ReadSpillFile(const std::string& key, std::string* out) {
  const std::string path = FilePath(key);
  return GuardedIo("spill read", [&]() {
    Result<std::string> file = env_->ReadFile(path);
    if (!file.ok()) return file.status();
    *out = std::move(file).value();
    return Status::OK();
  });
}

Status SpillTier::GuardedIo(const char* op_label,
                            const std::function<Status()>& op) {
  bool probing = false;
  {
    MutexLock lock(breaker_mu_);
    if (breaker_open_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - breaker_last_ <
          std::chrono::milliseconds(options_.breaker_probe_ms)) {
        ++breaker_rejects_;
        return Status::Unavailable(
            "spill tier (" + what_ + "): degraded to memory-only (circuit "
            "breaker open); " + op_label + " rejected");
      }
      // A probe is due: admit exactly this operation, single attempt, and
      // restart the probe clock so concurrent callers keep fast-failing.
      probing = true;
      breaker_last_ = now;
      ++breaker_probes_;
    }
  }
  Status status = op();
  if (!status.ok() && !probing) {
    ExponentialBackoff backoff(ExponentialBackoff::Policy{
        options_.retry_backoff_ms, kRetryBackoffCapMs, options_.retry_limit});
    while (!status.ok()) {
      const std::optional<uint64_t> delay = backoff.NextDelayMs();
      if (!delay.has_value()) break;
      if (*delay != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(*delay));
      }
      {
        MutexLock lock(breaker_mu_);
        ++retries_;
      }
      status = op();
    }
  }
  MutexLock lock(breaker_mu_);
  if (status.ok()) {
    if (breaker_open_) {
      breaker_open_ = false;
      ++breaker_recoveries_;
      CYCLERANK_LOG(kInfo) << "spill tier (" << what_ << "): " << op_label
                           << " probe succeeded, circuit breaker closed — "
                           << "disk service restored";
    }
    return status;
  }
  if (!probing) ++retry_exhausted_;
  breaker_last_ = std::chrono::steady_clock::now();
  if (!breaker_open_) {
    breaker_open_ = true;
    ++breaker_trips_;
    CYCLERANK_LOG(kError) << "spill tier (" << what_ << "): " << op_label
                          << " failed every attempt, circuit breaker opened "
                          << "(degrading to memory-only): "
                          << status.message();
  }
  return status;
}

bool SpillTier::BreakerRejects() {
  MutexLock lock(breaker_mu_);
  if (!breaker_open_) return false;
  if (std::chrono::steady_clock::now() - breaker_last_ >=
      std::chrono::milliseconds(options_.breaker_probe_ms)) {
    return false;  // a probe is due — let the operation through
  }
  ++breaker_rejects_;
  return true;
}

void SpillTier::IndexLocked(const std::string& key, Info info,
                            size_t file_bytes) {
  if (std::optional<ByteBudgetedLru<Info>::Entry> old = UnindexLocked(key);
      old.has_value()) {
    // Overwrite: the rename already replaced the file on disk.
  }
  pruned_.Revive(key);
  lru_.Insert(key, info, file_bytes);
  raw_bytes_ += info.raw_bytes;
  ++stats_.spills;
  PruneLocked();
}

std::optional<ByteBudgetedLru<SpillTier::Info>::Entry> SpillTier::UnindexLocked(
    const std::string& key) {
  std::optional<ByteBudgetedLru<Info>::Entry> entry = lru_.Erase(key);
  if (entry.has_value()) raw_bytes_ -= entry->value.raw_bytes;
  return entry;
}

Result<SpillTier::Loaded> SpillTier::Get(const std::string& key) {
  // The filter is the fast path for "never stored": no lock, no disk.
  // Pruned and corrupt-dropped keys were once stored, so their bits are
  // set and they fall through to the exact answer below.
  if (!FilterMayContain(key)) {
    filter_negatives_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("spill tier (" + what_ + "): no spill file for '" +
                            key + "'");
  }
  SpillPayloadPtr buffered;
  uint64_t buffered_meta = 0;
  {
    MutexLock lock(buffer_mu_);
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      buffered = it->second.payload;
      buffered_meta = it->second.meta;
    }
  }
  if (buffered != nullptr) {
    // Read-your-write: the entry has not reached disk yet but is fully
    // visible. Serialize outside buffer_mu_ — the shared_ptr keeps the
    // payload alive even if it is erased or flushed meanwhile.
    buffer_hits_.fetch_add(1, std::memory_order_relaxed);
    Loaded loaded;
    loaded.meta = buffered_meta;
    loaded.payload = buffered->Serialize();
    return loaded;
  }
  MutexLock lock(mu_);
  Info* info = lru_.Touch(key);
  if (info == nullptr) {
    ++stats_.misses;
    if (pruned_.Contains(key)) {
      return Status::Expired("spill tier (" + what_ + "): '" + key +
                             "' was spilled to disk and then pruned by the "
                             "spill byte budget (" +
                             std::to_string(options_.max_bytes) + " bytes)");
    }
    return Status::NotFound("spill tier (" + what_ + "): no spill file for '" +
                            key + "'");
  }
  const std::string path = FilePath(key);
  std::string file;
  if (const Status read = ReadSpillFile(key, &file); !read.ok()) {
    // A failed *read* is not corruption: the entry and its file stay put —
    // when the disk heals (or the breaker closes), the data is still
    // there. The caller sees a miss-shaped error and recomputes.
    CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                            << "): cannot read spill file '" << path
                            << "' (entry kept): " << read.message();
    return read;
  }
  // Re-validate everything before trusting the bytes: magic, the embedded
  // key, the compressed framing, and the payload checksum. Any mismatch
  // means bit rot or a torn write — drop the entry with a warning instead
  // of handing corrupt bytes to a codec.
  const auto corrupt = [&](const std::string& why) CYR_REQUIRES(mu_) -> Status {
    CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                            << "): dropping corrupt spill file '" << path
                            << "': " << why;
    UnindexLocked(key);
    RemoveFileLocked(key);
    ++stats_.skipped_corrupt_files;
    WriteManifestLocked();
    return Status::IOError("spill tier (" + what_ + "): spill file for '" +
                           key + "' is corrupt (" + why + ")");
  };
  std::string why;
  const std::optional<SpillFileHeader> header = DecodeSpillHeader(
      file.size(),
      [&](size_t n) -> Result<std::string> { return file.substr(0, n); },
      &why);
  if (!header.has_value()) return corrupt(why);
  if (header->key != key) {
    return corrupt("embedded key '" + header->key + "' does not match");
  }
  const std::string_view body =
      std::string_view(file).substr(header->body_offset);
  Loaded loaded;
  loaded.meta = header->meta;
  if (!header->compressed) {
    loaded.payload.assign(body);
  } else if (!binio::DecompressBlock(body, &loaded.payload) ||
             loaded.payload.size() != header->raw_bytes) {
    return corrupt("compressed payload does not decode");
  }
  if (binio::Fnv1a64(loaded.payload) != header->checksum) {
    return corrupt("payload checksum mismatch");
  }
  ++stats_.reloads;
  // Recency moved but the manifest is only rewritten on Put/Erase/prune:
  // a read-heavy workload must not pay a manifest write per reload, and
  // losing recency on crash only costs pruning accuracy, never data.
  return loaded;
}

bool SpillTier::Contains(const std::string& key) const {
  if (!FilterMayContain(key)) {
    filter_negatives_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  MutexLock buffer_lock(buffer_mu_);
  if (pending_.count(key) != 0) return true;
  MutexLock lock(mu_);
  return lru_.Contains(key);
}

std::optional<uint64_t> SpillTier::Meta(const std::string& key) const {
  if (!FilterMayContain(key)) return std::nullopt;
  MutexLock buffer_lock(buffer_mu_);
  if (auto it = pending_.find(key); it != pending_.end()) {
    return it->second.meta;
  }
  MutexLock lock(mu_);
  const Info* info = lru_.Find(key);
  if (info == nullptr) return std::nullopt;
  return info->meta;
}

bool SpillTier::WasPruned(const std::string& key) const {
  MutexLock lock(mu_);
  return pruned_.Contains(key);
}

void SpillTier::Erase(const std::string& key) {
  {
    MutexLock lock(buffer_mu_);
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      pending_bytes_ -= it->second.approx_bytes;
      pending_.erase(it);
      drained_cv_.NotifyAll();
      flushed_cv_.NotifyAll();
    }
  }
  MutexLock lock(mu_);
  pruned_.Revive(key);
  if (!UnindexLocked(key).has_value()) return;
  RemoveFileLocked(key);
  WriteManifestLocked();
}

size_t SpillTier::ErasePrefix(const std::string& prefix) {
  std::set<std::string> erased;
  {
    MutexLock lock(buffer_mu_);
    for (auto it = pending_.lower_bound(prefix);
         it != pending_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;) {
      erased.insert(it->first);
      pending_bytes_ -= it->second.approx_bytes;
      it = pending_.erase(it);
    }
    if (!erased.empty()) {
      drained_cv_.NotifyAll();
      flushed_cv_.NotifyAll();
    }
  }
  MutexLock lock(mu_);
  std::vector<ByteBudgetedLru<Info>::Entry> disk = lru_.ErasePrefix(prefix);
  for (const ByteBudgetedLru<Info>::Entry& entry : disk) {
    raw_bytes_ -= entry.value.raw_bytes;
    pruned_.Revive(entry.key);
    RemoveFileLocked(entry.key);
    erased.insert(entry.key);
  }
  if (!disk.empty()) WriteManifestLocked();
  return erased.size();
}

Status SpillTier::Flush() {
  {
    MutexLock lock(buffer_mu_);
    flushed_cv_.Wait(buffer_mu_, [&]() CYR_REQUIRES(buffer_mu_) {
      return pending_.empty() && !flushing_;
    });
  }
  MutexLock lock(mu_);
  if (unreported_flush_failures_ == 0) return Status::OK();
  const uint64_t lost = unreported_flush_failures_;
  unreported_flush_failures_ = 0;
  const Status last = last_flush_error_;
  last_flush_error_ = Status::OK();
  return Status(last.code(),
                "spill tier (" + what_ + "): " + std::to_string(lost) +
                    " buffered write(s) never reached disk (keys marked "
                    "pruned); last error: " + last.message());
}

void SpillTier::SetFlushPausedForTest(bool paused) {
  {
    MutexLock lock(buffer_mu_);
    flush_paused_ = paused;
  }
  work_cv_.NotifyAll();
}

std::vector<std::string> SpillTier::Keys() const {
  std::set<std::string> keys;
  MutexLock buffer_lock(buffer_mu_);
  for (const auto& [key, pending] : pending_) keys.insert(key);
  MutexLock lock(mu_);
  for (const std::string& key : lru_.Keys()) keys.insert(key);
  return std::vector<std::string>(keys.begin(), keys.end());
}

uint64_t SpillTier::MaxMeta() const {
  uint64_t max_meta = 0;
  MutexLock buffer_lock(buffer_mu_);
  for (const auto& [key, pending] : pending_) {
    max_meta = std::max(max_meta, pending.meta);
  }
  MutexLock lock(mu_);
  for (const std::string& key : lru_.Keys()) {
    max_meta = std::max(max_meta, lru_.Find(key)->meta);
  }
  return max_meta;
}

SpillTierStats SpillTier::stats() const {
  MutexLock buffer_lock(buffer_mu_);
  MutexLock lock(mu_);
  SpillTierStats snapshot = stats_;
  snapshot.entries = lru_.size();
  snapshot.bytes = lru_.bytes();
  snapshot.raw_bytes = raw_bytes_;
  snapshot.queue_depth = pending_.size();
  snapshot.buffer_bytes = pending_bytes_;
  snapshot.backpressure_waits = backpressure_waits_;
  snapshot.buffer_hits = buffer_hits_.load(std::memory_order_relaxed);
  snapshot.filter_negatives =
      filter_negatives_.load(std::memory_order_relaxed);
  {
    MutexLock breaker_lock(breaker_mu_);
    snapshot.retries = retries_;
    snapshot.retry_exhausted = retry_exhausted_;
    snapshot.breaker_trips = breaker_trips_;
    snapshot.breaker_probes = breaker_probes_;
    snapshot.breaker_recoveries = breaker_recoveries_;
    snapshot.breaker_rejects = breaker_rejects_;
    snapshot.breaker_open = breaker_open_;
  }
  return snapshot;
}

void SpillTier::PruneLocked() {
  while (lru_.OverBudget()) {
    std::optional<ByteBudgetedLru<Info>::Entry> victim = lru_.PopLeastRecent();
    if (!victim.has_value()) break;
    raw_bytes_ -= victim->value.raw_bytes;
    RemoveFileLocked(victim->key);
    pruned_.Mark(victim->key);
    ++stats_.prunes;
  }
  pruned_.Bound(kMaxPrunedMarkers);
}

void SpillTier::WriteManifestLocked() {
  if (!enabled_) return;
  // Single attempt, no breaker: the manifest is recoverable metadata (it
  // only seeds recency on the next recovery), so a failed write costs
  // pruning accuracy after a crash, never data.
  const std::string manifest_path = dir_ + "/" + std::string(kManifestName);
  const std::string tmp_path = dir_ + "/manifest.tmp";
  std::string out(kManifestMagic);
  out += '\n';
  // Hottest first — the recovery scan replays this order into the LRU.
  for (const std::string& key : lru_.KeysByRecency()) {
    out += SpillFileName(key);
    out += '\n';
  }
  const Status written = env_->WriteFile(tmp_path, out);
  if (!written.ok()) {
    CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                            << "): cannot write manifest in '" << dir_
                            << "': " << written.message();
    (void)env_->Remove(tmp_path);
    return;
  }
  const Status renamed = env_->Rename(tmp_path, manifest_path);
  if (!renamed.ok()) {
    CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                            << "): cannot rename manifest into place: "
                            << renamed.message();
    (void)env_->Remove(tmp_path);
  }
}

void SpillTier::RemoveFileLocked(const std::string& key) {
  const Status removed = env_->Remove(FilePath(key));
  if (!removed.ok()) {
    CYCLERANK_LOG(kWarning) << "spill tier (" << what_
                            << "): cannot remove spill file for '" << key
                            << "': " << removed.message();
  }
}

std::string SpillTier::FilePath(const std::string& key) const {
  return dir_ + "/" + SpillFileName(key);
}

void SpillTier::FilterAdd(const std::string& key) {
  const uint64_t h1 = binio::Fnv1a64(key);
  // splitmix64 finalizer: a second, independent probe from the same hash.
  uint64_t h2 = h1;
  h2 ^= h2 >> 30;
  h2 *= 0xbf58476d1ce4e5b9ull;
  h2 ^= h2 >> 27;
  h2 *= 0x94d049bb133111ebull;
  h2 ^= h2 >> 31;
  for (const uint64_t h : {h1, h2}) {
    const size_t bit = static_cast<size_t>(h) & (kFilterWords * 64 - 1);
    filter_[bit >> 6].fetch_or(uint64_t{1} << (bit & 63),
                               std::memory_order_relaxed);
  }
}

bool SpillTier::FilterMayContain(const std::string& key) const {
  const uint64_t h1 = binio::Fnv1a64(key);
  uint64_t h2 = h1;
  h2 ^= h2 >> 30;
  h2 *= 0xbf58476d1ce4e5b9ull;
  h2 ^= h2 >> 27;
  h2 *= 0x94d049bb133111ebull;
  h2 ^= h2 >> 31;
  for (const uint64_t h : {h1, h2}) {
    const size_t bit = static_cast<size_t>(h) & (kFilterWords * 64 - 1);
    if ((filter_[bit >> 6].load(std::memory_order_relaxed) &
         (uint64_t{1} << (bit & 63))) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace cyclerank
