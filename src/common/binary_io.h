#ifndef CYCLERANK_COMMON_BINARY_IO_H_
#define CYCLERANK_COMMON_BINARY_IO_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cyclerank {
namespace binio {

/// Little-endian binary encoding helpers shared by the compact codecs
/// (`Graph::Serialize`, the `TaskResult` codec in platform/result_io.h, the
/// spill-tier file format). Fixed-width little-endian fields make the byte
/// streams platform-independent and the round trips bit-exact; doubles
/// travel as their IEEE-754 bit patterns, never through text.

inline void AppendU32(std::string* out, uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out->append(bytes, 4);
}

inline void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffull));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

inline void AppendDouble(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

/// Length-prefixed (u64) byte string.
inline void AppendString(std::string* out, std::string_view s) {
  AppendU64(out, s.size());
  out->append(s.data(), s.size());
}

/// LEB128-style varint (7 bits per byte, little-endian groups).
inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Length-prefixed element array; bulk-copied on little-endian hosts.
template <typename T>
inline void AppendArray(std::string* out, const std::vector<T>& v) {
  static_assert(std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t>);
  AppendU64(out, v.size());
  if (v.empty()) return;  // data() may be null on empty vectors
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  } else {
    for (const T x : v) {
      if constexpr (sizeof(T) == 4) {
        AppendU32(out, x);
      } else {
        AppendU64(out, x);
      }
    }
  }
}

/// Sequential reader over an encoded buffer. Every `Read*` returns false
/// (and reads nothing) once the buffer is exhausted or a length prefix
/// exceeds the remaining bytes — a truncated or corrupt stream can never
/// over-allocate or read out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  bool ReadU32(uint32_t* out) {
    if (remaining() < 4) return false;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(data_[pos_ + i]);
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo)) return false;
    if (!ReadU32(&hi)) return false;
    *out = (static_cast<uint64_t>(hi) << 32) | lo;
    return true;
  }

  bool ReadDouble(double* out) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  bool ReadString(std::string* out) {
    uint64_t len = 0;
    if (!ReadU64(&len)) return false;
    if (len > remaining()) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool ReadByte(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<unsigned char>(data_[pos_++]);
    return true;
  }

  /// LEB128-style varint; false on truncation or a value past 64 bits.
  bool ReadVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = 0;
      if (!ReadByte(&byte)) return false;
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  }

  /// Appends the next `n` raw bytes to `*out`; false when fewer remain.
  bool ReadBytes(size_t n, std::string* out) {
    if (n > remaining()) return false;
    out->append(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* out) {
    static_assert(std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t>);
    uint64_t count = 0;
    if (!ReadU64(&count)) return false;
    if (count > remaining() / sizeof(T)) return false;
    out->resize(count);
    if (count == 0) return true;  // data() may be null on empty vectors
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out->data(), data_.data() + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    } else {
      for (uint64_t i = 0; i < count; ++i) {
        if constexpr (sizeof(T) == 4) {
          uint32_t v;
          ReadU32(&v);
          (*out)[i] = v;
        } else {
          uint64_t v;
          ReadU64(&v);
          (*out)[i] = v;
        }
      }
    }
    return true;
  }

  /// Skips `n` bytes; false when fewer remain.
  bool Skip(size_t n) {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit hash — the spill tier's payload checksum. Not
/// cryptographic; it guards against torn writes and bit rot, not attackers.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// -------------------------------------------------------------------------
// Block compression — the spill tier's payload codec (PR 6).
//
// A small, dependency-free LZ77 scheme in the LZ4 spirit: greedy
// hash-table matching over a 64 KiB window, byte-oriented output. It only
// wins on literal repeats of 4+ bytes, which a serialized CSR graph has
// few of: neighbour ids differ in their low bytes even when sorted. On
// the bench graph `BenchGraph(10000, 1)` (bench/perf_datastore.cc,
// `BM_SpillTier_CompressedRoundTrip`) it stores 870,471 of 990,418 raw
// bytes, 12% saved. Incompressible input falls back to a stored block, so
// `DecompressBlock(CompressBlock(x)) == x` for every input and the
// encoded form is never much larger than the raw bytes.
//
// Block layout:
//   mode byte            0 = stored, 1 = LZ
//   varint raw_size
//   stored: raw bytes verbatim
//   LZ:     sequences of { varint literal_count, literal bytes,
//           varint match_len (0 terminates the stream; otherwise >= 4),
//           u16-LE match offset in [1, bytes_decoded_so_far] }
//
// The decoder bounds-checks every length and offset against the declared
// raw size and the remaining input, so a corrupt block yields `false`,
// never an overrun or an allocation bomb.
// -------------------------------------------------------------------------

namespace compress_internal {
inline uint32_t Load32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}
}  // namespace compress_internal

inline constexpr char kBlockStored = 0;
inline constexpr char kBlockLz = 1;

inline std::string CompressBlock(std::string_view raw) {
  std::string stored;
  stored.reserve(raw.size() + 10);
  stored.push_back(kBlockStored);
  AppendVarint(&stored, raw.size());
  stored.append(raw.data(), raw.size());
  // Too small for matches to pay off, or too large for the 32-bit match
  // positions — either way the stored block is the right answer.
  if (raw.size() < 32 || raw.size() > 0xffffffffu) return stored;

  std::string lz;
  lz.reserve(raw.size() / 2 + 16);
  lz.push_back(kBlockLz);
  AppendVarint(&lz, raw.size());
  constexpr size_t kHashBits = 15;
  std::vector<uint32_t> table(size_t{1} << kHashBits, 0xffffffffu);
  const char* base = raw.data();
  const size_t n = raw.size();
  // Stop matching with a 12-byte tail margin: room for the 4-byte load
  // plus a final literal run, mirroring the classic LZ4 bound.
  const size_t limit = n - 12;
  size_t pos = 0;
  size_t anchor = 0;
  while (pos < limit) {
    const uint32_t v = compress_internal::Load32(base + pos);
    const uint32_t h = (v * 2654435761u) >> (32 - kHashBits);
    const uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(pos);
    if (cand == 0xffffffffu || pos - cand > 0xffff ||
        compress_internal::Load32(base + cand) != v) {
      ++pos;
      continue;
    }
    size_t match_len = 4;
    while (pos + match_len < n && base[cand + match_len] == base[pos + match_len]) {
      ++match_len;
    }
    AppendVarint(&lz, pos - anchor);
    lz.append(base + anchor, pos - anchor);
    AppendVarint(&lz, match_len);
    const uint32_t offset = static_cast<uint32_t>(pos - cand);
    lz.push_back(static_cast<char>(offset & 0xff));
    lz.push_back(static_cast<char>(offset >> 8));
    pos += match_len;
    anchor = pos;
    if (lz.size() + 16 >= stored.size()) return stored;  // not compressing
  }
  AppendVarint(&lz, n - anchor);
  lz.append(base + anchor, n - anchor);
  AppendVarint(&lz, 0);  // end of stream
  return lz.size() < stored.size() ? lz : stored;
}

/// Decodes a `CompressBlock` buffer into `*out` (overwritten). Returns
/// false on any truncation, bad length, or bad offset.
inline bool DecompressBlock(std::string_view block, std::string* out) {
  out->clear();
  Reader reader(block);
  uint8_t mode = 0;
  uint64_t raw_size = 0;
  if (!reader.ReadByte(&mode) || !reader.ReadVarint(&raw_size)) return false;
  if (mode == kBlockStored) {
    if (reader.remaining() != raw_size) return false;
    return reader.ReadBytes(raw_size, out);
  }
  if (mode != kBlockLz) return false;
  // Reserve conservatively: a corrupt header may declare an absurd size,
  // and every copy below is bounded by it before executing anyway.
  out->reserve(static_cast<size_t>(
      std::min<uint64_t>(raw_size, 1ull << 26)));
  for (;;) {
    uint64_t literals = 0;
    if (!reader.ReadVarint(&literals)) return false;
    if (literals > reader.remaining() || out->size() + literals > raw_size) {
      return false;
    }
    if (!reader.ReadBytes(literals, out)) return false;
    uint64_t match_len = 0;
    if (!reader.ReadVarint(&match_len)) return false;
    if (match_len == 0) break;
    if (match_len < 4 || out->size() + match_len > raw_size) return false;
    uint8_t lo = 0, hi = 0;
    if (!reader.ReadByte(&lo) || !reader.ReadByte(&hi)) return false;
    const size_t offset = static_cast<size_t>(lo) | (static_cast<size_t>(hi) << 8);
    if (offset == 0 || offset > out->size()) return false;
    // Byte-wise on purpose: matches may overlap their own output (RLE).
    size_t src = out->size() - offset;
    for (uint64_t i = 0; i < match_len; ++i) {
      out->push_back((*out)[src++]);
    }
  }
  return out->size() == raw_size && reader.AtEnd();
}

}  // namespace binio
}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_BINARY_IO_H_
