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

/// FNV-1a 64-bit hash, one byte per multiply. Kept only where its value is
/// already stored: the checksums of CYSP1/CYSP2 spill files, the hashed
/// names of long spill keys, and v1 ERROR frames. New checksums use
/// `Xxh64`, which is about 15x faster.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// XXH64 with seed 0, written from the published specification
/// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md) — the
/// checksum of CYRQ v2 frames and CYSP3 spill files. Reads 8-byte words
/// through `memcpy`, so any alignment of `data` is safe. Like FNV-1a it is
/// not cryptographic: it guards against torn writes and bit rot, not
/// attackers.
inline uint64_t Xxh64(std::string_view data) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ull, kP2 = 0xc2b2ae3d27d4eb4full,
                     kP3 = 0x165667b19e3779f9ull, kP4 = 0x85ebca77c2b2ae63ull,
                     kP5 = 0x27d4eb2f165667c5ull;
  const auto load64 = [](const char* at) {
    uint64_t word;
    std::memcpy(&word, at, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return word;
  };
  const auto load32 = [](const char* at) {
    uint32_t word;
    std::memcpy(&word, at, 4);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap32(word);
    }
    return static_cast<uint64_t>(word);
  };
  const auto mix = [](uint64_t acc, uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  };
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t acc = kP5;
  if (data.size() >= 32) {
    uint64_t lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (; end - p >= 32; p += 32) {
      for (int i = 0; i < 4; ++i) lanes[i] = mix(lanes[i], load64(p + 8 * i));
    }
    acc = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
          std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
    for (const uint64_t lane : lanes) acc = (acc ^ mix(0, lane)) * kP1 + kP4;
  }
  acc += data.size();
  for (; end - p >= 8; p += 8) {
    acc = std::rotl(acc ^ mix(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    acc = std::rotl(acc ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p != end; ++p) {
    acc = std::rotl(acc ^ (static_cast<unsigned char>(*p) * kP5), 11) * kP1;
  }
  acc = (acc ^ (acc >> 33)) * kP2;
  acc = (acc ^ (acc >> 29)) * kP3;
  return acc ^ (acc >> 32);
}

// -------------------------------------------------------------------------
// Block decoding — the payload framing of CYSP2 spill files.
//
// No writer makes blocks any more (CYSP3 files hold the raw payload). CYSP2
// writers stored payloads verbatim (mode 0), and older ones as LZ blocks
// (mode 1); a file holding either may be the only copy of an upload, so
// the decoder still reads both.
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

inline constexpr char kBlockStored = 0;
inline constexpr char kBlockLz = 1;

/// Decodes a block into `*out` (overwritten). Returns
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
