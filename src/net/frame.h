#ifndef CYCLERANK_NET_FRAME_H_
#define CYCLERANK_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace cyclerank {
namespace net {

/// CYRQ1 message framing — the length-prefixed binary envelope every byte
/// on a platform TCP connection travels in. (The protocol keeps the name
/// CYRQ1 across framing versions.) Normative spec: docs/PROTOCOL.md
/// (§ "Frame layout"); this header is its implementation.
///
/// Layout (all multi-byte integers little-endian, as everywhere in
/// common/binary_io.h):
///
///   offset  size     field
///   0       4        magic "CYRQ"
///   4       1        protocol version (0x02)
///   5       1        message type (net/messages.h)
///   6       1..10    payload length, LEB128 varint
///   ...     8        XXH64 (seed 0) of the payload bytes
///   ...     length   payload
///
/// ERROR frames (type 0x7f) are the one exception: they always travel in
/// v1 framing — version 0x01 and an FNV-1a 64 checksum, otherwise the same
/// layout — so that a peer of any version can read why it is being
/// disconnected, even when the sender has not yet seen a byte from it.
///
/// The checksum guards against stream corruption (same posture as the
/// spill-tier file format): a frame whose payload hashes differently is a
/// protocol error, never a silently-wrong message.

/// The 4 magic bytes opening every frame.
inline constexpr char kFrameMagic[4] = {'C', 'Y', 'R', 'Q'};

/// The protocol version this build speaks. A decoder accepts it for every
/// frame type and v1 framing for ERROR frames only; any other version is
/// rejected with `kUnimplemented` — see docs/PROTOCOL.md (§ "Versioning")
/// for the compatibility policy.
inline constexpr uint8_t kProtocolVersion = 2;

/// The ERROR frame's type byte (`net::kError`): the one type every version
/// sends and reads in v1 framing.
inline constexpr uint8_t kErrorFrameType = 0x7f;

/// Magic + version + type — the fixed bytes before the varint length.
inline constexpr size_t kFrameFixedHeaderBytes = 6;

/// One decoded frame: the type tag and its raw payload (already
/// checksum-verified). Decode the payload with the codecs in
/// net/messages.h.
struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Appends one encoded frame (header + checksum + payload) to `*out`.
void AppendFrame(uint8_t type, std::string_view payload, std::string* out);

/// `AppendFrame` into a fresh string.
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Incremental decoder over a TCP byte stream. Feed whatever `read()`
/// produced, then drain complete frames with `Next()`. Single-owner: the
/// server keeps one per connection on the event-loop thread, the client
/// one per socket; not thread-safe.
///
/// Every protocol violation — bad magic, unsupported version, a declared
/// length past `max_frame_bytes`, a checksum mismatch, a malformed length
/// varint — *poisons* the decoder: `Next()` reports the error (once with
/// the detailed status, then repeats it) and no further bytes are
/// interpreted. Resynchronizing inside a corrupt byte stream is guesswork,
/// so the peer is expected to answer an ERROR frame and close; see
/// docs/PROTOCOL.md (§ "Protocol errors").
class FrameDecoder {
 public:
  /// `max_frame_bytes` bounds the *declared payload length*, checked
  /// before any payload allocation. 0 = unbounded (client side, where the
  /// peer is the trusted server).
  explicit FrameDecoder(size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;
  FrameDecoder(FrameDecoder&&) = default;
  FrameDecoder& operator=(FrameDecoder&&) = default;

  /// Appends raw stream bytes. Cheap; decoding happens in `Next()`.
  void Feed(std::string_view bytes);

  enum class Outcome {
    kFrame,          ///< `*frame` holds the next complete, verified frame
    kNeedMoreBytes,  ///< the buffered prefix is a valid partial frame
    kProtocolError,  ///< the stream is corrupt; `*error` says how
  };

  /// Extracts the next frame. Call in a loop after each `Feed` until it
  /// stops returning `kFrame`.
  Outcome Next(Frame* frame, Status* error);

  /// Bytes buffered but not yet consumed by a decoded frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Outcome Poison(Status status, Status* error);

  size_t max_frame_bytes_;  ///< const in spirit; non-const to stay movable
  std::string buffer_;
  size_t consumed_ = 0;  ///< decoded prefix of `buffer_`, reclaimed lazily
  bool poisoned_ = false;
  Status poison_status_;
};

}  // namespace net
}  // namespace cyclerank

#endif  // CYCLERANK_NET_FRAME_H_
