#include "net/frame.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/binary_io.h"

namespace cyclerank {
namespace net {

namespace {

/// The longest LEB128 encoding of a uint64 (10 bytes): past this many
/// continuation bytes the varint itself is malformed, not merely split
/// across reads.
constexpr size_t kMaxVarintBytes = 10;

/// The framing every version reads for ERROR frames (see frame.h).
constexpr uint8_t kV1 = 1;

/// The payload checksum of a frame framed as `version`.
uint64_t FrameChecksum(uint8_t version, std::string_view payload) {
  return version == kV1 ? binio::Fnv1a64(payload) : binio::Xxh64(payload);
}

}  // namespace

void AppendFrame(uint8_t type, std::string_view payload, std::string* out) {
  const uint8_t version = type == kErrorFrameType ? kV1 : kProtocolVersion;
  out->append(kFrameMagic, sizeof(kFrameMagic));
  out->push_back(static_cast<char>(version));
  out->push_back(static_cast<char>(type));
  binio::AppendVarint(out, payload.size());
  binio::AppendU64(out, FrameChecksum(version, payload));
  out->append(payload.data(), payload.size());
}

std::string EncodeFrame(uint8_t type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameFixedHeaderBytes + kMaxVarintBytes + 8 + payload.size());
  AppendFrame(type, payload, &out);
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (poisoned_) return;  // no point growing a buffer we will never decode
  // Reclaim the decoded prefix before appending, once it dominates the
  // buffer — amortized O(1) per byte, and a long-lived connection never
  // accretes an unbounded dead prefix.
  if (consumed_ > 4096 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Outcome FrameDecoder::Poison(Status status, Status* error) {
  poisoned_ = true;
  poison_status_ = std::move(status);
  buffer_.clear();
  consumed_ = 0;
  if (error != nullptr) *error = poison_status_;
  return Outcome::kProtocolError;
}

FrameDecoder::Outcome FrameDecoder::Next(Frame* frame, Status* error) {
  if (poisoned_) {
    if (error != nullptr) *error = poison_status_;
    return Outcome::kProtocolError;
  }
  const std::string_view pending =
      std::string_view(buffer_).substr(consumed_);
  if (pending.size() < kFrameFixedHeaderBytes) return Outcome::kNeedMoreBytes;

  if (std::memcmp(pending.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Poison(Status::ParseError(
                      "net: bad frame magic (not a CYRQ1 stream)"),
                  error);
  }
  const uint8_t version = static_cast<unsigned char>(pending[4]);
  const uint8_t type = static_cast<unsigned char>(pending[5]);
  if (version != kProtocolVersion &&
      !(version == kV1 && type == kErrorFrameType)) {
    // An unknown version may frame its bytes differently, so nothing after
    // this byte can be trusted — reject instead of guessing. The peer
    // answers with an ERROR frame (v1 framing, which every version reads —
    // see docs/PROTOCOL.md).
    return Poison(Status::Unimplemented(
                      "net: unsupported protocol version " +
                      std::to_string(version) + " (this build speaks " +
                      std::to_string(kProtocolVersion) + ")"),
                  error);
  }

  // Decode the length varint by hand: binio::Reader cannot distinguish "a
  // truncated buffer" (wait for more bytes) from "10 bytes without a
  // terminator" (malformed).
  uint64_t payload_len = 0;
  size_t varint_bytes = 0;
  bool varint_done = false;
  while (varint_bytes < kMaxVarintBytes) {
    const size_t index = kFrameFixedHeaderBytes + varint_bytes;
    if (index >= pending.size()) return Outcome::kNeedMoreBytes;
    const uint8_t byte = static_cast<unsigned char>(pending[index]);
    payload_len |= static_cast<uint64_t>(byte & 0x7f) << (7 * varint_bytes);
    ++varint_bytes;
    if ((byte & 0x80) == 0) {
      varint_done = true;
      break;
    }
  }
  if (!varint_done) {
    return Poison(
        Status::ParseError("net: frame length varint exceeds 10 bytes"),
        error);
  }
  // Enforced on the *declared* length, before any allocation: a hostile
  // 2^60-byte claim is rejected here with only header bytes buffered.
  if (max_frame_bytes_ != 0 && payload_len > max_frame_bytes_) {
    return Poison(Status::InvalidArgument(
                      "net: frame payload of " + std::to_string(payload_len) +
                      " bytes exceeds max_frame_bytes=" +
                      std::to_string(max_frame_bytes_)),
                  error);
  }

  const size_t header_bytes = kFrameFixedHeaderBytes + varint_bytes + 8;
  if (pending.size() < header_bytes ||
      pending.size() - header_bytes < payload_len) {
    return Outcome::kNeedMoreBytes;
  }
  binio::Reader checksum_reader(
      pending.substr(kFrameFixedHeaderBytes + varint_bytes, 8));
  uint64_t declared_checksum = 0;
  checksum_reader.ReadU64(&declared_checksum);  // 8 bytes present by now
  const std::string_view payload =
      pending.substr(header_bytes, static_cast<size_t>(payload_len));
  if (FrameChecksum(version, payload) != declared_checksum) {
    return Poison(
        Status::ParseError("net: frame checksum mismatch (corrupt stream)"),
        error);
  }

  frame->type = type;
  frame->payload.assign(payload.data(), payload.size());
  consumed_ += header_bytes + static_cast<size_t>(payload_len);
  return Outcome::kFrame;
}

}  // namespace net
}  // namespace cyclerank
