// CYRQ1 framing + message-codec tests, including the hostile-input sweep:
// truncated, oversized, corrupt, and garbage byte streams must produce a
// typed protocol error — never a crash, never a bogus frame.

#include "net/frame.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "net/messages.h"
#include "platform/task.h"

namespace cyclerank {
namespace net {
namespace {

Frame MustDecodeOne(FrameDecoder& decoder) {
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Outcome::kFrame)
      << error.ToString();
  return frame;
}

TEST(FrameTest, RoundTripsPayloads) {
  const std::vector<std::string> payloads = {
      std::string(), std::string("x"), std::string("hello world"),
      std::string(100000, 'q'), std::string("\x00\xff\x7f\x80", 4)};
  for (const std::string& payload : payloads) {
    FrameDecoder decoder(0);
    decoder.Feed(EncodeFrame(0x42, payload));
    Frame frame = MustDecodeOne(decoder);
    EXPECT_EQ(frame.type, 0x42);
    EXPECT_EQ(frame.payload, payload);
    Status error;
    EXPECT_EQ(decoder.Next(&frame, &error),
              FrameDecoder::Outcome::kNeedMoreBytes);
  }
}

TEST(FrameTest, DecodesByteAtATime) {
  const std::string bytes =
      EncodeFrame(0x01, "abc") + EncodeFrame(0x02, "") + EncodeFrame(0x03,
      std::string(5000, 'z'));
  FrameDecoder decoder(0);
  std::vector<Frame> frames;
  for (const char byte : bytes) {
    decoder.Feed(std::string_view(&byte, 1));
    Frame frame;
    Status error;
    while (decoder.Next(&frame, &error) == FrameDecoder::Outcome::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].payload, "abc");
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].payload.size(), 5000u);
}

TEST(FrameTest, TruncatedFrameJustWaits) {
  const std::string bytes = EncodeFrame(0x01, "some payload here");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder(0);
    decoder.Feed(std::string_view(bytes).substr(0, cut));
    Frame frame;
    Status error;
    EXPECT_EQ(decoder.Next(&frame, &error),
              FrameDecoder::Outcome::kNeedMoreBytes)
        << "cut at " << cut;
    // The rest arrives: the frame completes.
    decoder.Feed(std::string_view(bytes).substr(cut));
    EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Outcome::kFrame);
    EXPECT_EQ(frame.payload, "some payload here");
  }
}

TEST(FrameTest, BadMagicPoisons) {
  FrameDecoder decoder(0);
  decoder.Feed("GET / HTTP/1.1\r\n\r\n");  // a confused web client
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
  EXPECT_EQ(error.code(), StatusCode::kParseError);
  // Poisoned for good: even valid bytes afterwards stay rejected.
  decoder.Feed(EncodeFrame(0x01, "ok"));
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
}

TEST(FrameTest, UnsupportedVersionPoisons) {
  std::string bytes = EncodeFrame(0x01, "payload");
  bytes[4] = 3;  // future version
  FrameDecoder decoder(0);
  decoder.Feed(bytes);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
  EXPECT_EQ(error.code(), StatusCode::kUnimplemented);
}

/// `payload` framed by hand in v1 framing: version 0x01 and an FNV-1a 64
/// checksum, the layout every version reads for ERROR frames.
std::string V1Frame(uint8_t type, const std::string& payload) {
  std::string bytes = "CYRQ";
  bytes.push_back(0x01);
  bytes.push_back(static_cast<char>(type));
  binio::AppendVarint(&bytes, payload.size());
  binio::AppendU64(&bytes, binio::Fnv1a64(payload));
  return bytes + payload;
}

/// Lower-case hex of `bytes`, one space between bytes.
std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (!out.empty()) out += ' ';
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

TEST(FrameTest, V2StatsRequestBytesArePinned) {
  // Magic, version 0x02, type STATS, length 8, the XXH64 of the payload,
  // then request_id=1. The worked example in docs/PROTOCOL.md.
  EXPECT_EQ(Hex(EncodeStatsRequest({1})),
            "43 59 52 51 02 08 08 95 99 a4 a2 17 cb 29 9f 01 00 00 00 00 00 "
            "00 00");
}

TEST(FrameTest, ErrorFramesTravelInV1Framing) {
  ErrorMessage msg;
  msg.request_id = 5;
  msg.status = Status::Unavailable("busy");
  const std::string bytes = EncodeErrorMessage(msg);
  FrameDecoder decoder(0);
  decoder.Feed(bytes);
  const Frame frame = MustDecodeOne(decoder);
  EXPECT_EQ(bytes, V1Frame(kError, frame.payload));
}

TEST(FrameTest, V1ErrorFrameStillDecodes) {
  // An ERROR payload spelled out: request_id 9, status code byte, then the
  // length-prefixed message.
  std::string payload;
  binio::AppendU64(&payload, 9);
  payload.push_back(static_cast<char>(StatusCode::kUnavailable));
  binio::AppendString(&payload, "server at max_connections");
  FrameDecoder decoder(0);
  decoder.Feed(V1Frame(kError, payload));
  const Frame frame = MustDecodeOne(decoder);
  EXPECT_EQ(frame.type, kError);
  const ErrorMessage decoded = DecodeErrorMessage(frame.payload).value();
  EXPECT_EQ(decoded.request_id, 9u);
  EXPECT_EQ(decoded.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.status.message(), "server at max_connections");
}

TEST(FrameTest, V1FrameOfAnotherTypePoisons) {
  std::string payload;
  binio::AppendU64(&payload, 1);
  FrameDecoder decoder(0);
  decoder.Feed(V1Frame(kStatsReq, payload));
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
  EXPECT_EQ(error.code(), StatusCode::kUnimplemented);
}

TEST(FrameTest, OversizedDeclaredLengthRejectedBeforeAllocation) {
  // Header claiming a 2^40-byte payload; only the header is ever sent.
  std::string bytes;
  bytes.append(kFrameMagic, sizeof(kFrameMagic));
  bytes.push_back(static_cast<char>(kProtocolVersion));
  bytes.push_back(0x01);
  uint64_t huge = uint64_t{1} << 40;
  while (huge >= 0x80) {
    bytes.push_back(static_cast<char>((huge & 0x7f) | 0x80));
    huge >>= 7;
  }
  bytes.push_back(static_cast<char>(huge));
  FrameDecoder decoder(/*max_frame_bytes=*/1 << 20);
  decoder.Feed(bytes);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, OverlongVarintPoisons) {
  std::string bytes;
  bytes.append(kFrameMagic, sizeof(kFrameMagic));
  bytes.push_back(static_cast<char>(kProtocolVersion));
  bytes.push_back(0x01);
  for (int i = 0; i < 11; ++i) bytes.push_back(static_cast<char>(0x80));
  FrameDecoder decoder(0);
  decoder.Feed(bytes);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
  EXPECT_EQ(error.code(), StatusCode::kParseError);
}

TEST(FrameTest, ChecksumMismatchPoisons) {
  std::string bytes = EncodeFrame(0x01, "pristine payload");
  bytes[bytes.size() - 3] ^= 0x01;  // flip one payload bit
  FrameDecoder decoder(0);
  decoder.Feed(bytes);
  Frame frame;
  Status error;
  EXPECT_EQ(decoder.Next(&frame, &error),
            FrameDecoder::Outcome::kProtocolError);
  EXPECT_EQ(error.code(), StatusCode::kParseError);
}

TEST(FrameTest, MaxFrameBytesZeroMeansUnbounded) {
  FrameDecoder decoder(0);
  decoder.Feed(EncodeFrame(0x01, std::string(3u << 20, 'a')));
  EXPECT_EQ(MustDecodeOne(decoder).payload.size(), 3u << 20);
}

TEST(FrameTest, RandomGarbageNeverCrashes) {
  // Deterministic pseudo-random garbage: every prefix either waits for
  // more bytes or poisons with a real status — no crash, no accepted
  // frame (the odds of forging magic + checksum are negligible; if it
  // ever happens the seeds below make it reproducible).
  std::mt19937 rng(20260808);
  for (int round = 0; round < 50; ++round) {
    FrameDecoder decoder(1 << 16);
    std::string garbage(257, '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng() & 0xff);
    }
    decoder.Feed(garbage);
    Frame frame;
    Status error;
    const FrameDecoder::Outcome outcome = decoder.Next(&frame, &error);
    EXPECT_TRUE(outcome == FrameDecoder::Outcome::kProtocolError ||
                outcome == FrameDecoder::Outcome::kNeedMoreBytes);
    if (outcome == FrameDecoder::Outcome::kProtocolError) {
      EXPECT_FALSE(error.ok());
    }
  }
}

// ---- Message codecs -------------------------------------------------------

TEST(MessageTest, UploadDatasetRoundTrip) {
  UploadDatasetRequest msg;
  msg.request_id = 7;
  msg.name = "my-graph";
  msg.content = "a b\nb a\n";
  FrameDecoder decoder(0);
  decoder.Feed(EncodeUploadDatasetRequest(msg));
  const Frame frame = MustDecodeOne(decoder);
  EXPECT_EQ(frame.type, kUploadDatasetReq);
  const auto decoded = DecodeUploadDatasetRequest(frame.payload).value();
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.name, "my-graph");
  EXPECT_EQ(decoded.content, "a b\nb a\n");
  EXPECT_EQ(PeekRequestId(frame.payload), 7u);
}

TEST(MessageTest, SubmitQuerySetRoundTrip) {
  SubmitQuerySetRequest msg;
  msg.request_id = 99;
  TaskSpec spec;
  spec.dataset = "tiny";
  spec.algorithm = "cyclerank";
  spec.params.Set("source", "a");
  spec.params.Set("k", "3");
  msg.query_set.tasks = {spec, spec};
  FrameDecoder frame_decoder(0);
  frame_decoder.Feed(EncodeSubmitQuerySetRequest(msg));
  const auto decoded =
      DecodeSubmitQuerySetRequest(MustDecodeOne(frame_decoder).payload)
          .value();
  ASSERT_EQ(decoded.query_set.tasks.size(), 2u);
  EXPECT_EQ(decoded.query_set.tasks[0], spec);
  EXPECT_EQ(decoded.query_set.tasks[1], spec);
}

TEST(MessageTest, GetResultsResponseRoundTripIsBitIdentical) {
  GetResultsResponse msg;
  msg.request_id = 3;
  TaskResult result;
  result.task_id = "cmp/0";
  result.spec.dataset = "tiny";
  result.spec.algorithm = "pagerank";
  result.status = Status::OK();
  result.ranking = {{4, 0.123456789012345}, {1, 0.2}, {0, 1e-300}};
  result.seconds = 0.125;
  msg.results = {result};
  FrameDecoder decoder(0);
  decoder.Feed(EncodeGetResultsResponse(msg));
  const auto decoded =
      DecodeGetResultsResponse(MustDecodeOne(decoder).payload).value();
  ASSERT_EQ(decoded.results.size(), 1u);
  EXPECT_EQ(decoded.results[0].task_id, "cmp/0");
  EXPECT_EQ(decoded.results[0].ranking, result.ranking);  // exact doubles
  EXPECT_EQ(decoded.results[0].seconds, 0.125);
}

TEST(MessageTest, ErrorAndStatusRoundTrip) {
  ErrorMessage msg;
  msg.request_id = 12;
  msg.status = Status::Unavailable("too busy");
  FrameDecoder decoder(0);
  decoder.Feed(EncodeErrorMessage(msg));
  const Frame frame = MustDecodeOne(decoder);
  EXPECT_EQ(frame.type, kError);
  const auto decoded = DecodeErrorMessage(frame.payload).value();
  EXPECT_EQ(decoded.request_id, 12u);
  EXPECT_EQ(decoded.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.status.message(), "too busy");
}

TEST(MessageTest, EventRoundTrip) {
  EventMessage msg;
  msg.comparison.comparison_id = "cmp";
  msg.comparison.task_ids = {"cmp/0", "cmp/1"};
  msg.comparison.states = {TaskState::kCompleted, TaskState::kFailed};
  msg.comparison.completed = 1;
  msg.comparison.failed = 1;
  msg.comparison.done = true;
  FrameDecoder decoder(0);
  decoder.Feed(EncodeEventMessage(msg));
  const auto decoded = DecodeEventMessage(MustDecodeOne(decoder).payload)
                           .value();
  EXPECT_EQ(decoded.comparison.comparison_id, "cmp");
  ASSERT_EQ(decoded.comparison.states.size(), 2u);
  EXPECT_EQ(decoded.comparison.states[1], TaskState::kFailed);
  EXPECT_TRUE(decoded.comparison.done);
}

TEST(MessageTest, DecodersRejectTruncatedPayloads) {
  WaitRequest wait;
  wait.request_id = 5;
  wait.comparison_id = "cmp";
  wait.timeout_ms = 1000;
  FrameDecoder decoder(0);
  decoder.Feed(EncodeWaitRequest(wait));
  const Frame frame = MustDecodeOne(decoder);
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    const auto decoded =
        DecodeWaitRequest(std::string_view(frame.payload).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  }
}

TEST(MessageTest, DecodersRejectTrailingBytes) {
  StatsRequest stats;
  stats.request_id = 8;
  FrameDecoder decoder(0);
  decoder.Feed(EncodeStatsRequest(stats));
  const Frame frame = MustDecodeOne(decoder);
  EXPECT_TRUE(DecodeStatsRequest(frame.payload).ok());
  EXPECT_FALSE(DecodeStatsRequest(frame.payload + "x").ok());
}

TEST(MessageTest, StatusCodeOutOfDomainRejected) {
  // An ACK whose status-code byte is 200: the codec must refuse to forge
  // a StatusCode that does not exist.
  AckResponse ack;
  ack.request_id = 1;
  FrameDecoder decoder(0);
  decoder.Feed(EncodeAckResponse(kUploadDatasetResp, ack));
  Frame frame = MustDecodeOne(decoder);
  frame.payload[8] = static_cast<char>(200);  // after the u64 request id
  const auto decoded = DecodeAckResponse(frame.payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace net
}  // namespace cyclerank
