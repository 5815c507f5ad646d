#ifndef CYCLERANK_NET_MESSAGES_H_
#define CYCLERANK_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "platform/gateway.h"
#include "platform/task.h"

namespace cyclerank {
namespace net {

/// CYRQ1 message payloads — one struct + Encode/Decode pair per frame
/// type, covering the full gateway surface. Normative spec:
/// docs/PROTOCOL.md (§ "Message types"); field order there is field order
/// here.
///
/// Conventions:
///  - every *request* payload begins with a client-chosen u64 `request_id`,
///    echoed verbatim in the matching response, so clients may pipeline;
///  - every *response* payload begins with that echo plus the operation's
///    `Status` (code byte + message string) — transport success and
///    application failure travel in the same envelope;
///  - `Encode*` returns a complete frame (header + checksum + payload),
///    ready to write to a socket; `Decode*` takes the *payload* of an
///    already-verified frame and fails with `kParseError` on truncation
///    or out-of-domain values, never crashing on hostile input;
///  - `TaskResult`s travel in the lossless `result_io.h` binary codec, so
///    a result read over the wire is bit-identical to the in-process one.

// ---- Frame types ---------------------------------------------------------

/// Requests occupy 0x01..0x7f (0x70+ reserved for server-initiated
/// frames); each response is its request's type with the high bit set.
enum MsgType : uint8_t {
  kUploadDatasetReq = 0x01,
  kSubmitQuerySetReq = 0x02,
  kGetStatusReq = 0x03,
  kGetResultsReq = 0x04,
  kWaitReq = 0x05,
  kCancelReq = 0x06,
  kSubscribeReq = 0x07,
  kStatsReq = 0x08,

  /// Server-initiated terminal-state push (no request id: unsolicited).
  kEvent = 0x70,
  /// Protocol-level failure: undecodable payload, unknown type, overload.
  /// Always sent in v1 framing (net/frame.h).
  kError = kErrorFrameType,

  kUploadDatasetResp = kUploadDatasetReq | 0x80,
  kSubmitQuerySetResp = kSubmitQuerySetReq | 0x80,
  kGetStatusResp = kGetStatusReq | 0x80,
  kGetResultsResp = kGetResultsReq | 0x80,
  kWaitResp = kWaitReq | 0x80,
  kCancelResp = kCancelReq | 0x80,
  kSubscribeResp = kSubscribeReq | 0x80,
  kStatsResp = kStatsReq | 0x80,
};

// ---- Requests ------------------------------------------------------------

/// `Datastore::UploadDataset`: raw dataset text (edgelist / pajek / ASD,
/// auto-sniffed server-side) stored under `name`.
struct UploadDatasetRequest {
  uint64_t request_id = 0;
  std::string name;
  std::string content;
};

/// `ApiGateway::SubmitQuerySet`: the whole query set batched into one
/// frame — one round trip per comparison, however many tasks it carries.
struct SubmitQuerySetRequest {
  uint64_t request_id = 0;
  QuerySet query_set;
};

/// Shared shape of GetStatus / GetResults / Cancel / Subscribe — the
/// frame type says which operation.
struct ComparisonRequest {
  uint64_t request_id = 0;
  std::string comparison_id;
};

/// `ApiGateway::WaitForCompletion`. `timeout_ms == 0` waits indefinitely
/// (the server answers only on completion); the server never blocks a
/// thread on it — waits are parked on the event loop and matured by
/// terminal-state pushes.
struct WaitRequest {
  uint64_t request_id = 0;
  std::string comparison_id;
  uint64_t timeout_ms = 0;
};

/// Server/platform counters as `key=value` lines.
struct StatsRequest {
  uint64_t request_id = 0;
};

// ---- Responses -----------------------------------------------------------

/// Upload / Cancel / Subscribe acknowledgment: just the echoed id and the
/// operation's Status.
struct AckResponse {
  uint64_t request_id = 0;
  Status status;
};

struct SubmitQuerySetResponse {
  uint64_t request_id = 0;
  Status status;
  std::string comparison_id;  ///< empty on failure
};

struct GetStatusResponse {
  uint64_t request_id = 0;
  Status status;
  ComparisonStatus comparison;  ///< default-constructed on failure
};

struct GetResultsResponse {
  uint64_t request_id = 0;
  Status status;
  std::vector<TaskResult> results;  ///< empty on failure
};

struct WaitResponse {
  uint64_t request_id = 0;
  Status status;
  bool done = false;  ///< false = timed out (mirrors WaitForCompletion)
};

struct StatsResponse {
  uint64_t request_id = 0;
  Status status;
  std::string text;  ///< sorted `key=value` lines
};

/// Terminal-state push: the comparison a SUBSCRIBE registered reached
/// `done` (every task terminal). Carries the full aggregate status so the
/// subscriber needs no follow-up poll.
struct EventMessage {
  ComparisonStatus comparison;
};

/// Protocol-level error. `request_id` echoes the offending request when
/// the server could still read its leading u64, 0 otherwise (e.g. a
/// corrupt stream, where the ERROR frame is the connection's last).
struct ErrorMessage {
  uint64_t request_id = 0;
  Status status;
};

// ---- Codecs --------------------------------------------------------------

std::string EncodeUploadDatasetRequest(const UploadDatasetRequest& msg);
Result<UploadDatasetRequest> DecodeUploadDatasetRequest(
    std::string_view payload);

std::string EncodeSubmitQuerySetRequest(const SubmitQuerySetRequest& msg);
Result<SubmitQuerySetRequest> DecodeSubmitQuerySetRequest(
    std::string_view payload);

/// `type` must be one of kGetStatusReq / kGetResultsReq / kCancelReq /
/// kSubscribeReq — the struct is shared, the frame type disambiguates.
std::string EncodeComparisonRequest(uint8_t type,
                                    const ComparisonRequest& msg);
Result<ComparisonRequest> DecodeComparisonRequest(std::string_view payload);

std::string EncodeWaitRequest(const WaitRequest& msg);
Result<WaitRequest> DecodeWaitRequest(std::string_view payload);

std::string EncodeStatsRequest(const StatsRequest& msg);
Result<StatsRequest> DecodeStatsRequest(std::string_view payload);

/// `type` must be one of kUploadDatasetResp / kCancelResp / kSubscribeResp.
std::string EncodeAckResponse(uint8_t type, const AckResponse& msg);
Result<AckResponse> DecodeAckResponse(std::string_view payload);

std::string EncodeSubmitQuerySetResponse(const SubmitQuerySetResponse& msg);
Result<SubmitQuerySetResponse> DecodeSubmitQuerySetResponse(
    std::string_view payload);

std::string EncodeGetStatusResponse(const GetStatusResponse& msg);
Result<GetStatusResponse> DecodeGetStatusResponse(std::string_view payload);

std::string EncodeGetResultsResponse(const GetResultsResponse& msg);
Result<GetResultsResponse> DecodeGetResultsResponse(std::string_view payload);

std::string EncodeWaitResponse(const WaitResponse& msg);
Result<WaitResponse> DecodeWaitResponse(std::string_view payload);

std::string EncodeStatsResponse(const StatsResponse& msg);
Result<StatsResponse> DecodeStatsResponse(std::string_view payload);

std::string EncodeEventMessage(const EventMessage& msg);
Result<EventMessage> DecodeEventMessage(std::string_view payload);

std::string EncodeErrorMessage(const ErrorMessage& msg);
Result<ErrorMessage> DecodeErrorMessage(std::string_view payload);

/// Best-effort read of a payload's leading `request_id`, for error replies
/// to requests whose body failed to decode. 0 when even that is missing.
uint64_t PeekRequestId(std::string_view payload);

}  // namespace net
}  // namespace cyclerank

#endif  // CYCLERANK_NET_MESSAGES_H_
