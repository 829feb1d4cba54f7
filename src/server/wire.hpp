// Versioned, length-prefixed binary wire protocol of the synthesis job
// server (DESIGN.md §15).
//
// Every message travels as one *frame* over a unix-domain stream socket:
//
//   u32  magic "MMWP"
//   u16  protocol version (kWireVersion)
//   u16  message type (MessageType)
//   u32  payload size in bytes
//   ...  payload (message-specific, see the encode_* / decode_* pairs)
//   u32  CRC-32 of the payload
//
// All integers little-endian; strings are u32-length-prefixed byte runs.
// The trailing CRC plus the explicit size reject truncation and bit rot
// the same way the checkpoint container does; the version gates format
// evolution — a server receiving a newer (or corrupt) frame answers with
// a typed kReject instead of guessing.
//
// The request/reply vocabulary is deliberately small: kSubmit admits one
// job (system text + options) and returns kSubmitOk or a typed kReject
// (kQueueFull is the backpressure signal); kWait blocks until the named
// job completes and returns kJobResult; kStats returns the server
// counters. Clients reconnect per operation, so a server restart between
// submit and wait is invisible — job ids are durable (journaled).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/job_options.hpp"

namespace mmsyn {

/// Framing/protocol failure: truncated frame, bad magic, CRC mismatch,
/// version skew, or a connection that died mid-frame.
class WireError : public std::runtime_error {
public:
  explicit WireError(const std::string& message)
      : std::runtime_error("wire: " + message) {}
};

// v2: JobOptions gained power_backend (the --power registry choice).
inline constexpr std::uint16_t kWireVersion = 2;

enum class MessageType : std::uint16_t {
  kSubmit = 1,     ///< client -> server: JobOptions + system text
  kSubmitOk = 2,   ///< server -> client: job id (+ cached flag)
  kReject = 3,     ///< server -> client: typed rejection
  kWait = 4,       ///< client -> server: block until job id completes
  kJobResult = 5,  ///< server -> client: outcome + report
  kStats = 6,      ///< client -> server: counter snapshot request
  kStatsReply = 7, ///< server -> client: counter snapshot
};

/// Why a request was refused. kQueueFull is the admission backpressure
/// signal (the bounded queue is at capacity — resubmit later); the rest
/// are terminal for the request that triggered them.
enum class RejectCode : std::uint16_t {
  kQueueFull = 1,   ///< bounded admission queue at capacity
  kParseError = 2,  ///< the submitted system text does not parse
  kDraining = 3,    ///< server is draining; job journaled or resubmit
  kUnknownJob = 4,  ///< kWait for an id the journal has never accepted
  kBadRequest = 5,  ///< malformed/unsupported frame
};

/// Terminal outcome of an accepted job.
enum class JobOutcome : std::uint8_t {
  kOk = 0,               ///< ran to convergence; full result
  kBudgetExhausted = 1,  ///< per-job wall-clock budget expired (or the
                         ///< watchdog cancelled a hung job); the report
                         ///< carries the partial fine-DVS result
  kCancelled = 2,        ///< cooperatively cancelled for another reason
  kQuarantined = 3,      ///< failed deterministically twice (poisoned
                         ///< model); the report carries the error
};

/// Cache/identity key of a submission: FNV-1a over the system text and
/// every option field (strings length-prefixed, doubles by bit pattern).
/// Two submissions with equal fingerprints produce byte-identical
/// reports, which is what lets the result cache serve repeats without
/// re-synthesis.
[[nodiscard]] std::uint64_t job_fingerprint(std::string_view system_text,
                                            const JobOptions& options);

struct SubmitRequest {
  JobOptions options;
  std::string system_text;
};

struct SubmitReply {
  std::uint64_t job_id = 0;
  /// The result cache already held this fingerprint; the job is born
  /// completed and kWait returns immediately.
  bool cached = false;
};

struct RejectReply {
  RejectCode code = RejectCode::kBadRequest;
  std::string message;
};

struct WaitRequest {
  std::uint64_t job_id = 0;
};

struct JobResultReply {
  std::uint64_t job_id = 0;
  JobOutcome outcome = JobOutcome::kOk;
  bool feasible = false;
  double avg_power_true = 0.0;
  /// The full implementation report (kQuarantined: the error message).
  std::string report;
};

struct StatsReply {
  std::uint64_t accepted = 0;     ///< jobs admitted (journaled), ever
  std::uint64_t completed = 0;    ///< jobs finished with a result
  std::uint64_t quarantined = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t queue_full_rejections = 0;
  std::uint64_t retries = 0;           ///< transient-fault re-runs
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t recovered_pending = 0; ///< jobs re-enqueued at startup
  std::uint64_t queued = 0;            ///< current queue depth
  std::uint64_t running = 0;           ///< jobs in a worker right now
};

/// In-process outcome of a submit (shared by the wire client and the
/// server's direct API so tests and the daemon see one shape).
struct SubmitOutcome {
  bool accepted = false;
  SubmitReply ok;      // valid when accepted
  RejectReply reject;  // valid when !accepted
};

/// In-process outcome of a wait.
struct WaitOutcome {
  bool ok = false;
  JobResultReply result;  // valid when ok
  RejectReply reject;     // valid when !ok
};

// ---- payload serialization ------------------------------------------------

[[nodiscard]] std::string encode_submit(const SubmitRequest& request);
[[nodiscard]] SubmitRequest decode_submit(std::string_view payload);
[[nodiscard]] std::string encode_submit_ok(const SubmitReply& reply);
[[nodiscard]] SubmitReply decode_submit_ok(std::string_view payload);
[[nodiscard]] std::string encode_reject(const RejectReply& reply);
[[nodiscard]] RejectReply decode_reject(std::string_view payload);
[[nodiscard]] std::string encode_wait(const WaitRequest& request);
[[nodiscard]] WaitRequest decode_wait(std::string_view payload);
[[nodiscard]] std::string encode_job_result(const JobResultReply& reply);
[[nodiscard]] JobResultReply decode_job_result(std::string_view payload);
[[nodiscard]] std::string encode_stats(const StatsReply& reply);
[[nodiscard]] StatsReply decode_stats(std::string_view payload);

// ---- framing over a connected socket --------------------------------------

struct Frame {
  MessageType type{};
  std::string payload;
};

/// Writes one frame; throws WireError on I/O failure.
void send_frame(int fd, MessageType type, std::string_view payload);

/// Reads one frame. Returns false on a clean EOF at a frame boundary
/// (peer closed); throws WireError on mid-frame EOF, bad magic, version
/// skew, oversized payloads, or CRC mismatch.
[[nodiscard]] bool recv_frame(int fd, Frame& frame);

}  // namespace mmsyn
