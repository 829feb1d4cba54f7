#include "server/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/byte_codec.hpp"
#include "common/checksum.hpp"

namespace mmsyn {
namespace {

constexpr std::uint32_t kFrameMagic = 0x4d4d5750u;  // "MMWP" (LE bytes PWMM)

/// Frames larger than this are rejected before allocation: no legitimate
/// message (system text + report) comes close, and the cap keeps a
/// corrupt length field from driving a multi-gigabyte allocation.
constexpr std::uint32_t kMaxPayload = 64u << 20;

using Reader = ByteReader<WireError>;

/// write(2) loop tolerating EINTR; throws WireError on hard failure.
void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("send failed: ") + std::strerror(errno));
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

/// read(2) loop. Returns false on EOF before the first byte (clean close
/// when `eof_ok`); throws on mid-buffer EOF or hard error.
bool read_all(int fd, char* p, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::read(fd, p + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("recv failed: ") + std::strerror(errno));
    }
    if (k == 0) {
      if (got == 0 && eof_ok) return false;
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

std::uint64_t job_fingerprint(std::string_view system_text,
                              const JobOptions& options) {
  Fnv1a64 h;
  h.add_bytes(system_text.data(), system_text.size());
  h.add(system_text.size());
  h.add(options.seed);
  h.add(options.population);
  h.add(options.generations);
  // threads deliberately excluded: results are thread-count invariant,
  // and folding it in would defeat the cache across --threads settings.
  h.add(options.dvs_backend.size());
  h.add_bytes(options.dvs_backend.data(), options.dvs_backend.size());
  h.add(options.scheduler_backend.size());
  h.add_bytes(options.scheduler_backend.data(),
              options.scheduler_backend.size());
  h.add(options.power_backend.size());
  h.add_bytes(options.power_backend.data(), options.power_backend.size());
  h.add(options.consider_probabilities);
  h.add(options.time_budget);
  h.add(options.report_gantt);
  h.add(options.report_voltages);
  return h.digest();
}

std::string encode_submit(const SubmitRequest& request) {
  ByteWriter w;
  write_job_options(w, request.options);
  w.str(request.system_text);
  return w.take();
}

SubmitRequest decode_submit(std::string_view payload) {
  Reader r(payload);
  SubmitRequest req;
  req.options = read_job_options(r);
  req.system_text = r.str();
  r.expect_end();
  return req;
}

std::string encode_submit_ok(const SubmitReply& reply) {
  ByteWriter w;
  w.u64(reply.job_id);
  w.boolean(reply.cached);
  return w.take();
}

SubmitReply decode_submit_ok(std::string_view payload) {
  Reader r(payload);
  SubmitReply reply;
  reply.job_id = r.u64();
  reply.cached = r.boolean();
  r.expect_end();
  return reply;
}

std::string encode_reject(const RejectReply& reply) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(reply.code));
  w.str(reply.message);
  return w.take();
}

RejectReply decode_reject(std::string_view payload) {
  Reader r(payload);
  RejectReply reply;
  reply.code = static_cast<RejectCode>(r.u16());
  reply.message = r.str();
  r.expect_end();
  return reply;
}

std::string encode_wait(const WaitRequest& request) {
  ByteWriter w;
  w.u64(request.job_id);
  return w.take();
}

WaitRequest decode_wait(std::string_view payload) {
  Reader r(payload);
  WaitRequest req;
  req.job_id = r.u64();
  r.expect_end();
  return req;
}

std::string encode_job_result(const JobResultReply& reply) {
  ByteWriter w;
  w.u64(reply.job_id);
  w.u8(static_cast<std::uint8_t>(reply.outcome));
  w.boolean(reply.feasible);
  w.f64(reply.avg_power_true);
  w.str(reply.report);
  return w.take();
}

JobResultReply decode_job_result(std::string_view payload) {
  Reader r(payload);
  JobResultReply reply;
  reply.job_id = r.u64();
  reply.outcome = static_cast<JobOutcome>(r.u8());
  reply.feasible = r.boolean();
  reply.avg_power_true = r.f64();
  reply.report = r.str();
  r.expect_end();
  return reply;
}

std::string encode_stats(const StatsReply& reply) {
  ByteWriter w;
  w.u64(reply.accepted);
  w.u64(reply.completed);
  w.u64(reply.quarantined);
  w.u64(reply.cache_hits);
  w.u64(reply.cache_lookups);
  w.u64(reply.queue_full_rejections);
  w.u64(reply.retries);
  w.u64(reply.watchdog_cancels);
  w.u64(reply.recovered_pending);
  w.u64(reply.queued);
  w.u64(reply.running);
  return w.take();
}

StatsReply decode_stats(std::string_view payload) {
  Reader r(payload);
  StatsReply reply;
  reply.accepted = r.u64();
  reply.completed = r.u64();
  reply.quarantined = r.u64();
  reply.cache_hits = r.u64();
  reply.cache_lookups = r.u64();
  reply.queue_full_rejections = r.u64();
  reply.retries = r.u64();
  reply.watchdog_cancels = r.u64();
  reply.recovered_pending = r.u64();
  reply.queued = r.u64();
  reply.running = r.u64();
  r.expect_end();
  return reply;
}

void send_frame(int fd, MessageType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) throw WireError("payload too large");
  // One coalesced buffer per frame: a frame is small relative to the
  // payload, and a single write keeps concurrent frames on a shared fd
  // impossible to interleave (each connection is single-threaded anyway).
  ByteWriter w;
  w.u32(kFrameMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));
  const std::string buf = w.take();
  write_all(fd, buf.data(), buf.size());
}

bool recv_frame(int fd, Frame& frame) {
  char header[12];
  if (!read_all(fd, header, sizeof header, /*eof_ok=*/true)) return false;
  Reader r(std::string_view(header, sizeof header));
  if (r.u32() != kFrameMagic) throw WireError("bad frame magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("unsupported protocol version " + std::to_string(version));
  }
  frame.type = static_cast<MessageType>(r.u16());
  const std::uint32_t size = r.u32();
  if (size > kMaxPayload) throw WireError("payload too large");

  frame.payload.resize(size);
  if (size > 0) read_all(fd, frame.payload.data(), size, /*eof_ok=*/false);

  char crc_bytes[4];
  read_all(fd, crc_bytes, sizeof crc_bytes, /*eof_ok=*/false);
  Reader cr(std::string_view(crc_bytes, sizeof crc_bytes));
  if (cr.u32() != crc32(frame.payload)) throw WireError("payload CRC mismatch");
  return true;
}

}  // namespace mmsyn
