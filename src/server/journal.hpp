// Write-ahead job journal of the synthesis server.
//
// Every state transition of a job is made durable *before* the in-memory
// state machine acts on it, so a `kill -9` at any instant loses nothing
// that was ever acknowledged to a client:
//
//   kAccept      job admitted: id, fingerprint, options, system text
//   kAttempt     a worker is about to run the job (attempt counter);
//                a crash between kAttempt and the matching kComplete is
//                how recovery counts crash attempts
//   kComplete    terminal result: outcome + report (byte-exact)
//   kQuarantine  job failed deterministically twice; error message
//   kDrained     graceful drain checkpointed the job mid-run; resets the
//                crash-attempt count (the interruption was deliberate)
//
// On-disk format, written with the byte codec the checkpoint container
// and the wire protocol share (common/byte_codec.hpp; the kAccept record
// carries JobOptions in the wire's own encoding): header `MMSYNWAL` + u32
// version, then append-only records of `u32 len | payload | u32
// crc32(payload)`. Each append is fsync'd (failpoint `server.journal.write`; result appends
// additionally pass `job.result.write`). Recovery scans until the first
// torn or corrupt record, truncates the tail there, and replays the
// prefix — exactly the torn-write discipline of the checkpoint rotation,
// applied to a log.
//
// Startup compaction rewrites the journal with only live state (pending
// jobs in full; completed/quarantined jobs' terminal records) via the
// temp + fsync + rename + dir-fsync recipe, bounding replay time for
// long-lived servers.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/wire.hpp"

namespace mmsyn {

class JournalError : public std::runtime_error {
public:
  explicit JournalError(const std::string& message)
      : std::runtime_error("journal: " + message) {}
};

enum class JournalRecordType : std::uint8_t {
  kAccept = 1,
  kAttempt = 2,
  kComplete = 3,
  kQuarantine = 4,
  kDrained = 5,
};

/// Replayed state of one job after recovery.
struct JournalJob {
  std::uint64_t job_id = 0;
  std::uint64_t fingerprint = 0;
  JobOptions options;
  std::string system_text;
  /// kAttempt records seen with no terminal record after them — i.e. how
  /// many times a run of this job was cut short by a crash. kDrained
  /// resets it to zero.
  int crash_attempts = 0;
  bool completed = false;     ///< terminal kComplete replayed
  bool quarantined = false;   ///< terminal kQuarantine replayed
  JobResultReply result;      ///< valid when completed
  std::string quarantine_error;  ///< valid when quarantined
};

/// Result of replaying a journal file.
struct JournalRecovery {
  /// Every job ever accepted, keyed by id (ordered — recovery re-enqueues
  /// pending jobs in admission order).
  std::map<std::uint64_t, JournalJob> jobs;
  std::uint64_t next_job_id = 1;
  /// Diagnostics: torn-tail truncation, corrupt-record stops.
  std::vector<std::string> notes;
};

/// Append-only WAL over one file. Not thread-safe — the server serializes
/// appends behind its state mutex, which also guarantees journal order
/// matches state-machine order.
class JobJournal {
public:
  JobJournal() = default;
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Opens (creating if absent) the journal at `path` and replays it.
  /// A pre-existing file with a bad header throws JournalError; a torn
  /// tail is truncated and noted, never fatal.
  [[nodiscard]] JournalRecovery open(const std::string& path);

  /// Rewrites the file to contain only live state: one kAccept (plus
  /// terminal record, if any) per job still worth remembering. Jobs whose
  /// ids appear in `forget` are dropped entirely. Atomic: temp + fsync +
  /// rename + parent-dir fsync; the journal stays open on the new file.
  void compact(const JournalRecovery& state,
               const std::vector<std::uint64_t>& forget = {});

  // Each append_* makes the record durable (write + fsync) before
  // returning; a failpoint-injected TransientFault propagates to the
  // caller, which owns the retry policy.
  void append_accept(std::uint64_t job_id, std::uint64_t fingerprint,
                     const JobOptions& options, const std::string& system_text);
  void append_attempt(std::uint64_t job_id, int attempt);
  void append_complete(const JobResultReply& result);
  void append_quarantine(std::uint64_t job_id, const std::string& error);
  void append_drained(std::uint64_t job_id);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  void close();

private:
  void append_record(JournalRecordType type, const std::string& payload);

  int fd_ = -1;
  std::string path_;
};

/// Pure replay of journal bytes (exposed for tests): parses records,
/// reports the number of cleanly-parsed bytes (the truncation point for
/// a torn tail) through `valid_size`.
[[nodiscard]] JournalRecovery replay_journal_bytes(std::string_view bytes,
                                                   std::size_t& valid_size);

}  // namespace mmsyn
