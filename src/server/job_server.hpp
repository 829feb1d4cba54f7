// Fault-tolerant synthesis job server (DESIGN.md §15).
//
// A JobServer turns the one-shot `synthesize()` call into a long-running
// service with a crash-safety story end to end:
//
//  * bounded admission queue — a full queue is a typed kQueueFull
//    rejection, never an unbounded buffer;
//  * write-ahead journal (server/journal.hpp) — every accepted job is
//    durable before the client sees kSubmitOk, so `kill -9` + restart
//    recovers and re-runs every accepted-but-unfinished job;
//  * per-job RunControl — wall-clock budget, periodic checkpoints into
//    the state directory, resume-on-restart through the existing
//    checkpoint machinery (bit-identical results);
//  * watchdog — a scanner thread cooperatively cancels jobs that overrun
//    their budget by more than a grace period;
//  * deterministic bounded retry — transient faults re-run the job after
//    `server_retry_backoff(seed, job id, attempt)` (a pure function; see
//    server/retry.hpp), never forever;
//  * quarantine — a job that fails deterministically twice, or whose run
//    crashed the server twice (counted across restarts via the journal's
//    kAttempt records), is parked with a terminal kQuarantined result
//    and can never take the service down or starve other jobs;
//  * graceful drain — SIGTERM stops admission, cooperatively cancels
//    running jobs (their checkpoints make the interruption free), marks
//    them kDrained in the journal and exits; a restarted server resumes
//    them bit-identically;
//  * result cache — completed kOk results are kept (and rebuilt from the
//    journal on restart) keyed on the (system text, options) fingerprint,
//    so resubmitting identical work is a cache hit, not a re-synthesis.
//
// The class exposes a direct in-process API (submit/wait/stats) used by
// the tests and benchmarks, and an optional unix-domain-socket listener
// speaking the server/wire.hpp protocol used by mmsyn_serve/mmsyn_client.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/journal.hpp"
#include "server/wire.hpp"

namespace mmsyn {

class RunControl;

struct ServerOptions {
  /// Unix-domain socket path; empty runs without a listener (in-process
  /// API only — the configuration the unit tests use).
  std::string socket_path;
  /// Directory for the journal (`jobs.wal`) and per-job checkpoints
  /// (`job-<id>.ckpt`). Must exist.
  std::string state_dir;
  /// Worker threads running jobs. 0 = admission-only: jobs are accepted,
  /// journaled and queued but never started — the deterministic seam for
  /// queue/recovery tests.
  int workers = 2;
  /// Admission-queue bound; a submit beyond it is rejected kQueueFull.
  int queue_limit = 64;
  /// Budget for jobs that do not set one (seconds; 0 = unlimited).
  double default_time_budget = 0.0;
  /// The watchdog cancels a running job this many seconds past its
  /// budget (covers a run whose own cooperative budget check is stuck).
  double watchdog_grace = 2.0;
  /// Transient-fault re-runs per job before it is quarantined.
  int max_transient_retries = 3;
  /// Deterministic (exception) failures before quarantine.
  int max_deterministic_failures = 2;
  /// Crash attempts (journaled kAttempt with no terminal record, i.e.
  /// the job was running when the server died) before quarantine — a job
  /// that keeps crashing the process must not crash it a third time.
  int max_crash_attempts = 2;
  /// Per-job checkpoint cadence/retention (see RunControl).
  int checkpoint_every = 25;
  int checkpoint_keep = 2;
  /// Server seed: keys the retry-backoff schedule (jobs' synthesis seeds
  /// come from their options, not from this).
  std::uint64_t seed = 1;
  /// Enable the cross-job result cache.
  bool result_cache = true;
  /// Diagnostics sink (recovery notes, retries, quarantines). Unset =
  /// silent.
  std::function<void(const std::string&)> log;
};

class JobServer {
public:
  explicit JobServer(ServerOptions options);
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Opens/replays the journal, re-enqueues recovered pending jobs,
  /// rebuilds the result cache, compacts the journal, starts workers and
  /// watchdog, and (when socket_path is set) binds the listener. Throws
  /// JournalError / std::runtime_error on unrecoverable startup failure.
  void start();

  /// Graceful drain: stop accepting, cooperatively cancel running jobs
  /// (journaling them kDrained once their checkpoint is on disk), wake
  /// every waiter with kDraining, join all threads. Queued jobs stay
  /// accepted in the journal; a restarted server re-runs them. Idempotent.
  void drain_and_stop();

  // ---- in-process API (the wire handlers call exactly these) ----------

  [[nodiscard]] SubmitOutcome submit(const SubmitRequest& request);

  /// Blocks until `job_id` reaches a terminal state (or the server
  /// drains). kUnknownJob for an id never accepted.
  [[nodiscard]] WaitOutcome wait(std::uint64_t job_id);

  [[nodiscard]] StatsReply stats();

  /// Connection threads not yet joined: the clients connected now plus
  /// those that hung up since the acceptor's last tick (it joins finished
  /// threads before each accept and at every 200 ms poll timeout).
  [[nodiscard]] std::size_t connection_thread_count();

  [[nodiscard]] const ServerOptions& options() const { return options_; }

private:
  enum class JobState : std::uint8_t {
    kQueued = 0,
    kRunning = 1,
    kCompleted = 2,
    kQuarantined = 3,
  };

  struct Job {
    std::uint64_t id = 0;
    std::uint64_t fingerprint = 0;
    JobOptions options;
    std::string system_text;
    JobState state = JobState::kQueued;
    JobResultReply result;  // valid in kCompleted / kQuarantined
    int crash_attempts = 0;
    int transient_retries = 0;
    int deterministic_failures = 0;
    /// Set while kRunning (owned by the worker; pointer shared with the
    /// watchdog under the server mutex).
    RunControl* control = nullptr;
    std::chrono::steady_clock::time_point started_at{};
    double effective_budget = 0.0;
    bool drain_requested = false;
    bool watchdog_fired = false;
  };

  void worker_loop();
  void watchdog_loop();
  void accept_loop();
  void serve_connection(int fd);
  /// Joins the connection threads that have finished (acceptor only).
  void reap_finished_connections();

  /// Runs one attempt cycle of `job` (synthesis + retries) and applies
  /// the terminal or drain transition. Called by worker_loop with the
  /// job already journaled kAttempt and marked kRunning.
  void run_job(std::uint64_t job_id);

  /// Journal append with the standard transient-retry envelope; a still-
  /// failing append throws (submit rejects, worker quarantines).
  template <typename Fn>
  void journal_durably(const char* what, Fn&& fn);

  void complete_job_locked(Job& job, JobResultReply result,
                           std::unique_lock<std::mutex>& lock);
  void quarantine_job_locked(Job& job, const std::string& error,
                             std::unique_lock<std::mutex>& lock);
  void remove_job_checkpoints(std::uint64_t job_id);
  [[nodiscard]] std::string checkpoint_path_for(std::uint64_t job_id) const;
  void log_line(const std::string& message) const;

  ServerOptions options_;
  JobJournal journal_;

  std::mutex mu_;
  std::condition_variable queue_cv_;  ///< workers: queue or shutdown
  std::condition_variable done_cv_;   ///< waiters: terminal state or drain
  std::map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> queue_;
  std::map<std::uint64_t, JobResultReply> cache_;  ///< fingerprint -> kOk
  std::uint64_t next_job_id_ = 1;
  bool draining_ = false;
  bool started_ = false;

  StatsReply stats_{};

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  std::vector<std::thread> connections_;  ///< under mu_
  std::vector<int> connection_fds_;
  /// Connection threads that returned and await a join.
  std::vector<std::thread::id> finished_connections_;
};

}  // namespace mmsyn
