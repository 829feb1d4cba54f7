#include "server/job_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/failpoint.hpp"
#include "core/cosynth.hpp"
#include "core/report.hpp"
#include "core/run_control.hpp"
#include "model/io.hpp"
#include "server/retry.hpp"

namespace mmsyn {
namespace {

failpoint::Site fp_accept{"server.accept"};
failpoint::Site fp_job_spawn{"job.spawn"};

[[nodiscard]] bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

JobServer::JobServer(ServerOptions options) : options_(std::move(options)) {}

JobServer::~JobServer() {
  drain_and_stop();
  journal_.close();
}

void JobServer::log_line(const std::string& message) const {
  if (options_.log) options_.log(message);
}

std::string JobServer::checkpoint_path_for(std::uint64_t job_id) const {
  return options_.state_dir + "/job-" + std::to_string(job_id) + ".ckpt";
}

void JobServer::remove_job_checkpoints(std::uint64_t job_id) {
  const std::string base = checkpoint_path_for(job_id);
  for (int g = 0; g < std::max(1, options_.checkpoint_keep); ++g) {
    std::remove(checkpoint_generation_path(base, g).c_str());
  }
}

template <typename Fn>
void JobServer::journal_durably(const char* what, Fn&& fn) {
  failpoint::retry_transient(what, [&] { fn(); });
}

void JobServer::start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (started_) return;
  if (options_.state_dir.empty()) {
    throw std::runtime_error("server: state_dir is required");
  }

  JournalRecovery recovery = journal_.open(options_.state_dir + "/jobs.wal");
  for (const std::string& note : recovery.notes) {
    log_line("journal recovery: " + note);
  }
  next_job_id_ = recovery.next_job_id;

  // Replay: terminal jobs keep their results (kOk results re-seed the
  // cache), pending jobs re-enter the queue in admission order — unless
  // their journaled crash-attempt count says running them again would
  // take the server down a third time, in which case they are
  // quarantined here and now, before any worker can touch them.
  for (auto& [id, jj] : recovery.jobs) {
    Job job;
    job.id = id;
    job.fingerprint = jj.fingerprint;
    job.options = jj.options;
    job.system_text = jj.system_text;
    job.crash_attempts = jj.crash_attempts;
    stats_.accepted += 1;
    if (jj.completed) {
      job.state = JobState::kCompleted;
      job.result = jj.result;
      stats_.completed += 1;
      if (options_.result_cache && jj.result.outcome == JobOutcome::kOk) {
        cache_[jj.fingerprint] = jj.result;
      }
    } else if (jj.quarantined) {
      job.state = JobState::kQuarantined;
      job.result.job_id = id;
      job.result.outcome = JobOutcome::kQuarantined;
      job.result.report = jj.quarantine_error;
      stats_.quarantined += 1;
    } else if (job.crash_attempts >= options_.max_crash_attempts) {
      const std::string error =
          "quarantined at recovery: " + std::to_string(job.crash_attempts) +
          " attempts ended in a crash";
      journal_durably("journal quarantine",
                      [&] { journal_.append_quarantine(id, error); });
      job.state = JobState::kQuarantined;
      job.result.job_id = id;
      job.result.outcome = JobOutcome::kQuarantined;
      job.result.report = error;
      stats_.quarantined += 1;
      log_line("job " + std::to_string(id) + ": " + error);
    } else {
      job.state = JobState::kQueued;
      queue_.push_back(id);
      stats_.recovered_pending += 1;
      log_line("job " + std::to_string(id) + ": recovered, re-enqueued" +
               (job.crash_attempts > 0
                    ? " (crash attempts so far: " +
                          std::to_string(job.crash_attempts) + ")"
                    : ""));
    }
    jobs_.emplace(id, std::move(job));
  }

  // Compaction bounds replay time for the next restart; recovery already
  // has everything in memory, so the rewrite reflects the replayed state
  // plus any quarantine decisions just journaled (kAttempt runs survive
  // via the compactor's crash-attempt re-emission).
  JournalRecovery compact_state;
  compact_state.next_job_id = next_job_id_;
  for (const auto& [id, job] : jobs_) {
    JournalJob jj;
    jj.job_id = id;
    jj.fingerprint = job.fingerprint;
    jj.options = job.options;
    jj.system_text = job.system_text;
    jj.crash_attempts = job.crash_attempts;
    jj.completed = job.state == JobState::kCompleted;
    jj.quarantined = job.state == JobState::kQuarantined;
    if (jj.completed) jj.result = job.result;
    if (jj.quarantined) jj.quarantine_error = job.result.report;
    compact_state.jobs.emplace(id, std::move(jj));
  }
  journal_.compact(compact_state);

  started_ = true;
  draining_ = false;

  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.workers > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }

  if (!options_.socket_path.empty()) {
    std::remove(options_.socket_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error(std::string("server: socket: ") +
                               std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("server: socket path too long: " +
                               options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      throw std::runtime_error("server: bind " + options_.socket_path + ": " +
                               std::strerror(errno));
    }
    if (::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error(std::string("server: listen: ") +
                               std::strerror(errno));
    }
    acceptor_ = std::thread([this] { accept_loop(); });
  }
}

SubmitOutcome JobServer::submit(const SubmitRequest& request) {
  SubmitOutcome out;

  // Invalid options are refused before anything is journaled: the job
  // could never run, and a typed rejection names the flag to fix.
  try {
    validate(request.options);
  } catch (const std::invalid_argument& e) {
    out.reject = {RejectCode::kBadRequest, e.what()};
    return out;
  }

  // Parse at admission so garbage is rejected synchronously with a typed
  // kParseError instead of burning a worker slot. Semantic validation
  // deliberately does NOT happen here: a parseable-but-invalid system is
  // admitted and fails deterministically inside its job, exercising the
  // quarantine path rather than the admission path.
  try {
    (void)system_from_string(request.system_text);
  } catch (const std::exception& e) {
    out.reject = {RejectCode::kParseError, e.what()};
    return out;
  }

  const std::uint64_t fingerprint =
      job_fingerprint(request.system_text, request.options);

  std::unique_lock<std::mutex> lock(mu_);
  if (!started_ || draining_) {
    out.reject = {RejectCode::kDraining, "server is draining"};
    return out;
  }

  if (options_.result_cache) {
    stats_.cache_lookups += 1;
    const auto hit = cache_.find(fingerprint);
    if (hit != cache_.end()) {
      stats_.cache_hits += 1;
      const std::uint64_t id = next_job_id_++;
      JobResultReply result = hit->second;
      result.job_id = id;
      try {
        // Cache hits are journaled accept+complete too, so a restarted
        // server still knows every id it ever acknowledged.
        journal_durably("journal accept", [&] {
          journal_.append_accept(id, fingerprint, request.options,
                                 request.system_text);
        });
        journal_durably("journal complete",
                        [&] { journal_.append_complete(result); });
      } catch (const std::exception& e) {
        out.reject = {RejectCode::kBadRequest,
                      std::string("journal write failed: ") + e.what()};
        return out;
      }
      Job job;
      job.id = id;
      job.fingerprint = fingerprint;
      job.options = request.options;
      job.system_text = request.system_text;
      job.state = JobState::kCompleted;
      job.result = std::move(result);
      jobs_.emplace(id, std::move(job));
      stats_.accepted += 1;
      stats_.completed += 1;
      out.accepted = true;
      out.ok = {id, /*cached=*/true};
      done_cv_.notify_all();
      return out;
    }
  }

  if (static_cast<int>(queue_.size()) >= options_.queue_limit) {
    stats_.queue_full_rejections += 1;
    out.reject = {RejectCode::kQueueFull,
                  "admission queue full (" +
                      std::to_string(options_.queue_limit) + " jobs)"};
    return out;
  }

  const std::uint64_t id = next_job_id_++;
  try {
    // The WAL write happens BEFORE the in-memory enqueue and before the
    // client hears kSubmitOk: an acknowledged job is durable by
    // definition.
    journal_durably("journal accept", [&] {
      journal_.append_accept(id, fingerprint, request.options,
                             request.system_text);
    });
  } catch (const std::exception& e) {
    out.reject = {RejectCode::kBadRequest,
                  std::string("journal write failed: ") + e.what()};
    return out;
  }

  Job job;
  job.id = id;
  job.fingerprint = fingerprint;
  job.options = request.options;
  job.system_text = request.system_text;
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  stats_.accepted += 1;
  out.accepted = true;
  out.ok = {id, /*cached=*/false};
  queue_cv_.notify_one();
  return out;
}

WaitOutcome JobServer::wait(std::uint64_t job_id) {
  WaitOutcome out;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      out.reject = {RejectCode::kUnknownJob,
                    "unknown job " + std::to_string(job_id)};
      return out;
    }
    const Job& job = it->second;
    if (job.state == JobState::kCompleted ||
        job.state == JobState::kQuarantined) {
      out.ok = true;
      out.result = job.result;
      return out;
    }
    if (draining_) {
      out.reject = {RejectCode::kDraining,
                    "server is draining; job " + std::to_string(job_id) +
                        " is journaled and will resume on restart"};
      return out;
    }
    done_cv_.wait(lock);
  }
}

StatsReply JobServer::stats() {
  std::unique_lock<std::mutex> lock(mu_);
  StatsReply s = stats_;
  s.queued = queue_.size();
  s.running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kRunning) s.running += 1;
  }
  return s;
}

void JobServer::worker_loop() {
  for (;;) {
    std::uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (draining_) return;
      id = queue_.front();
      queue_.pop_front();
      Job& job = jobs_.at(id);
      if (job.state != JobState::kQueued) continue;
      // The attempt record is what recovery counts: it is on disk before
      // the run starts, so a crash anywhere inside the run leaves a
      // dangling kAttempt — exactly one crash attempt.
      try {
        journal_durably("journal attempt", [&] {
          journal_.append_attempt(id, job.crash_attempts + 1);
        });
      } catch (const std::exception& e) {
        // Without a durable attempt record the crash-quarantine counter
        // would undercount; run anyway (availability over bookkeeping)
        // but say so.
        log_line("job " + std::to_string(id) +
                 ": attempt record not durable: " + e.what());
      }
      job.state = JobState::kRunning;
      job.started_at = std::chrono::steady_clock::now();
      job.effective_budget = job.options.time_budget > 0.0
                                 ? job.options.time_budget
                                 : options_.default_time_budget;
    }
    run_job(id);
  }
}

void JobServer::run_job(std::uint64_t job_id) {
  // Immutable inputs, copied once; the mutable Job stays behind mu_.
  JobOptions job_options;
  std::string system_text;
  double budget = 0.0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Job& job = jobs_.at(job_id);
    job_options = job.options;
    system_text = job.system_text;
    budget = job.effective_budget;
  }

  bool fresh_restart_used = false;
  for (;;) {
    RunControl control;
    control.time_budget_seconds = budget;
    control.checkpoint_path = checkpoint_path_for(job_id);
    control.checkpoint_every_generations = options_.checkpoint_every;
    control.checkpoint_keep_generations = options_.checkpoint_keep;
    if (file_exists(control.checkpoint_path)) {
      control.resume_path = control.checkpoint_path;
    }
    control.recovery_log = [this, job_id](const std::string& message) {
      log_line("job " + std::to_string(job_id) + ": " + message);
    };

    {
      std::unique_lock<std::mutex> lock(mu_);
      Job& job = jobs_.at(job_id);
      job.control = &control;
      if (job.drain_requested) control.request_cancel();
    }
    // Everything below must clear job.control before leaving this
    // iteration — the watchdog dereferences it under mu_.
    auto detach_control = [this, job_id] {
      std::unique_lock<std::mutex> lock(mu_);
      jobs_.at(job_id).control = nullptr;
    };

    try {
      if (failpoint::inject(fp_job_spawn)) {
        // corrupt action has nothing site-specific to corrupt here;
        // treat it as a transient failure so the spec still bites.
        throw TransientFault("job.spawn");
      }

      System system = system_from_string(system_text);
      const auto problems = system.validate();
      if (!problems.empty()) {
        std::string message = "invalid system:";
        for (const auto& p : problems) message += " " + p + ";";
        throw std::runtime_error(message);
      }

      // Admission validated these options; a job replayed from an older
      // journal may not have been, so an invalid one fails here and is
      // quarantined like any other deterministic failure.
      validate(job_options);
      const SynthesisOptions options = to_synthesis_options(job_options);

      SynthesisResult result;
      try {
        result = synthesize(system, options, &control);
      } catch (const CheckpointError& e) {
        // A poisoned checkpoint must not poison the job: drop it and
        // re-run from scratch once (the fallback loader already tried
        // every older generation before throwing).
        if (fresh_restart_used) throw std::runtime_error(e.what());
        fresh_restart_used = true;
        log_line("job " + std::to_string(job_id) +
                 ": unusable checkpoint, restarting fresh: " + e.what());
        remove_job_checkpoints(job_id);
        detach_control();
        continue;
      }

      std::unique_lock<std::mutex> lock(mu_);
      Job& job = jobs_.at(job_id);
      job.control = nullptr;

      if (result.partial && result.stop_reason == StopReason::kCancelled &&
          job.drain_requested && !job.watchdog_fired) {
        // Drain interruption: the cooperative stop just wrote a
        // checkpoint, so the job is resumable bit-identically. Mark the
        // interruption deliberate (kDrained resets the crash-attempt
        // count — this was not a crash) and leave the job pending.
        try {
          journal_durably("journal drained",
                          [&] { journal_.append_drained(job_id); });
        } catch (const std::exception& e) {
          log_line("job " + std::to_string(job_id) +
                   ": drained record not durable: " + e.what());
        }
        job.state = JobState::kQueued;
        return;
      }

      JobResultReply reply;
      reply.job_id = job_id;
      if (!result.partial) {
        reply.outcome = JobOutcome::kOk;
      } else if (result.stop_reason == StopReason::kBudgetExhausted ||
                 job.watchdog_fired) {
        // Budget exhaustion is a *recoverable, typed* outcome: the
        // client still receives the best-so-far fine-DVS evaluation.
        reply.outcome = JobOutcome::kBudgetExhausted;
      } else {
        reply.outcome = JobOutcome::kCancelled;
      }
      reply.feasible = result.evaluation.feasible();
      reply.avg_power_true = result.evaluation.avg_power_true;

      // Timing never goes into stored reports: they must be
      // byte-identical across runs, restarts and the CLI.
      reply.report = implementation_report(system, result,
                                           to_report_options(job_options));

      complete_job_locked(job, std::move(reply), lock);
      return;
    } catch (const TransientFault& e) {
      detach_control();
      int attempt = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        Job& job = jobs_.at(job_id);
        job.transient_retries += 1;
        attempt = job.transient_retries;
        stats_.retries += 1;
        if (attempt > options_.max_transient_retries) {
          quarantine_job_locked(
              job, std::string("transient retries exhausted: ") + e.what(),
              lock);
          return;
        }
      }
      const auto backoff =
          server_retry_backoff(options_.seed, job_id, attempt);
      log_line("job " + std::to_string(job_id) + ": transient fault (" +
               e.what() + "), retry " + std::to_string(attempt) + " in " +
               std::to_string(backoff.count()) + "us");
      std::this_thread::sleep_for(backoff);
      continue;
    } catch (const std::exception& e) {
      detach_control();
      std::unique_lock<std::mutex> lock(mu_);
      Job& job = jobs_.at(job_id);
      job.deterministic_failures += 1;
      if (job.deterministic_failures >= options_.max_deterministic_failures) {
        quarantine_job_locked(job, e.what(), lock);
        return;
      }
      // One confirmation re-run before quarantine: a failure that
      // repeats is deterministic by observation, not assumption.
      log_line("job " + std::to_string(job_id) + ": failed (" + e.what() +
               "), confirming before quarantine");
      continue;
    }
  }
}

void JobServer::complete_job_locked(Job& job, JobResultReply result,
                                    std::unique_lock<std::mutex>& lock) {
  (void)lock;
  try {
    journal_durably("journal complete",
                    [&] { journal_.append_complete(result); });
  } catch (const std::exception& e) {
    // The in-memory result is still served to waiters; the restart
    // simply re-runs the job (deterministically, to the same bytes).
    log_line("job " + std::to_string(job.id) +
             ": result record not durable: " + e.what());
  }
  job.state = JobState::kCompleted;
  job.result = std::move(result);
  stats_.completed += 1;
  if (options_.result_cache && job.result.outcome == JobOutcome::kOk) {
    cache_[job.fingerprint] = job.result;
  }
  remove_job_checkpoints(job.id);
  done_cv_.notify_all();
}

void JobServer::quarantine_job_locked(Job& job, const std::string& error,
                                      std::unique_lock<std::mutex>& lock) {
  (void)lock;
  try {
    journal_durably("journal quarantine",
                    [&] { journal_.append_quarantine(job.id, error); });
  } catch (const std::exception& e) {
    log_line("job " + std::to_string(job.id) +
             ": quarantine record not durable: " + e.what());
  }
  job.state = JobState::kQuarantined;
  job.result = JobResultReply{};
  job.result.job_id = job.id;
  job.result.outcome = JobOutcome::kQuarantined;
  job.result.report = error;
  stats_.quarantined += 1;
  remove_job_checkpoints(job.id);
  log_line("job " + std::to_string(job.id) + ": quarantined: " + error);
  done_cv_.notify_all();
}

void JobServer::watchdog_loop() {
  using namespace std::chrono_literals;
  std::unique_lock<std::mutex> lock(mu_);
  while (!draining_) {
    for (auto& [id, job] : jobs_) {
      if (job.state != JobState::kRunning || job.control == nullptr) continue;
      if (job.effective_budget <= 0.0 || job.watchdog_fired) continue;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job.started_at)
              .count();
      if (elapsed > job.effective_budget + options_.watchdog_grace) {
        job.watchdog_fired = true;
        job.control->request_cancel();
        stats_.watchdog_cancels += 1;
        log_line("job " + std::to_string(id) + ": watchdog cancel after " +
                 std::to_string(elapsed) + "s (budget " +
                 std::to_string(job.effective_budget) + "s + grace)");
      }
    }
    done_cv_.wait_for(lock, 50ms);
  }
}

void JobServer::accept_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (draining_) return;
    }
    reap_finished_connections();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed by drain
    }
    try {
      if (failpoint::inject(fp_accept)) {
        // corrupt: nothing to corrupt at the accept site — drop the
        // connection, which is indistinguishable from a network fault.
        ::close(fd);
        continue;
      }
    } catch (const TransientFault&) {
      ::close(fd);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void JobServer::reap_finished_connections() {
  std::vector<std::thread> finished;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const std::thread::id id : finished_connections_) {
      const auto it = std::find_if(
          connections_.begin(), connections_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == connections_.end()) continue;
      finished.push_back(std::move(*it));
      connections_.erase(it);
    }
    finished_connections_.clear();
  }
  for (std::thread& t : finished) t.join();
}

std::size_t JobServer::connection_thread_count() {
  std::unique_lock<std::mutex> lock(mu_);
  return connections_.size();
}

void JobServer::serve_connection(int fd) {
  try {
    Frame frame;
    while (recv_frame(fd, frame)) {
      switch (frame.type) {
        case MessageType::kSubmit: {
          const SubmitOutcome out = submit(decode_submit(frame.payload));
          if (out.accepted) {
            send_frame(fd, MessageType::kSubmitOk, encode_submit_ok(out.ok));
          } else {
            send_frame(fd, MessageType::kReject, encode_reject(out.reject));
          }
          break;
        }
        case MessageType::kWait: {
          const WaitOutcome out = wait(decode_wait(frame.payload).job_id);
          if (out.ok) {
            send_frame(fd, MessageType::kJobResult,
                       encode_job_result(out.result));
          } else {
            send_frame(fd, MessageType::kReject, encode_reject(out.reject));
          }
          break;
        }
        case MessageType::kStats: {
          send_frame(fd, MessageType::kStatsReply, encode_stats(stats()));
          break;
        }
        default: {
          RejectReply reject{RejectCode::kBadRequest,
                             "unexpected message type"};
          send_frame(fd, MessageType::kReject, encode_reject(reject));
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    log_line(std::string("connection error: ") + e.what());
  }
  {
    // Deregister before closing so the drain never shutdown()s a stale
    // (possibly reused) fd number; the acceptor joins this thread later.
    std::unique_lock<std::mutex> lock(mu_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
    finished_connections_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

void JobServer::drain_and_stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_ || draining_) return;
    draining_ = true;
    for (auto& [id, job] : jobs_) {
      if (job.state == JobState::kRunning) {
        job.drain_requested = true;
        if (job.control != nullptr) job.control->request_cancel();
      }
    }
    queue_cv_.notify_all();
    done_cv_.notify_all();
  }

  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();

  // The acceptor polls listen_fd_ with a 200ms timeout and re-checks
  // draining_ each tick, so it exits on its own; the fd is closed only
  // after the join — closing it out from under a concurrent poll() is a
  // race (and a potential fd reuse hazard).
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Wake connection threads blocked mid-recv; their waits already
  // returned kDraining above.
  std::vector<int> fds;
  std::vector<std::thread> connections;
  {
    std::unique_lock<std::mutex> lock(mu_);
    fds = connection_fds_;
    connections.swap(connections_);
  }
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    connection_fds_.clear();
    finished_connections_.clear();
    started_ = false;
  }
  if (!options_.socket_path.empty()) {
    std::remove(options_.socket_path.c_str());
  }
  log_line("drained: queued jobs remain journaled for the next start");
}

}  // namespace mmsyn
