// Long-running synthesis job server (see src/server/job_server.hpp and
// DESIGN.md §15): accepts concurrent jobs over a unix-domain socket,
// journals every accepted job to a write-ahead log under --state-dir,
// checkpoints running jobs, and survives kill -9 by replaying the
// journal on the next start. SIGTERM/SIGINT triggers a graceful drain:
// admission stops, running jobs checkpoint and are journaled kDrained,
// queued jobs stay journaled, and the process exits 0; a restarted
// server resumes all of them bit-identically.
//
//   mmsyn_serve --socket /tmp/mmsyn.sock --state-dir /var/lib/mmsyn
//   mmsyn_serve --socket s.sock --state-dir st --workers 4 --queue-limit 32
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/failpoint.hpp"
#include "common/flags.hpp"
#include "common/interrupt.hpp"
#include "core/job_options.hpp"
#include "server/job_server.hpp"

using namespace mmsyn;

namespace {

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
/// Every checkpoint save renames each kept generation once (the same
/// bound as synthesize_file's --checkpoint-keep).
constexpr std::int64_t kMaxCheckpointKeep = 1000;

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_string("socket", "", "unix-domain socket path to listen on");
  flags.define_string("state-dir", "",
                      "directory for the job journal and checkpoints "
                      "(must exist)");
  flags.define_int("workers", 2, "concurrent synthesis worker threads");
  flags.define_int("queue-limit", 64,
                   "admission-queue bound; beyond it submits are rejected "
                   "with the typed queue-full code");
  flags.define_double("default-time-budget", 0.0,
                      "wall-clock budget (seconds) for jobs that set none "
                      "(0 = unlimited)");
  flags.define_double("watchdog-grace", 2.0,
                      "seconds past its budget before the watchdog "
                      "cooperatively cancels a job");
  flags.define_int("max-transient-retries", 3,
                   "transient-fault re-runs per job before quarantine");
  flags.define_int("max-deterministic-failures", 2,
                   "deterministic failures before quarantine");
  flags.define_int("max-crash-attempts", 2,
                   "journaled crashed attempts before quarantine");
  flags.define_int("checkpoint-every", 25,
                   "generations between per-job checkpoints");
  flags.define_int("checkpoint-keep", 2,
                   "checkpoint generations kept per job");
  flags.define_int("seed", 1,
                   "server seed keying the deterministic retry-backoff "
                   "schedule (not the jobs' synthesis seeds)");
  flags.define_bool("cache", true,
                    "serve repeated (system, options) submissions from the "
                    "cross-job result cache");
  flags.define_string("failpoints", "",
                      "fault-injection spec (see common/failpoint.hpp), or "
                      "'list' to print the registered failpoints and exit; "
                      "empty reads $MMSYN_FAILPOINTS");
  flags.define_bool("verbose", true, "log recovery/retry events to stderr");
  if (!flags.parse(argc, argv)) return 1;

  // Range-checked before anything starts, so a value beyond an int never
  // wraps into a different valid one (--workers=4294967296 would be 0).
  // 0 workers is an admission-only server: jobs are journaled, never run.
  ServerOptions options;
  try {
    options.workers =
        static_cast<int>(flags.get_int_in("workers", 0, kMaxJobThreads));
    options.queue_limit =
        static_cast<int>(flags.get_int_in("queue-limit", 0, kInt32Max));
    options.max_transient_retries = static_cast<int>(
        flags.get_int_in("max-transient-retries", 0, kInt32Max));
    options.max_deterministic_failures = static_cast<int>(
        flags.get_int_in("max-deterministic-failures", 0, kInt32Max));
    options.max_crash_attempts = static_cast<int>(
        flags.get_int_in("max-crash-attempts", 0, kInt32Max));
    options.checkpoint_every =
        static_cast<int>(flags.get_int_in("checkpoint-every", 0, kInt32Max));
    options.checkpoint_keep = static_cast<int>(
        flags.get_int_in("checkpoint-keep", 1, kMaxCheckpointKeep));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  if (flags.get_string("failpoints") == "list") {
    for (const std::string& site : failpoint::registered_sites())
      std::printf("%s\n", site.c_str());
    return 0;
  }
  try {
    if (!flags.get_string("failpoints").empty())
      failpoint::arm(flags.get_string("failpoints"));
    else
      failpoint::arm_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (failpoint::armed())
    std::fprintf(stderr, "failpoints armed: %s\n",
                 failpoint::active_spec().c_str());

  if (flags.get_string("socket").empty() ||
      flags.get_string("state-dir").empty()) {
    std::fprintf(stderr, "--socket and --state-dir are required\n");
    flags.print_usage(argv[0]);
    return 1;
  }

  options.socket_path = flags.get_string("socket");
  options.state_dir = flags.get_string("state-dir");
  options.default_time_budget = flags.get_double("default-time-budget");
  options.watchdog_grace = flags.get_double("watchdog-grace");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.result_cache = flags.get_bool("cache");
  if (flags.get_bool("verbose")) {
    options.log = [](const std::string& message) {
      std::fprintf(stderr, "mmsyn_serve: %s\n", message.c_str());
    };
  }

  JobServer server(std::move(options));
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmsyn_serve: startup failed: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "mmsyn_serve: listening on %s\n",
               flags.get_string("socket").c_str());

  // SIGTERM/SIGINT set the cooperative flag (common/interrupt.hpp); the
  // main thread polls it and runs the graceful drain. A second signal
  // kills the process the ordinary way — the journal makes even that
  // recoverable.
  install_interrupt_flag();
  while (!interrupt_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "mmsyn_serve: draining\n");
  server.drain_and_stop();
  std::fprintf(stderr, "mmsyn_serve: drained, exiting\n");
  return 0;
}
