// JobServer tests over the in-process API: typed admission control,
// cache behaviour, quarantine isolation, budget typing, transient
// retries and kill-equivalent restart recovery.
#include "server/job_server.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/checkpoint_file.hpp"
#include "common/failpoint.hpp"
#include "model/io.hpp"
#include "server/client.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Fresh scratch state directory per test.
std::string scratch_dir(const char* name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "mmsyn_server_" + name;
  std::remove((dir + "/jobs.wal").c_str());
  std::remove((dir + "/jobs.wal.tmp").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string small_system_text() { return system_to_string(make_mul(5)); }

/// A system that parses but fails System::validate(): every `impl` line
/// is stripped, so each task type has no implementation on any PE. This
/// is the admission-vs-execution seam: admission only parses, so the
/// poison is accepted and must be caught (and quarantined) by its job.
std::string poison_system_text() {
  std::istringstream in(small_system_text());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("impl ", 0) != 0) out << line << "\n";
  }
  return out.str();
}

JobOptions fast_options(std::uint64_t seed) {
  JobOptions o;
  o.seed = seed;
  o.population = 16;
  o.generations = 30;
  o.report_gantt = false;  // keep stored reports small in tests
  return o;
}

ServerOptions base_options(const std::string& state_dir) {
  ServerOptions o;
  o.state_dir = state_dir;
  o.workers = 2;
  o.queue_limit = 16;
  return o;
}

TEST(JobServer, QueueFullIsTypedRejection) {
  const std::string dir = scratch_dir("queuefull");
  ServerOptions options = base_options(dir);
  options.workers = 0;  // admission-only: nothing drains the queue
  options.queue_limit = 2;
  JobServer server(std::move(options));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(1);
  EXPECT_TRUE(server.submit(request).accepted);
  request.options.seed = 2;
  EXPECT_TRUE(server.submit(request).accepted);
  request.options.seed = 3;
  const SubmitOutcome third = server.submit(request);
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reject.code, RejectCode::kQueueFull);

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.queue_full_rejections, 1u);
}

TEST(JobServer, ParseErrorIsTypedRejection) {
  const std::string dir = scratch_dir("parse");
  JobServer server(base_options(dir));
  server.start();
  SubmitRequest request;
  request.system_text = "this is not a system\n";
  const SubmitOutcome out = server.submit(request);
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reject.code, RejectCode::kParseError);
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(JobServer, WaitUnknownJobIsTyped) {
  const std::string dir = scratch_dir("unknown");
  JobServer server(base_options(dir));
  server.start();
  const WaitOutcome out = server.wait(999);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.reject.code, RejectCode::kUnknownJob);
}

TEST(JobServer, ResultCacheServesRepeatsByteIdentically) {
  const std::string dir = scratch_dir("cache");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(4);
  const SubmitOutcome first = server.submit(request);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.ok.cached);
  const WaitOutcome first_result = server.wait(first.ok.job_id);
  ASSERT_TRUE(first_result.ok);
  EXPECT_EQ(first_result.result.outcome, JobOutcome::kOk);
  EXPECT_FALSE(first_result.result.report.empty());

  // Identical submission: served from cache, byte-identical report.
  // A different thread count must hit the same entry (results are
  // thread-count invariant and the fingerprint excludes it).
  request.options.threads = 4;
  const SubmitOutcome second = server.submit(request);
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.ok.cached);
  EXPECT_NE(second.ok.job_id, first.ok.job_id);
  const WaitOutcome second_result = server.wait(second.ok.job_id);
  ASSERT_TRUE(second_result.ok);
  EXPECT_EQ(second_result.result.report, first_result.result.report);

  // A different seed is different work: cache miss.
  request.options = fast_options(5);
  const SubmitOutcome third = server.submit(request);
  ASSERT_TRUE(third.accepted);
  EXPECT_FALSE(third.ok.cached);

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_lookups, 3u);
}

TEST(JobServer, PoisonJobIsQuarantinedWithoutAffectingOthers) {
  const std::string dir = scratch_dir("poison");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest poison;
  poison.system_text = poison_system_text();
  poison.options = fast_options(6);
  const SubmitOutcome poison_submit = server.submit(poison);
  ASSERT_TRUE(poison_submit.accepted);  // parseable => admitted

  SubmitRequest healthy;
  healthy.system_text = small_system_text();
  healthy.options = fast_options(7);
  const SubmitOutcome healthy_submit = server.submit(healthy);
  ASSERT_TRUE(healthy_submit.accepted);

  const WaitOutcome poison_result = server.wait(poison_submit.ok.job_id);
  ASSERT_TRUE(poison_result.ok);
  EXPECT_EQ(poison_result.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(poison_result.result.report.find("invalid system"),
            std::string::npos);

  // The healthy job is untouched by its neighbour's quarantine.
  const WaitOutcome healthy_result = server.wait(healthy_submit.ok.job_id);
  ASSERT_TRUE(healthy_result.ok);
  EXPECT_EQ(healthy_result.result.outcome, JobOutcome::kOk);
  EXPECT_FALSE(healthy_result.result.report.empty());

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(JobServer, UndersizedPopulationFailsTypedAndServerSurvives) {
  // Regression: a population smaller than elite_count + 1 used to crash
  // the worker (and with it the whole daemon). Admission now refuses it
  // with a typed kBadRequest that names the bound; nothing is journaled
  // and the server keeps serving.
  const std::string dir = scratch_dir("tiny_population");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest tiny;
  tiny.system_text = small_system_text();
  tiny.options = fast_options(8);
  tiny.options.population = 1;
  const SubmitOutcome submitted = server.submit(tiny);
  ASSERT_FALSE(submitted.accepted);
  EXPECT_EQ(submitted.reject.code, RejectCode::kBadRequest);
  EXPECT_NE(submitted.reject.message.find("--population=1"), std::string::npos)
      << submitted.reject.message;
  EXPECT_EQ(server.stats().accepted, 0u);

  tiny.options.population = 16;
  const SubmitOutcome healthy = server.submit(tiny);
  ASSERT_TRUE(healthy.accepted);
  const WaitOutcome result = server.wait(healthy.ok.job_id);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.result.outcome, JobOutcome::kOk);

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(JobServer, InvalidOptionsAreRejectedBeforeJournaling) {
  const std::string dir = scratch_dir("invalid_options");
  std::vector<JobOptions> invalid;
  const auto add = [&invalid](auto&& mutate) {
    JobOptions o = fast_options(3);
    mutate(o);
    invalid.push_back(o);
  };
  add([](JobOptions& o) { o.threads = -1; });
  add([](JobOptions& o) { o.generations = -1; });
  add([](JobOptions& o) { o.time_budget = -1.0; });
  add([](JobOptions& o) { o.time_budget = std::nan(""); });
  add([](JobOptions& o) { o.time_budget = HUGE_VAL; });
  add([](JobOptions& o) { o.population = 0; });
  add([](JobOptions& o) { o.dvs_backend = "bogus"; });
  add([](JobOptions& o) { o.scheduler_backend = "bogus"; });
  add([](JobOptions& o) { o.power_backend = "bogus"; });
  {
    JobServer server(base_options(dir));
    server.start();
    for (const JobOptions& options : invalid) {
      SubmitRequest request;
      request.system_text = small_system_text();
      request.options = options;
      const SubmitOutcome out = server.submit(request);
      ASSERT_FALSE(out.accepted);
      EXPECT_EQ(out.reject.code, RejectCode::kBadRequest) << out.reject.message;
      EXPECT_FALSE(out.reject.message.empty());
    }
    EXPECT_EQ(server.stats().accepted, 0u);
    server.drain_and_stop();
  }
  JobJournal journal;
  EXPECT_TRUE(journal.open(dir + "/jobs.wal").jobs.empty());
}

TEST(JobServer, InvalidJobFromOlderJournalIsQuarantined) {
  // A journal written before admission validated options can still hold
  // a job no run can honour; recovery runs it into a typed quarantine
  // instead of a crash.
  const std::string dir = scratch_dir("old_invalid_job");
  const std::string text = small_system_text();
  JobOptions tiny = fast_options(4);
  tiny.population = 1;
  JobOptions unknown_backend = fast_options(5);
  unknown_backend.dvs_backend = "bogus";
  {
    JobJournal journal;
    (void)journal.open(dir + "/jobs.wal");
    journal.append_accept(1, job_fingerprint(text, tiny), tiny, text);
    journal.append_accept(2, job_fingerprint(text, unknown_backend),
                          unknown_backend, text);
  }
  JobServer server(base_options(dir));
  server.start();
  const WaitOutcome first = server.wait(1);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(first.result.report.find("--population=1"), std::string::npos)
      << first.result.report;
  const WaitOutcome second = server.wait(2);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(second.result.report.find("bogus"), std::string::npos)
      << second.result.report;
  EXPECT_EQ(server.stats().quarantined, 2u);
}

TEST(JobServer, BudgetExhaustionIsTypedAndCarriesPartialResult) {
  const std::string dir = scratch_dir("budget");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest request;
  request.system_text = system_to_string(make_mul(8));
  request.options = fast_options(8);
  request.options.generations = 1'000'000;  // budget must stop it
  // Tiny enough that the budget check fires long before the GA could
  // plausibly converge (stagnation needs 70+ generations).
  request.options.time_budget = 0.001;
  const SubmitOutcome submitted = server.submit(request);
  ASSERT_TRUE(submitted.accepted);
  const WaitOutcome out = server.wait(submitted.ok.job_id);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kBudgetExhausted);
  // The partial result still carries a full priced report.
  EXPECT_FALSE(out.result.report.empty());
  EXPECT_GT(out.result.avg_power_true, 0.0);

  // Budget-limited (wall-clock-dependent) results must never be cached.
  const SubmitOutcome again = server.submit(request);
  ASSERT_TRUE(again.accepted);
  EXPECT_FALSE(again.ok.cached);
  // Avoid leaving the duplicate running during teardown churn.
  (void)server.wait(again.ok.job_id);
}

TEST(JobServer, TransientFaultRetriesDeterministically) {
  const std::string dir = scratch_dir("transient");
  failpoint::arm("job.spawn=fail@1");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(9);
  const SubmitOutcome submitted = server.submit(request);
  ASSERT_TRUE(submitted.accepted);
  const WaitOutcome out = server.wait(submitted.ok.job_id);
  failpoint::disarm();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kOk);
  EXPECT_EQ(server.stats().retries, 1u);
}

TEST(JobServer, PersistentTransientFaultQuarantines) {
  const std::string dir = scratch_dir("transient_exhaust");
  failpoint::arm("job.spawn=fail");  // every attempt
  ServerOptions options = base_options(dir);
  options.max_transient_retries = 2;
  JobServer server(std::move(options));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(10);
  const SubmitOutcome submitted = server.submit(request);
  ASSERT_TRUE(submitted.accepted);
  const WaitOutcome out = server.wait(submitted.ok.job_id);
  failpoint::disarm();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kQuarantined);
  EXPECT_EQ(server.stats().retries, 3u);  // initial + 2 retries all failed
}

TEST(JobServer, RestartRecoversPendingJobsAndResults) {
  const std::string dir = scratch_dir("restart");
  SubmitRequest a, b;
  a.system_text = small_system_text();
  a.options = fast_options(11);
  b.system_text = small_system_text();
  b.options = fast_options(12);

  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  std::string report_a;
  {
    // Phase 1: admission-only server — jobs are journaled but never run
    // (the deterministic stand-in for "killed before the work finished").
    ServerOptions options = base_options(dir);
    options.workers = 0;
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome sa = server.submit(a);
    const SubmitOutcome sb = server.submit(b);
    ASSERT_TRUE(sa.accepted);
    ASSERT_TRUE(sb.accepted);
    id_a = sa.ok.job_id;
    id_b = sb.ok.job_id;
    server.drain_and_stop();
  }
  {
    // Phase 2: restart with workers — both jobs recovered and completed.
    JobServer server(base_options(dir));
    server.start();
    EXPECT_EQ(server.stats().recovered_pending, 2u);
    const WaitOutcome ra = server.wait(id_a);
    const WaitOutcome rb = server.wait(id_b);
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_EQ(ra.result.outcome, JobOutcome::kOk);
    EXPECT_EQ(rb.result.outcome, JobOutcome::kOk);
    report_a = ra.result.report;
    server.drain_and_stop();
  }
  {
    // Phase 3: restart again — completed results survive, same ids, same
    // bytes, and the cache is rebuilt from the journal (an identical
    // submission is a hit without any worker involvement).
    ServerOptions options = base_options(dir);
    options.workers = 0;
    JobServer server(std::move(options));
    server.start();
    const WaitOutcome ra = server.wait(id_a);
    ASSERT_TRUE(ra.ok);
    EXPECT_EQ(ra.result.report, report_a);
    const SubmitOutcome resubmit = server.submit(a);
    ASSERT_TRUE(resubmit.accepted);
    EXPECT_TRUE(resubmit.ok.cached);
  }
}

TEST(JobServer, CrashLoopingJobIsQuarantinedAtRecovery) {
  const std::string dir = scratch_dir("crashloop");
  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(13);

  std::uint64_t id = 0;
  {
    ServerOptions options = base_options(dir);
    options.workers = 0;
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_TRUE(submitted.accepted);
    id = submitted.ok.job_id;
    server.drain_and_stop();
  }
  {
    // Forge the crash history: two attempts that never reached a
    // terminal record — the journal shape `kill -9` leaves behind.
    JobJournal journal;
    (void)journal.open(dir + "/jobs.wal");
    journal.append_attempt(id, 1);
    journal.append_attempt(id, 2);
  }
  JobServer server(base_options(dir));
  server.start();
  const WaitOutcome out = server.wait(id);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(out.result.report.find("crash"), std::string::npos);
  EXPECT_EQ(server.stats().quarantined, 1u);
  EXPECT_EQ(server.stats().recovered_pending, 0u);
}

TEST(JobServer, DrainLeavesRunningJobResumable) {
  const std::string dir = scratch_dir("drain");
  SubmitRequest request;
  request.system_text = system_to_string(make_mul(8));
  request.options = fast_options(14);
  // Heavy enough that convergence cannot beat the drain: stagnation
  // needs 70+ generations of a 96-genome population on an 8-mode system.
  request.options.population = 96;
  request.options.generations = 1'000'000;
  request.options.time_budget = 30.0;  // far beyond the test's patience

  std::uint64_t id = 0;
  {
    ServerOptions options = base_options(dir);
    options.workers = 1;
    options.checkpoint_every = 1;  // checkpoint density for a short test
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_TRUE(submitted.accepted);
    id = submitted.ok.job_id;
    // Let it run a little so the drain interrupts mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.drain_and_stop();
    // Post-drain, the job is neither completed nor lost.
    const WaitOutcome blocked = server.wait(id);
    EXPECT_FALSE(blocked.ok);
    EXPECT_EQ(blocked.reject.code, RejectCode::kDraining);
  }
  // The restarted server re-runs it; the drain was deliberate, so the
  // crash-attempt counter must NOT have advanced toward quarantine.
  ServerOptions options = base_options(dir);
  options.workers = 1;
  JobServer server(std::move(options));
  server.start();
  EXPECT_EQ(server.stats().recovered_pending, 1u);
  EXPECT_EQ(server.stats().quarantined, 0u);
  // Rather than wait 30s for the budget, drain again — the job must
  // still be resumable, and the deliberate stop must not look like a
  // crash to the quarantine counter.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.drain_and_stop();
  JobJournal journal;
  const JournalRecovery recovery = journal.open(dir + "/jobs.wal");
  EXPECT_EQ(recovery.jobs.at(id).crash_attempts, 0);
  EXPECT_FALSE(recovery.jobs.at(id).completed);
}

// A CRC-valid checkpoint whose genome_length no payload could hold is a
// typed CheckpointError like any other damaged generation: the restarted
// job resumes from the generation before it (not a fresh restart, not a
// failed job) and its report matches an uninterrupted run byte for byte.
TEST(JobServer, HostileCheckpointCountResumesFromPreviousGeneration) {
  SubmitRequest request;
  request.system_text = system_to_string(make_mul(8));
  request.options = fast_options(15);
  // Long enough that the drain below lands mid-run: convergence needs 70
  // stagnant generations, and the drain follows the second one.
  request.options.population = 48;
  request.options.generations = 150;

  std::string reference;
  {
    ServerOptions options = base_options(scratch_dir("hostile_count_ref"));
    options.workers = 1;
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_TRUE(submitted.accepted);
    const WaitOutcome out = server.wait(submitted.ok.job_id);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(out.result.outcome, JobOutcome::kOk);
    reference = out.result.report;
  }

  const std::string dir = scratch_dir("hostile_count");
  auto exists = [](const std::string& path) {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  };
  std::uint64_t id = 0;
  std::string checkpoint;
  {
    ServerOptions options = base_options(dir);
    options.workers = 1;
    options.checkpoint_every = 1;
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_TRUE(submitted.accepted);
    id = submitted.ok.job_id;
    checkpoint = dir + "/job-" + std::to_string(id) + ".ckpt";
    for (int g = 0; g < 3; ++g)  // leftovers of an aborted earlier run
      std::remove(checkpoint_generation_path(checkpoint, g).c_str());
    // Drain once two generations are on disk, so the newest has an older
    // generation to fall back to.
    for (int i = 0; i < 10'000 && !exists(checkpoint + ".1"); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.drain_and_stop();
  }
  ASSERT_TRUE(exists(checkpoint));
  ASSERT_TRUE(exists(checkpoint + ".1"));
  patch_checkpoint_u64(checkpoint, kGenomeLengthOffset,
                       std::uint64_t{1} << 61);

  std::mutex log_mu;
  std::vector<std::string> log;
  ServerOptions options = base_options(dir);
  options.workers = 1;
  options.log = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(log_mu);
    log.push_back(line);
  };
  JobServer server(std::move(options));
  server.start();
  const WaitOutcome out = server.wait(id);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kOk);
  EXPECT_EQ(out.result.report, reference);
  server.drain_and_stop();

  const std::lock_guard<std::mutex> lock(log_mu);
  auto logged = [&](const std::string& needle) {
    return std::any_of(log.begin(), log.end(), [&](const std::string& line) {
      return line.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(logged("skipped checkpoint generation"));
  EXPECT_TRUE(logged("resumed from older generation " + checkpoint + ".1"));
  EXPECT_FALSE(logged("restarting fresh"));
}

// A long-lived server joins each connection thread once its client has
// hung up. Without that, every connection it ever served would leave an
// exited, unjoined thread (and its stack) behind until the drain.
TEST(JobServer, FinishedConnectionThreadsAreReaped) {
  const std::string dir = scratch_dir("reap");
  const std::string socket_path = dir + "/serve.sock";
  ServerOptions options = base_options(dir);
  options.workers = 0;  // admission-only: stats() needs no worker
  options.socket_path = socket_path;
  JobServer server(std::move(options));
  server.start();

  ServeClient client(socket_path);
  std::size_t peak = 0;
  for (int i = 0; i < 200; ++i) {
    (void)client.stats();  // one connection per call
    peak = std::max(peak, server.connection_thread_count());
  }
  // Each accept first joins the threads whose clients already left, so
  // only the few still noticing their hang-up can be pending.
  EXPECT_LE(peak, 8u);
  // With no client at all, the acceptor's poll tick reaps the rest.
  for (int tick = 0; tick < 100 && server.connection_thread_count() > 0;
       ++tick)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.connection_thread_count(), 0u);
  server.drain_and_stop();
}

}  // namespace
}  // namespace mmsyn
