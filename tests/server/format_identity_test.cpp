// Cross-commit byte identity of the three binary formats.
//
// Pins the FNV-1a digest of the bytes the wire protocol, the job journal
// (v2) and the checkpoint container (v6) write for fixed inputs. A change
// that only restructures the encoders (a shared codec, moved types) must
// leave every digest unchanged: existing journals and checkpoints on disk,
// and clients of another build, read these exact bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/checksum.hpp"
#include "core/run_control.hpp"
#include "server/journal.hpp"
#include "server/wire.hpp"

namespace mmsyn {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hex(std::string_view bytes) {
  return hex(Fnv1a64().add_bytes(bytes.data(), bytes.size()).digest());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string scratch_path(const char* name) {
  const std::string path =
      std::string(::testing::TempDir()) + "mmsyn_format_" + name;
  std::remove(path.c_str());
  return path;
}

/// Every field away from its default, strings of distinct lengths.
JobOptions sample_options() {
  JobOptions o;
  o.seed = 0x0123456789abcdefull;
  o.population = 24;
  o.generations = -7;
  o.threads = 3;
  o.dvs_backend = "pv-dvs";
  o.scheduler_backend = "mobility";
  o.power_backend = "thermal";
  o.consider_probabilities = false;
  o.time_budget = 2.5;
  o.report_gantt = false;
  o.report_voltages = true;
  return o;
}

JobResultReply sample_result(std::uint64_t id) {
  JobResultReply r;
  r.job_id = id;
  r.outcome = JobOutcome::kBudgetExhausted;
  r.feasible = true;
  r.avg_power_true = 0.0123;
  r.report = "report line\n";
  return r;
}

TEST(FormatIdentity, WireSubmitPayload) {
  SubmitRequest request;
  request.options = sample_options();
  request.system_text = "system sensor\nmode a 0.5\n";
  EXPECT_EQ(hex(encode_submit(request)), "0x083a10da5bd6729f");
  request.options = JobOptions{};
  EXPECT_EQ(hex(encode_submit(request)), "0x38839d44bb32a6c0");
}

TEST(FormatIdentity, JobFingerprint) {
  EXPECT_EQ(hex(job_fingerprint("system a\n", sample_options())),
            "0xdeee014114f7e03e");
  EXPECT_EQ(hex(job_fingerprint("system a\n", JobOptions{})),
            "0xf2b3a72c2dc124a5");
}

TEST(FormatIdentity, WireReplyPayloads) {
  std::string all = encode_submit_ok({42, true});
  all += encode_reject({RejectCode::kQueueFull, "queue full"});
  all += encode_wait({7});
  all += encode_job_result(sample_result(9));
  StatsReply s;
  s.accepted = 1;
  s.completed = 2;
  s.quarantined = 3;
  s.cache_hits = 4;
  s.cache_lookups = 5;
  s.queue_full_rejections = 6;
  s.retries = 7;
  s.watchdog_cancels = 8;
  s.recovered_pending = 9;
  s.queued = 10;
  s.running = 11;
  all += encode_stats(s);
  EXPECT_EQ(hex(all), "0xde991b8428cfb596");
}

TEST(FormatIdentity, WireFrame) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  send_frame(fds[1], MessageType::kWait, encode_wait({7}));
  ::close(fds[1]);
  std::string bytes;
  char buf[256];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
    bytes.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  EXPECT_EQ(hex(bytes), "0xa6d422a7e3b8a537");
}

TEST(FormatIdentity, JournalAfterAcceptAttemptComplete) {
  const std::string path = scratch_path("lifecycle.wal");
  JobJournal journal;
  (void)journal.open(path);
  journal.append_accept(1, 0xabcdef, sample_options(), "system a\n");
  journal.append_attempt(1, 1);
  journal.append_complete(sample_result(1));
  EXPECT_EQ(hex(read_file(path)), "0x5c815a605ebb3a52");

  journal.append_accept(2, 0x1234, JobOptions{}, "system b\n");
  journal.append_attempt(2, 1);
  journal.append_drained(2);
  journal.append_attempt(2, 2);
  journal.append_quarantine(2, "boom");
  EXPECT_EQ(hex(read_file(path)), "0xffa8bc623a1bec25");
}

TEST(FormatIdentity, CompactedJournal) {
  const std::string path = scratch_path("compact.wal");
  JobJournal journal;
  (void)journal.open(path);
  journal.append_accept(1, 0xabcdef, sample_options(), "system a\n");
  journal.append_attempt(1, 1);
  journal.append_complete(sample_result(1));
  journal.append_accept(2, 0x1234, JobOptions{}, "system b\n");
  journal.append_attempt(2, 1);
  journal.append_attempt(2, 2);
  journal.append_accept(3, 0x5678, JobOptions{}, "system c\n");
  journal.append_quarantine(3, "boom");
  journal.close();
  const JournalRecovery recovery = journal.open(path);
  journal.compact(recovery);
  EXPECT_EQ(hex(read_file(path)), "0x306df41bc53086dc");
}

GaSnapshot island_snapshot(std::uint64_t fingerprint, std::uint16_t base) {
  GaSnapshot snap;
  snap.fingerprint = fingerprint;
  snap.next_generation = 17;
  snap.stagnation = 3;
  snap.converged = base % 2 == 1;
  snap.area_infeasible_streak = 1;
  snap.timing_infeasible_streak = 2;
  snap.evaluations = 1234;
  snap.cache_hits = 56;
  snap.cache_lookups = 78;
  snap.elapsed_seconds = 9.25;
  snap.rng_state = {1, 2, 3, 0xffffffffffffffffull};
  snap.has_best = true;
  const std::uint16_t b = base;
  snap.best = SnapshotIndividual{{b, 1, 300}, -1.5, 0.0, 0.004,
                                 true, false, false, false};
  snap.population = {
      snap.best,
      SnapshotIndividual{{2, b, 0}, 3.0, 0.5, 0.009, true, true, false, true},
  };
  snap.cache = {snap.population[1]};
  std::vector<CoreSet> cores(2);
  cores[1].set_count(TaskTypeId{4}, 2);
  const ModeEvalKey key(1, 0xfeedfacecafebeefull, {PeId{0}, PeId{2}},
                        std::move(cores));
  ModeEvaluation value;
  value.dyn_energy = 1.5e-3;
  value.dyn_power = 0.3;
  value.static_power = 0.01;
  value.makespan = 4.5e-3;
  value.pe_active = {true, false, true};
  value.cl_active = {true};
  value.routable = true;
  value.baseline_static_power = 0.02;
  value.idle_energy_saved = 1e-4;
  value.wake_energy = 2e-5;
  value.temperature = 321.5;
  snap.mode_cache = {{key, value}};
  snap.mode_cache_hits = 21;
  snap.mode_cache_lookups = 34;
  return snap;
}

TEST(FormatIdentity, CheckpointFile) {
  IslandSnapshot snapshot;
  snapshot.fingerprint = 0x1122334455667788ull;
  snapshot.island_count = 2;
  snapshot.migration_interval = 5;
  snapshot.migrants = 2;
  snapshot.next_migration_generation = 20;
  snapshot.islands = {island_snapshot(0xaaaa, 5), island_snapshot(0xbbbb, 6)};
  const std::string path = scratch_path("islands.ckpt");
  save_island_checkpoint_rotating(path, snapshot, /*keep=*/1);
  EXPECT_EQ(hex(read_file(path)), "0x2e4f7e0432636f2a");
}

}  // namespace
}  // namespace mmsyn
