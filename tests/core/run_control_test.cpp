// Crash-safety tests: checkpoint serialization, corruption rejection, and
// the bit-identical cancel → checkpoint → resume contract.
#include "core/run_control.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/cosynth.hpp"
#include "core/report.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Unique-ish scratch path under the build tree's cwd.
std::string scratch_path(const char* name) {
  return std::string(::testing::TempDir()) + "mmsyn_" + name + ".ckpt";
}

GaSnapshot sample_snapshot() {
  GaSnapshot snap;
  snap.fingerprint = 0x1122334455667788ull;
  snap.next_generation = 17;
  snap.stagnation = 3;
  snap.area_infeasible_streak = 1;
  snap.timing_infeasible_streak = 2;
  snap.transition_infeasible_streak = 0;
  snap.evaluations = 1234;
  snap.cache_hits = 56;
  snap.cache_lookups = 78;
  snap.elapsed_seconds = 9.25;
  snap.rng_state = {1, 2, 3, 0xffffffffffffffffull};
  snap.has_best = true;
  snap.best = SnapshotIndividual{{0, 1, 2}, -1.5, 0.0, 0.004,
                                 true, false, false, false};
  snap.population = {
      SnapshotIndividual{{0, 1, 2}, -1.5, 0.0, 0.004, true, false, false,
                         false},
      SnapshotIndividual{{2, 1, 0}, 3.0, 0.5, 0.009, true, true, false,
                         true},
      SnapshotIndividual{{1, 1, 1}, 0.0, 0.0, 0.0, false, false, false,
                         false},
  };
  snap.cache = {snap.population[0], snap.population[1]};

  // Two per-mode memo entries of different shapes (v2 format section).
  std::vector<CoreSet> cores0(2);
  cores0[1].set_count(TaskTypeId{4}, 2);
  const ModeEvalKey key0(0, 0xfeedfacecafebeefull,
                         {PeId{0}, PeId{2}, PeId{1}}, std::move(cores0));
  ModeEvaluation val0;
  val0.dyn_energy = 1.5e-3;
  val0.dyn_power = 0.3;
  val0.static_power = 0.01;
  val0.timing_violation = 0.0;
  val0.makespan = 4.5e-3;
  val0.pe_active = {true, false, true};
  val0.cl_active = {true};
  val0.routable = true;
  const ModeEvalKey key1(1, 0xfeedfacecafebeefull, {PeId{1}},
                         std::vector<CoreSet>(2));
  ModeEvaluation val1;
  val1.dyn_power = 0.125;
  val1.makespan = 2.0e-3;
  val1.pe_active = {false, true, false};
  val1.cl_active = {false};
  val1.routable = false;
  snap.mode_cache = {{key0, val0}, {key1, val1}};
  snap.mode_cache_hits = 21;
  snap.mode_cache_lookups = 34;
  return snap;
}

void expect_mode_entries_equal(
    const std::vector<std::pair<ModeEvalKey, ModeEvaluation>>& a,
    const std::vector<std::pair<ModeEvalKey, ModeEvaluation>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);  // ModeEvalKey has operator==
    const ModeEvaluation& x = a[i].second;
    const ModeEvaluation& y = b[i].second;
    EXPECT_EQ(x.dyn_energy, y.dyn_energy);
    EXPECT_EQ(x.dyn_power, y.dyn_power);
    EXPECT_EQ(x.static_power, y.static_power);
    EXPECT_EQ(x.timing_violation, y.timing_violation);
    EXPECT_EQ(x.makespan, y.makespan);
    EXPECT_EQ(x.pe_active, y.pe_active);
    EXPECT_EQ(x.cl_active, y.cl_active);
    EXPECT_EQ(x.routable, y.routable);
    EXPECT_FALSE(y.schedule.has_value());
  }
}

void expect_snapshots_equal(const GaSnapshot& a, const GaSnapshot& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.next_generation, b.next_generation);
  EXPECT_EQ(a.stagnation, b.stagnation);
  EXPECT_EQ(a.area_infeasible_streak, b.area_infeasible_streak);
  EXPECT_EQ(a.timing_infeasible_streak, b.timing_infeasible_streak);
  EXPECT_EQ(a.transition_infeasible_streak, b.transition_infeasible_streak);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.has_best, b.has_best);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.population, b.population);
  EXPECT_EQ(a.cache, b.cache);
  EXPECT_EQ(a.mode_cache_hits, b.mode_cache_hits);
  EXPECT_EQ(a.mode_cache_lookups, b.mode_cache_lookups);
  expect_mode_entries_equal(a.mode_cache, b.mode_cache);
}

TEST(Checkpoint, RejectsModeCacheEntryWithSchedule) {
  // The per-mode memo never holds schedules; a snapshot carrying one was
  // built from the wrong evaluator configuration and must not be written.
  GaSnapshot snap = sample_snapshot();
  snap.mode_cache[0].second.schedule.emplace();
  EXPECT_THROW(save_checkpoint(scratch_path("sched_entry"), snap),
               CheckpointError);
}

TEST(Checkpoint, RoundTripsExactly) {
  const std::string path = scratch_path("roundtrip");
  const GaSnapshot original = sample_snapshot();
  save_checkpoint(path, original);
  expect_snapshots_equal(load_checkpoint(path), original);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsTypedError) {
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/nope.ckpt"), CheckpointError);
}

TEST(Checkpoint, RejectsBadMagic) {
  const std::string path = scratch_path("magic");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTMMSYNgarbage that is long enough to read a header from....";
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncation) {
  const std::string path = scratch_path("trunc");
  save_checkpoint(path, sample_snapshot());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 30u);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 13));
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBitFlip) {
  const std::string path = scratch_path("flip");
  save_checkpoint(path, sample_snapshot());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Generation rotation and recovery-aware fallback loading.

/// Removes every generation file (and stray .tmp) of `path`.
void remove_generations(const std::string& path, int keep = 8) {
  std::remove((path + ".tmp").c_str());
  for (int gen = 0; gen < keep; ++gen)
    std::remove(checkpoint_generation_path(path, gen).c_str());
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string bytes;
  bytes.assign(std::istreambuf_iterator<char>(is), {});
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, GenerationPathNaming) {
  EXPECT_EQ(checkpoint_generation_path("run.ckpt", 0), "run.ckpt");
  EXPECT_EQ(checkpoint_generation_path("run.ckpt", 1), "run.ckpt.1");
  EXPECT_EQ(checkpoint_generation_path("run.ckpt", 2), "run.ckpt.2");
}

TEST(Checkpoint, RotationKeepsLastKGenerations) {
  const std::string path = scratch_path("rotate");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  for (int i = 0; i < 4; ++i) {
    snap.next_generation = i;
    save_checkpoint_rotating(path, snap, /*keep=*/3);
  }
  // Newest first: generations 3, 2, 1; generation 0 fell off the end.
  EXPECT_EQ(load_checkpoint(path).next_generation, 3);
  EXPECT_EQ(load_checkpoint(path + ".1").next_generation, 2);
  EXPECT_EQ(load_checkpoint(path + ".2").next_generation, 1);
  EXPECT_FALSE(file_exists(path + ".3"));
  remove_generations(path);
}

TEST(Checkpoint, FallbackPrefersNewestGoodGeneration) {
  const std::string path = scratch_path("fallback_newest");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_checkpoint_rotating(path, snap, 3);
  snap.next_generation = 10;
  save_checkpoint_rotating(path, snap, 3);
  const CheckpointLoadResult loaded = load_checkpoint_fallback(path, 3);
  EXPECT_EQ(loaded.generation, 0);
  EXPECT_EQ(loaded.loaded_path, path);
  EXPECT_EQ(loaded.snapshot.next_generation, 10);
  EXPECT_TRUE(loaded.notes.empty());
  remove_generations(path);
}

// The corruption taxonomy: each way a newest generation can be damaged
// must fall back to the previous good generation instead of failing the
// resume with a CheckpointError.
struct CorruptionCase {
  const char* name;
  void (*damage)(const std::string& path);

  // Printed by name: gtest's default byte dump would put both pointers'
  // addresses, which change from run to run, into the listed test name.
  friend void PrintTo(const CorruptionCase& c, std::ostream* os) {
    *os << c.name;
  }
};

void damage_truncate(const std::string& path) {
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 13));
}

void damage_flip_crc_byte(const std::string& path) {
  std::string bytes = read_file(path);
  bytes[bytes.size() - 2] ^= 0x40;  // inside the CRC-32 trailer
  write_file(path, bytes);
}

void damage_wrong_version(const std::string& path) {
  std::string bytes = read_file(path);
  bytes[8] ^= 0x7f;  // u32 version lives right after the 8-byte magic
  write_file(path, bytes);
}

void damage_wrong_fingerprint(const std::string& path) {
  // Rewrite the generation as a valid checkpoint of a *different* run:
  // structurally sound, rejected only by the fingerprint check.
  GaSnapshot other = sample_snapshot();
  other.fingerprint ^= 0xdeadbeefull;
  other.next_generation = 99;
  save_checkpoint(path, other);
}

void damage_empty_file(const std::string& path) { write_file(path, ""); }

class CheckpointCorruptionTest
    : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(CheckpointCorruptionTest, FallsBackToPreviousGeneration) {
  // Per-case scratch file: ctest runs each parameterized case as its own
  // test process, so a shared path races under `ctest -j`.
  const std::string path = scratch_path(
      (std::string("fallback_taxonomy_") + GetParam().name).c_str());
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_checkpoint_rotating(path, snap, 3);  // becomes .1 after next save
  snap.next_generation = 10;
  save_checkpoint_rotating(path, snap, 3);
  GetParam().damage(path);

  const CheckpointLoadResult loaded =
      load_checkpoint_fallback(path, 3, sample_snapshot().fingerprint);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.loaded_path, path + ".1");
  EXPECT_EQ(loaded.snapshot.next_generation, 5);
  ASSERT_EQ(loaded.notes.size(), 1u);  // one note for the damaged newest

  // Without an older good generation the same damage is a typed error.
  std::remove((path + ".1").c_str());
  EXPECT_THROW((void)load_checkpoint_fallback(path, 3,
                                              sample_snapshot().fingerprint),
               CheckpointError);
  remove_generations(path);
}

INSTANTIATE_TEST_SUITE_P(
    Taxonomy, CheckpointCorruptionTest,
    ::testing::Values(CorruptionCase{"TruncatedFile", damage_truncate},
                      CorruptionCase{"FlippedCrcByte", damage_flip_crc_byte},
                      CorruptionCase{"WrongVersion", damage_wrong_version},
                      CorruptionCase{"WrongFingerprint",
                                     damage_wrong_fingerprint},
                      CorruptionCase{"EmptyFile", damage_empty_file}),
    [](const ::testing::TestParamInfo<CorruptionCase>& info) {
      return info.param.name;
    });

TEST(Checkpoint, V5FileIsUnsupportedVersionAndFallsBack) {
  // v6 dropped the schedule-stage section, so a v5 file is refused by its
  // header with a typed error naming the version, and the newest-good
  // fallback skips it like any other unusable generation.
  const std::string path = scratch_path("v5_fallback");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_checkpoint_rotating(path, snap, 3);  // becomes .1 after next save
  snap.next_generation = 10;
  save_checkpoint_rotating(path, snap, 3);
  std::string bytes = read_file(path);
  ASSERT_EQ(bytes[8], 6);  // u32 version right after the 8-byte magic
  bytes[8] = 5;
  write_file(path, bytes);

  try {
    (void)load_checkpoint(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 5"),
              std::string::npos)
        << e.what();
  }
  const CheckpointLoadResult loaded =
      load_checkpoint_fallback(path, 3, sample_snapshot().fingerprint);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.snapshot.next_generation, 5);
  ASSERT_EQ(loaded.notes.size(), 1u);
  EXPECT_NE(loaded.notes[0].find("unsupported checkpoint version 5"),
            std::string::npos)
      << loaded.notes[0];
  remove_generations(path);
}

TEST(Checkpoint, FallbackSkipsMissingNewestGeneration) {
  // A crash between rotation and the final rename leaves `path` absent
  // with the previous checkpoint shifted to `path.1` — resume must treat
  // the hole as skippable, not fatal.
  const std::string path = scratch_path("fallback_missing");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_checkpoint(path + ".1", snap);
  const CheckpointLoadResult loaded = load_checkpoint_fallback(path, 3);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.snapshot.next_generation, 5);
  remove_generations(path);
}

TEST(Checkpoint, SaveLeavesNoStaleTmpFile) {
  const std::string path = scratch_path("no_tmp");
  remove_generations(path);
  save_checkpoint(path, sample_snapshot());
  EXPECT_FALSE(file_exists(path + ".tmp"));
  remove_generations(path);
}

TEST(RunControl, WriteCheckpointToleratesFailure) {
  RunControl control;
  control.checkpoint_path = "/nonexistent/dir/run.ckpt";
  std::vector<std::string> log;
  control.recovery_log = [&](const std::string& m) { log.push_back(m); };
  control.write_checkpoint(sample_snapshot());  // must not throw
  EXPECT_EQ(control.checkpoint_write_failures(), 1);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("checkpoint write failure"), std::string::npos);
}

TEST(RunControl, StopConditions) {
  RunControl control;
  EXPECT_FALSE(control.should_stop(1e9));  // no budget, no cancel
  control.time_budget_seconds = 5.0;
  EXPECT_FALSE(control.should_stop(4.9));
  EXPECT_TRUE(control.should_stop(5.0));
  control.time_budget_seconds = 0.0;
  control.request_cancel();
  EXPECT_TRUE(control.should_stop(0.0));
}

TEST(RunControl, CheckpointCadence) {
  RunControl control;
  control.checkpoint_path = "x.ckpt";
  control.checkpoint_every_generations = 10;
  EXPECT_FALSE(control.checkpoint_due(0));
  EXPECT_TRUE(control.checkpoint_due(9));    // after completing gen 9
  EXPECT_FALSE(control.checkpoint_due(10));
  EXPECT_TRUE(control.checkpoint_due(19));
  control.checkpoint_path.clear();
  EXPECT_FALSE(control.checkpoint_due(9));
}

// ---------------------------------------------------------------------
// The acceptance criterion: run → checkpoint → stop → resume must be
// bit-identical to an uninterrupted run with the same seed.

SynthesisOptions small_options(std::uint64_t seed) {
  SynthesisOptions options;
  options.seed = seed;
  options.ga.population_size = 16;
  options.ga.max_generations = 30;
  options.ga.stagnation_limit = 30;
  return options;
}

TEST(Resume, CancelledRunResumesBitIdentically) {
  const System system = make_mul(5);
  const std::string path = scratch_path("resume_cancel");
  const SynthesisOptions options = small_options(7);

  const SynthesisResult full = synthesize(system, options);

  // Cancel after generation 4 via the progress observer; the cooperative
  // stop writes a final checkpoint.
  RunControl stopper;
  stopper.checkpoint_path = path;
  stopper.checkpoint_every_generations = 0;  // only the stop checkpoint
  {
    const Evaluator evaluator(system, [&] {
      EvaluationOptions eval;
      eval.scheduling_policy = options.scheduling_policy;
      eval.dvs = options.dvs_in_loop;
      return eval;
    }());
    MappingGa ga(system, evaluator, options.fitness, options.allocation,
                 options.ga, options.seed);
    const SynthesisResult partial = ga.run(
        [&](const GaProgress& progress) {
          if (progress.generation >= 4) stopper.request_cancel();
        },
        &stopper);
    EXPECT_TRUE(partial.partial);
    EXPECT_LT(partial.generations, full.generations);
  }

  RunControl resumer;
  resumer.resume_path = path;
  const SynthesisResult resumed = synthesize(system, options, &resumer);

  EXPECT_FALSE(resumed.partial);
  EXPECT_EQ(resumed.generations, full.generations);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.cache_hits, full.cache_hits);
  EXPECT_EQ(resumed.cache_lookups, full.cache_lookups);
  EXPECT_EQ(resumed.mode_cache_hits, full.mode_cache_hits);
  EXPECT_EQ(resumed.mode_cache_lookups, full.mode_cache_lookups);
  EXPECT_EQ(resumed.fitness, full.fitness);  // exact, not approximate
  EXPECT_EQ(resumed.mapping.modes.size(), full.mapping.modes.size());
  for (std::size_t m = 0; m < full.mapping.modes.size(); ++m)
    EXPECT_EQ(resumed.mapping.modes[m].task_to_pe,
              full.mapping.modes[m].task_to_pe);

  // The rendered reports (minus wall-clock timing) are byte-identical.
  ReportOptions report;
  report.include_timing = false;
  EXPECT_EQ(implementation_report(system, resumed, report),
            implementation_report(system, full, report));
  std::remove(path.c_str());
}

TEST(Resume, PeriodicCheckpointResumesBitIdentically) {
  const System system = make_mul(2);
  const std::string path = scratch_path("resume_periodic");
  const SynthesisOptions options = small_options(11);

  const SynthesisResult full = synthesize(system, options);

  // Run to completion while checkpointing every 5 generations, then throw
  // the finished result away and resume from the *last periodic*
  // checkpoint — simulating a crash after it was written.
  RunControl writer;
  writer.checkpoint_path = path;
  writer.checkpoint_every_generations = 5;
  (void)synthesize(system, options, &writer);
  const GaSnapshot snap = load_checkpoint(path);
  EXPECT_GT(snap.next_generation, 0);

  RunControl resumer;
  resumer.resume_path = path;
  const SynthesisResult resumed = synthesize(system, options, &resumer);

  EXPECT_EQ(resumed.generations, full.generations);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.fitness, full.fitness);
  for (std::size_t m = 0; m < full.mapping.modes.size(); ++m)
    EXPECT_EQ(resumed.mapping.modes[m].task_to_pe,
              full.mapping.modes[m].task_to_pe);
  std::remove(path.c_str());
}

TEST(Resume, FingerprintMismatchRefused) {
  const System system = make_mul(5);
  const std::string path = scratch_path("resume_mismatch");
  const SynthesisOptions options = small_options(7);

  RunControl writer;
  writer.checkpoint_path = path;
  writer.checkpoint_every_generations = 2;
  (void)synthesize(system, options, &writer);

  RunControl resumer;
  resumer.resume_path = path;
  SynthesisOptions other = small_options(8);  // different seed
  EXPECT_THROW((void)synthesize(system, other, &resumer), CheckpointError);

  other = small_options(7);
  other.ga.gene_mutation_rate *= 2;  // different GA options
  EXPECT_THROW((void)synthesize(system, other, &resumer), CheckpointError);
  std::remove(path.c_str());
}

TEST(Budget, ZeroBudgetStillReturnsEvaluatedResult) {
  const System system = make_mul(5);
  RunControl control;
  control.time_budget_seconds = 1e-9;  // expires before generation 0
  const SynthesisResult result =
      synthesize(system, small_options(3), &control);
  EXPECT_TRUE(result.partial);
  // Graceful degradation: a final fine evaluation of *some* individual.
  EXPECT_EQ(result.evaluation.modes.size(), system.omsm.mode_count());
  EXPECT_GT(result.evaluation.avg_power_true, 0.0);
}

TEST(RunControl, BudgetExhaustedPredicate) {
  RunControl control;
  EXPECT_FALSE(control.budget_exhausted(1e9));  // no budget set
  control.time_budget_seconds = 5.0;
  EXPECT_FALSE(control.budget_exhausted(4.999));
  EXPECT_TRUE(control.budget_exhausted(5.0));
  EXPECT_TRUE(control.budget_exhausted(6.0));
}

TEST(RunControl, ShouldStopCombinesBudgetAndCancel) {
  RunControl control;
  control.time_budget_seconds = 5.0;
  EXPECT_FALSE(control.should_stop(1.0));
  EXPECT_TRUE(control.should_stop(5.0));
  control.request_cancel();
  EXPECT_TRUE(control.should_stop(1.0));
  // The two conditions stay separately observable so callers can type
  // the stop: budget_exhausted is unaffected by the cancel flag.
  EXPECT_FALSE(control.budget_exhausted(1.0));
}

}  // namespace
}  // namespace mmsyn
