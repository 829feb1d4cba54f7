// Per-mode incremental-evaluation cache: the bitwise cached-vs-cold
// contract (property-tested over random mutation chains), the GA-level
// on/off result identity, hit-rate accounting, FIFO bounding, and the key
// contract (one hash, the same wherever and however a key is made).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/allocation_builder.hpp"
#include "core/cosynth.hpp"
#include "core/genome.hpp"
#include "core/report.hpp"
#include "core/run_control.hpp"
#include "energy/evaluator.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Exact (bitwise) equality of two evaluations, schedules excluded.
void expect_evaluations_identical(const Evaluation& a, const Evaluation& b) {
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t m = 0; m < a.modes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    EXPECT_EQ(a.modes[m].dyn_energy, b.modes[m].dyn_energy);
    EXPECT_EQ(a.modes[m].dyn_power, b.modes[m].dyn_power);
    EXPECT_EQ(a.modes[m].static_power, b.modes[m].static_power);
    EXPECT_EQ(a.modes[m].timing_violation, b.modes[m].timing_violation);
    EXPECT_EQ(a.modes[m].makespan, b.modes[m].makespan);
    EXPECT_EQ(a.modes[m].pe_active, b.modes[m].pe_active);
    EXPECT_EQ(a.modes[m].cl_active, b.modes[m].cl_active);
    EXPECT_EQ(a.modes[m].routable, b.modes[m].routable);
  }
  EXPECT_EQ(a.avg_power_true, b.avg_power_true);
  EXPECT_EQ(a.avg_power_weighted, b.avg_power_weighted);
  EXPECT_EQ(a.pe_used_area, b.pe_used_area);
  EXPECT_EQ(a.pe_area_violation, b.pe_area_violation);
  EXPECT_EQ(a.total_area_violation, b.total_area_violation);
  EXPECT_EQ(a.transition_times, b.transition_times);
  EXPECT_EQ(a.transition_violations, b.transition_violations);
  EXPECT_EQ(a.weighted_timing_violation, b.weighted_timing_violation);
}

/// Property: along a chain of random point mutations, every evaluation
/// through a (warm, shared) cache equals the cache-disabled evaluation
/// bitwise. Mutation chains are the GA's actual workload — consecutive
/// genomes share most mode slices, so the cache serves real hits.
void run_mutation_chain(const System& system, EvaluationOptions options,
                        std::uint64_t seed, int steps) {
  const Evaluator evaluator(system, std::move(options));
  const GenomeCodec codec(system);
  Rng rng(seed);
  ModeEvalCache cache;
  Genome genome = codec.random_genome(rng);
  for (int step = 0; step < steps; ++step) {
    const std::size_t g = rng.pick_index(codec.genome_length());
    genome[g] = static_cast<std::uint16_t>(
        rng.pick_index(codec.candidates(g).size()));
    const MultiModeMapping mapping = codec.decode(genome);
    const CoreAllocation cores = build_core_allocation(system, mapping, {});
    SCOPED_TRACE("step " + std::to_string(step));
    expect_evaluations_identical(evaluator.evaluate(mapping, cores),
                                 evaluator.evaluate(mapping, cores, &cache));
  }
  EXPECT_GT(cache.hits(), 0);
  EXPECT_EQ(cache.lookups(),
            static_cast<long>(system.omsm.mode_count()) * steps);
}

TEST(ModeCacheProperty, CachedEqualsColdOnMutationChains) {
  for (const int mul : {2, 4, 7}) {
    SCOPED_TRACE("mul" + std::to_string(mul));
    run_mutation_chain(make_mul(mul), EvaluationOptions{}, 101 + mul, 30);
  }
}

TEST(ModeCacheProperty, CachedEqualsColdWithDvs) {
  EvaluationOptions options;
  options.use_dvs = true;
  run_mutation_chain(make_mul(3), options, 17, 20);
}

TEST(ModeCacheProperty, CachedEqualsColdWithWeightOverride) {
  const System system = make_mul(2);
  EvaluationOptions options;
  options.weight_override =
      std::vector<double>(system.omsm.mode_count(), 1.0);
  run_mutation_chain(system, options, 29, 20);
}

TEST(ModeCache, ChangedModesNamesExactlyTheDifferingSlices) {
  const System system = make_mul(4);
  const GenomeCodec codec(system);
  Rng rng(5);
  const Genome a = codec.random_genome(rng);
  EXPECT_TRUE(codec.changed_modes(a, a).empty());
  Genome b = a;
  const std::size_t g = codec.genome_length() / 2;
  b[g] = static_cast<std::uint16_t>((b[g] + 1) %
                                    codec.candidates(g).size());
  const std::vector<ModeId> changed = codec.changed_modes(a, b);
  if (a[g] == b[g]) {
    EXPECT_TRUE(changed.empty());  // single-candidate gene wrapped around
  } else {
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0], codec.mode_of_gene(g));
  }
}

TEST(ModeCache, FifoEvictionBoundsSize) {
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(7);
  ModeEvalCache cache(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    const Genome genome = codec.random_genome(rng);
    const MultiModeMapping mapping = codec.decode(genome);
    const CoreAllocation cores = build_core_allocation(system, mapping, {});
    (void)evaluator.evaluate(mapping, cores, &cache);
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.capacity(), 4u);
}

ModeEvalKey key_of(std::uint32_t i) { return ModeEvalKey(i, 0, {}, {}); }

TEST(ModeCache, DuplicateInsertAtCapacityEvictsNothing) {
  // Regression: inserting an already-present key while the cache is full
  // used to run the eviction loop first — evicting the FIFO head — and
  // then fail the emplace, losing an innocent entry and shrinking the
  // cache. A duplicate insert must be a complete no-op.
  ModeEvalCache cache(/*capacity=*/2);
  const ModeEvaluation value{};
  cache.insert(key_of(0), value);
  cache.insert(key_of(1), value);
  cache.insert(key_of(0), value);  // duplicate at capacity
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(key_of(0)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  // FIFO order is also untouched: the next insert evicts key 0, not key 1.
  cache.insert(key_of(2), value);
  EXPECT_EQ(cache.find(key_of(0)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_NE(cache.find(key_of(2)), nullptr);
}

std::vector<std::uint32_t> entry_order(const ModeEvalCache& cache) {
  std::vector<std::uint32_t> order;
  for (const auto& [key, value] : cache.entries()) order.push_back(key.mode());
  return order;
}

// ---- Key contract: the hash is computed once, wherever a key is made. --

/// Round-trips `key` through a checkpoint file (write_mode_key and
/// read_mode_key), which stores the fields but never the hash.
ModeEvalKey checkpoint_round_trip(const ModeEvalKey& key) {
  GaSnapshot snap;
  snap.best = SnapshotIndividual{{0, 1}, 0.0, 0.0, 0.0,
                                 false, false, false, false};
  snap.mode_cache = {{key, ModeEvaluation{}}};
  const std::string path =
      std::string(::testing::TempDir()) + "mmsyn_mode_key_round_trip.ckpt";
  save_checkpoint(path, snap);
  GaSnapshot loaded = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.mode_cache.size(), 1u);
  return std::move(loaded.mode_cache.at(0).first);
}

void expect_same_key(const ModeEvalKey& a, const ModeEvalKey& b) {
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(ModeEvalKeyHash{}(a), ModeEvalKeyHash{}(b));
  EXPECT_TRUE(a == b);
}

TEST(ModeEvalKey, HashAgreesAcrossMakeRebuildAndCheckpoint) {
  const System system = make_mul(6);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(23);
  const MultiModeMapping mapping = codec.decode(codec.random_genome(rng));
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    const ModeEvalKey made = evaluator.mode_key(m, mapping, cores);
    expect_same_key(made, ModeEvalKey(made.mode(), made.options_fingerprint(),
                                      made.task_to_pe(), made.cores()));
    expect_same_key(made, checkpoint_round_trip(made));
  }
  // Odd and even PE counts (two PE ids share a hash word) and a core set
  // with entries, built by hand.
  std::vector<CoreSet> sets(3);
  sets[2].set_count(TaskTypeId{5}, 2);
  sets[2].set_count(TaskTypeId{7}, 1);
  for (const std::vector<PeId>& pes :
       {std::vector<PeId>{}, std::vector<PeId>{PeId{3}},
        std::vector<PeId>{PeId{0}, PeId{2}, PeId{1}, PeId{2}}}) {
    SCOPED_TRACE(std::to_string(pes.size()) + " PEs");
    const ModeEvalKey key(4, 0xfeedfacecafebeefull, pes, sets);
    expect_same_key(key, ModeEvalKey(4, 0xfeedfacecafebeefull, pes, sets));
    expect_same_key(key, checkpoint_round_trip(key));
  }
}

TEST(ModeEvalKey, KeysDifferingInOneFieldAreUnequal) {
  const std::vector<PeId> pes{PeId{0}, PeId{1}, PeId{2}};
  std::vector<CoreSet> sets(2);
  sets[1].set_count(TaskTypeId{4}, 2);
  const ModeEvalKey base(1, 0xabcdefull, pes, sets);

  std::vector<PeId> other_pe = pes;
  other_pe[1] = PeId{2};
  std::vector<CoreSet> other_count = sets;
  other_count[1].set_count(TaskTypeId{4}, 3);
  std::vector<CoreSet> extra_set = sets;
  extra_set.emplace_back();
  const std::vector<std::pair<const char*, ModeEvalKey>> variants = {
      {"mode", ModeEvalKey(2, 0xabcdefull, pes, sets)},
      {"fingerprint", ModeEvalKey(1, 0xabcdf0ull, pes, sets)},
      {"one PE", ModeEvalKey(1, 0xabcdefull, other_pe, sets)},
      {"one core count", ModeEvalKey(1, 0xabcdefull, pes, other_count)},
      {"extra empty CoreSet", ModeEvalKey(1, 0xabcdefull, pes, extra_set)},
  };
  for (const auto& [what, key] : variants) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(key == base);
    // Each mixing step is a bijection of the running hash, so a change
    // to one word changes the hash too (the extra set adds words).
    EXPECT_NE(key.hash(), base.hash());
  }
}

/// A key with every field populated, distinct per `i`.
ModeEvalKey full_key(std::uint32_t i) {
  std::vector<CoreSet> sets(2);
  sets[1].set_count(TaskTypeId{static_cast<TaskTypeId::value_type>(i)}, 1);
  return ModeEvalKey(i, 0x5eedull,
                     {PeId{static_cast<PeId::value_type>(i)}, PeId{1}},
                     std::move(sets));
}

TEST(ModeCache, MovedKeysKeepFifoDuplicateAndQuarantineBehaviour) {
  ModeEvalCache cache(/*capacity=*/2);
  const ModeEvaluation value{};
  for (std::uint32_t i = 0; i < 2; ++i) {
    ModeEvalKey key = full_key(i);
    cache.insert(std::move(key), value);
  }
  // Duplicate at capacity: a no-op that leaves the FIFO order alone.
  cache.insert(full_key(0), value);
  EXPECT_EQ(entry_order(cache), (std::vector<std::uint32_t>{0, 1}));
  // FIFO eviction drops the oldest key, found again through the map.
  cache.insert(full_key(2), value);
  EXPECT_EQ(entry_order(cache), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(cache.find(full_key(0)), nullptr);
  EXPECT_NE(cache.find(full_key(1)), nullptr);

  // A poisoned insert evicts as usual; the next lookup quarantines it.
  failpoint::arm("cache.insert=corrupt");
  cache.insert(full_key(3), value);
  failpoint::disarm();
  EXPECT_EQ(entry_order(cache), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(cache.find(full_key(3)), nullptr);
  EXPECT_EQ(cache.quarantined(), 1);
  EXPECT_EQ(entry_order(cache), (std::vector<std::uint32_t>{2}));
  // The quarantined slot is free again: re-inserting evicts nothing.
  cache.insert(full_key(3), value);
  EXPECT_EQ(entry_order(cache), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_NE(cache.find(full_key(2)), nullptr);
  EXPECT_NE(cache.find(full_key(3)), nullptr);
}

TEST(ModeCacheProperty, RestoreRoundTripsOrderUnderPressure) {
  // Property: after any sequence of inserts — duplicates included — under
  // constant eviction pressure, checkpointing the entries and restoring
  // them reproduces the exact FIFO order, so a resumed run evicts in the
  // same sequence the uninterrupted run would have.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ModeEvalCache cache(/*capacity=*/4);
    auto random_op = [&](ModeEvalCache& c) {
      c.insert(key_of(static_cast<std::uint32_t>(rng.pick_index(8))),
               ModeEvaluation{});  // dup-heavy
    };
    for (int i = 0; i < 40; ++i) random_op(cache);

    ModeEvalCache clone(/*capacity=*/4);
    clone.restore(cache.entries(), cache.hits(), cache.lookups());
    EXPECT_EQ(entry_order(clone), entry_order(cache));

    // The restored clone must keep evicting in lock-step with the
    // original as both receive the same further inserts.
    const Rng saved = rng;
    for (int i = 0; i < 20; ++i) random_op(cache);
    rng = saved;
    for (int i = 0; i < 20; ++i) random_op(clone);
    EXPECT_EQ(entry_order(clone), entry_order(cache));
  }
}

TEST(ModeCache, EntriesRestoreRoundTripPreservesHits) {
  const System system = make_mul(2);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(13);
  ModeEvalCache cache;
  const Genome genome = codec.random_genome(rng);
  const MultiModeMapping mapping = codec.decode(genome);
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  const Evaluation first = evaluator.evaluate(mapping, cores, &cache);

  ModeEvalCache clone;
  clone.restore(cache.entries(), cache.hits(), cache.lookups());
  EXPECT_EQ(clone.size(), cache.size());
  EXPECT_EQ(clone.hits(), cache.hits());
  EXPECT_EQ(clone.lookups(), cache.lookups());
  // The clone serves every mode from the restored entries.
  const long lookups_before = clone.lookups();
  expect_evaluations_identical(first,
                               evaluator.evaluate(mapping, cores, &clone));
  EXPECT_EQ(clone.hits() - cache.hits(),
            clone.lookups() - lookups_before);
}

// ---- GA-level contract: the cache changes wall clock, never results. ---

GaOptions fast_ga() {
  GaOptions options;
  options.population_size = 24;
  options.max_generations = 30;
  options.stagnation_limit = 12;
  return options;
}

TEST(ModeCache, QuarantinesCorruptedEntryAndRecomputes) {
  // Self-healing contract: an entry poisoned after insertion (here via
  // the cache.insert corrupt failpoint) fails its digest check on the
  // next lookup, is quarantined, and the caller recomputes — the final
  // evaluation stays bitwise-identical to a cold one.
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(11);
  const Genome genome = codec.random_genome(rng);
  const MultiModeMapping mapping = codec.decode(genome);
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  const Evaluation cold = evaluator.evaluate(mapping, cores);

  ModeEvalCache cache;
  failpoint::arm("cache.insert=corrupt");  // poison every stored copy
  (void)evaluator.evaluate(mapping, cores, &cache);
  failpoint::disarm();
  EXPECT_GT(cache.size(), 0u);

  // Every whole-mode lookup detects the poison, evicts, and misses.
  const std::size_t poisoned = cache.size();
  Evaluation healed = evaluator.evaluate(mapping, cores, &cache);
  EXPECT_EQ(cache.quarantined(), static_cast<long>(poisoned));
  expect_evaluations_identical(healed, cold);

  // The recomputed entries are clean: the next pass is pure hits.
  const long hits_before = cache.hits();
  healed = evaluator.evaluate(mapping, cores, &cache);
  EXPECT_EQ(cache.quarantined(), static_cast<long>(poisoned));
  EXPECT_EQ(cache.hits() - hits_before,
            static_cast<long>(system.omsm.mode_count()));
  expect_evaluations_identical(healed, cold);
}

TEST(ModeCache, DroppedInsertIsJustAMissLater) {
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(17);
  const Genome genome = codec.random_genome(rng);
  const MultiModeMapping mapping = codec.decode(genome);
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  const Evaluation cold = evaluator.evaluate(mapping, cores);

  ModeEvalCache cache;
  failpoint::arm("cache.insert=fail");  // every insert is dropped
  (void)evaluator.evaluate(mapping, cores, &cache);
  failpoint::disarm();
  EXPECT_EQ(cache.size(), 0u);

  const Evaluation recomputed = evaluator.evaluate(mapping, cores, &cache);
  expect_evaluations_identical(recomputed, cold);
  EXPECT_GT(cache.size(), 0u);  // disarmed inserts land normally
}

TEST(ModeCacheGa, ResultsAndReportIdenticalOnOrOff) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 3;
  options.ga.memoize_mode_evaluations = false;
  const SynthesisResult off = synthesize(system, options);
  options.ga.memoize_mode_evaluations = true;
  const SynthesisResult on = synthesize(system, options);

  EXPECT_EQ(off.fitness, on.fitness);
  EXPECT_EQ(off.generations, on.generations);
  EXPECT_EQ(off.evaluations, on.evaluations);
  EXPECT_EQ(off.cache_hits, on.cache_hits);
  EXPECT_EQ(off.evaluation.avg_power_true, on.evaluation.avg_power_true);
  for (std::size_t m = 0; m < off.mapping.modes.size(); ++m)
    EXPECT_EQ(off.mapping.modes[m].task_to_pe, on.mapping.modes[m].task_to_pe);
  // Only the mode-cache counters may differ — and the report omits them,
  // so the rendered reports are byte-identical.
  EXPECT_EQ(off.mode_cache_lookups, 0);
  EXPECT_EQ(off.mode_cache_hits, 0);
  EXPECT_GT(on.mode_cache_lookups, 0);
  EXPECT_GT(on.mode_cache_hits, 0);
  ReportOptions report;
  report.include_timing = false;
  EXPECT_EQ(implementation_report(system, off, report),
            implementation_report(system, on, report));
}

TEST(ModeCacheGa, HitAccountingIsConsistent) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  const SynthesisResult result = synthesize(system, options);
  // Every lookup either hits or schedules exactly one mode inner loop,
  // and there is one lookup per (unique genome job, mode).
  EXPECT_GE(result.mode_cache_lookups, result.mode_cache_hits);
  EXPECT_EQ(result.mode_cache_lookups,
            result.evaluations *
                static_cast<long>(system.omsm.mode_count()));
}

TEST(ModeCacheGa, ParallelEvaluationStaysBitIdentical) {
  const System system = make_mul(5);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 19;
  options.ga.num_threads = 1;
  const SynthesisResult serial = synthesize(system, options);
  options.ga.num_threads = 4;
  const SynthesisResult parallel = synthesize(system, options);
  EXPECT_EQ(serial.fitness, parallel.fitness);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.mode_cache_hits, parallel.mode_cache_hits);
  EXPECT_EQ(serial.mode_cache_lookups, parallel.mode_cache_lookups);
  EXPECT_EQ(serial.evaluation.avg_power_true,
            parallel.evaluation.avg_power_true);
}

TEST(ModeCacheGa, TinyCapacityChangesCostNotResults) {
  const System system = make_mul(3);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 9;
  const SynthesisResult roomy = synthesize(system, options);
  options.ga.mode_cache_capacity = 4;  // constant eviction
  const SynthesisResult tiny = synthesize(system, options);
  EXPECT_EQ(tiny.fitness, roomy.fitness);
  EXPECT_EQ(tiny.generations, roomy.generations);
  EXPECT_EQ(tiny.evaluation.avg_power_true, roomy.evaluation.avg_power_true);
  // Eviction can only lose hits, never change what a hit returns.
  EXPECT_LE(tiny.mode_cache_hits, roomy.mode_cache_hits);
}

}  // namespace
}  // namespace mmsyn
