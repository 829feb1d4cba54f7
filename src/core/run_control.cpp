#include "core/run_control.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/byte_codec.hpp"
#include "common/checksum.hpp"
#include "common/durable_file.hpp"
#include "common/failpoint.hpp"
#include "common/interrupt.hpp"

namespace mmsyn {
namespace {

// Checkpoint file layout (all integers little-endian):
//   8 bytes  magic "MMSYNCKP"
//   u32      format version (kVersion)
//   u64      payload size in bytes
//   payload  serialized island container (see serialize_container)
//   u32      CRC-32 of the payload
// The trailing CRC plus the explicit size reject truncation and bit rot;
// the version gates format evolution.
constexpr char kMagic[8] = {'M', 'M', 'S', 'Y', 'N', 'C', 'K', 'P'};
// v2: appended the per-mode evaluation memo (keys + results + counters).
// v3: appended the schedule-stage tier of the same memo (keys + schedule
// artifacts + counters). Older files are rejected up front — without the
// stage store and its counters a resumed run could not replay the
// stage-level hit accounting bit-identically.
// v4: every file is an island container — config header (island count,
// migration schedule, next barrier) followed by one length-prefixed
// GaSnapshot per island; a single-population save is the one-island
// special case. GaSnapshot itself gained the `converged` latch.
// v5: ModeEvaluation gained the power-model breakdown fields
// (baseline_static_power, idle_energy_saved, wake_energy, temperature),
// serialized after `routable`.
// v6: dropped the v3 schedule-stage section with the tier itself. Older
// files are rejected as unsupported, which the newest-good fallback
// treats like any other unusable generation (DESIGN.md §13).
constexpr std::uint32_t kVersion = 6;

using Reader = ByteReader<CheckpointError>;

void write_individual(ByteWriter& w, const SnapshotIndividual& ind,
                      std::size_t genome_length) {
  if (ind.genome.size() != genome_length)
    throw CheckpointError("inconsistent genome length in snapshot");
  for (std::uint16_t gene : ind.genome) w.u16(gene);
  w.f64(ind.fitness);
  w.f64(ind.violation);
  w.f64(ind.power_true);
  w.boolean(ind.evaluated);
  w.boolean(ind.area_infeasible);
  w.boolean(ind.timing_infeasible);
  w.boolean(ind.transition_infeasible);
}

SnapshotIndividual read_individual(Reader& r, std::size_t genome_length) {
  SnapshotIndividual ind;
  ind.genome.resize(genome_length);
  for (std::uint16_t& gene : ind.genome) gene = r.u16();
  ind.fitness = r.f64();
  ind.violation = r.f64();
  ind.power_true = r.f64();
  ind.evaluated = r.boolean();
  ind.area_infeasible = r.boolean();
  ind.timing_infeasible = r.boolean();
  ind.transition_infeasible = r.boolean();
  return ind;
}

void write_mode_key(ByteWriter& w, const ModeEvalKey& key) {
  w.u32(key.mode());
  w.u64(key.options_fingerprint());
  w.u64(key.task_to_pe().size());
  for (PeId p : key.task_to_pe()) w.i32(p.value());
  w.u64(key.cores().size());
  for (const CoreSet& set : key.cores()) {
    w.u64(set.entries().size());
    for (const auto& [type, count] : set.entries()) {
      w.i32(type.value());
      w.i32(count);
    }
  }
}

// The key's hash is not part of the format: the constructor recomputes it.
ModeEvalKey read_mode_key(Reader& r) {
  const std::uint32_t mode = r.u32();
  const std::uint64_t options_fingerprint = r.u64();
  const std::uint64_t n_tasks = r.u64();
  std::vector<PeId> task_to_pe;
  task_to_pe.reserve(n_tasks);
  for (std::uint64_t i = 0; i < n_tasks; ++i)
    task_to_pe.push_back(PeId{static_cast<PeId::value_type>(r.i32())});
  std::vector<CoreSet> cores(r.u64());
  for (CoreSet& set : cores) {
    const std::uint64_t n_entries = r.u64();
    for (std::uint64_t e = 0; e < n_entries; ++e) {
      const TaskTypeId type{static_cast<TaskTypeId::value_type>(r.i32())};
      set.set_count(type, r.i32());
    }
  }
  return ModeEvalKey(mode, options_fingerprint, std::move(task_to_pe),
                     std::move(cores));
}

void write_mode_evaluation(ByteWriter& w, const ModeEvaluation& m) {
  // The memo never holds schedules (the GA hot loop drops them); a
  // schedule here means the snapshot was built from the wrong evaluator
  // configuration, which resume could not reproduce.
  if (m.schedule.has_value())
    throw CheckpointError("mode-cache entry carries a schedule");
  w.f64(m.dyn_energy);
  w.f64(m.dyn_power);
  w.f64(m.static_power);
  w.f64(m.timing_violation);
  w.f64(m.makespan);
  w.u64(m.pe_active.size());
  for (bool b : m.pe_active) w.boolean(b);
  w.u64(m.cl_active.size());
  for (bool b : m.cl_active) w.boolean(b);
  w.boolean(m.routable);
  w.f64(m.baseline_static_power);
  w.f64(m.idle_energy_saved);
  w.f64(m.wake_energy);
  w.f64(m.temperature);
}

ModeEvaluation read_mode_evaluation(Reader& r) {
  ModeEvaluation m;
  m.dyn_energy = r.f64();
  m.dyn_power = r.f64();
  m.static_power = r.f64();
  m.timing_violation = r.f64();
  m.makespan = r.f64();
  m.pe_active.resize(r.u64());
  for (std::size_t i = 0; i < m.pe_active.size(); ++i)
    m.pe_active[i] = r.boolean();
  m.cl_active.resize(r.u64());
  for (std::size_t i = 0; i < m.cl_active.size(); ++i)
    m.cl_active[i] = r.boolean();
  m.routable = r.boolean();
  m.baseline_static_power = r.f64();
  m.idle_energy_saved = r.f64();
  m.wake_energy = r.f64();
  m.temperature = r.f64();
  return m;
}

std::string serialize_ga(const GaSnapshot& snapshot) {
  // Genomes are fixed-length per run; store the length once.
  const std::size_t genome_length =
      snapshot.population.empty() ? snapshot.best.genome.size()
                                  : snapshot.population.front().genome.size();
  ByteWriter w;
  w.u64(snapshot.fingerprint);
  w.u64(genome_length);
  w.i32(snapshot.next_generation);
  w.i32(snapshot.stagnation);
  w.boolean(snapshot.converged);
  w.i32(snapshot.area_infeasible_streak);
  w.i32(snapshot.timing_infeasible_streak);
  w.i32(snapshot.transition_infeasible_streak);
  w.i64(snapshot.evaluations);
  w.i64(snapshot.cache_hits);
  w.i64(snapshot.cache_lookups);
  w.f64(snapshot.elapsed_seconds);
  for (std::uint64_t word : snapshot.rng_state) w.u64(word);
  w.boolean(snapshot.has_best);
  write_individual(w, snapshot.best, snapshot.best.genome.size());
  w.u64(snapshot.population.size());
  for (const SnapshotIndividual& ind : snapshot.population)
    write_individual(w, ind, genome_length);
  w.u64(snapshot.cache.size());
  for (const SnapshotIndividual& ind : snapshot.cache)
    write_individual(w, ind, genome_length);
  w.i64(snapshot.mode_cache_hits);
  w.i64(snapshot.mode_cache_lookups);
  w.u64(snapshot.mode_cache.size());
  for (const auto& [key, value] : snapshot.mode_cache) {
    write_mode_key(w, key);
    write_mode_evaluation(w, value);
  }
  return w.take();
}

GaSnapshot deserialize_ga(std::string_view payload) {
  Reader r(payload);
  GaSnapshot s;
  s.fingerprint = r.u64();
  const std::size_t genome_length = r.u64();
  s.next_generation = r.i32();
  s.stagnation = r.i32();
  s.converged = r.boolean();
  s.area_infeasible_streak = r.i32();
  s.timing_infeasible_streak = r.i32();
  s.transition_infeasible_streak = r.i32();
  s.evaluations = r.i64();
  s.cache_hits = r.i64();
  s.cache_lookups = r.i64();
  s.elapsed_seconds = r.f64();
  for (std::uint64_t& word : s.rng_state) word = r.u64();
  s.has_best = r.boolean();
  s.best = read_individual(r, genome_length);
  const std::uint64_t population_count = r.u64();
  s.population.reserve(population_count);
  for (std::uint64_t i = 0; i < population_count; ++i)
    s.population.push_back(read_individual(r, genome_length));
  const std::uint64_t cache_count = r.u64();
  s.cache.reserve(cache_count);
  for (std::uint64_t i = 0; i < cache_count; ++i)
    s.cache.push_back(read_individual(r, genome_length));
  s.mode_cache_hits = r.i64();
  s.mode_cache_lookups = r.i64();
  const std::uint64_t mode_cache_count = r.u64();
  s.mode_cache.reserve(mode_cache_count);
  for (std::uint64_t i = 0; i < mode_cache_count; ++i) {
    ModeEvalKey key = read_mode_key(r);
    ModeEvaluation value = read_mode_evaluation(r);
    s.mode_cache.emplace_back(std::move(key), std::move(value));
  }
  if (!r.done()) throw CheckpointError("trailing bytes in payload");
  return s;
}

// The v4 island container: config header + length-prefixed per-island
// GaSnapshot payloads, in island order.
std::string serialize_container(const IslandSnapshot& snapshot) {
  if (snapshot.islands.size() !=
      static_cast<std::size_t>(snapshot.island_count))
    throw CheckpointError("island container holds " +
                          std::to_string(snapshot.islands.size()) +
                          " snapshots but declares " +
                          std::to_string(snapshot.island_count));
  ByteWriter w;
  w.u64(snapshot.fingerprint);
  w.i32(snapshot.island_count);
  w.i32(snapshot.migration_interval);
  w.i32(snapshot.migrants);
  w.i64(snapshot.next_migration_generation);
  for (const GaSnapshot& island : snapshot.islands) {
    const std::string payload = serialize_ga(island);
    w.u64(payload.size());
    w.raw(payload);
  }
  return w.take();
}

IslandSnapshot deserialize_container(std::string_view payload) {
  Reader r(payload);
  IslandSnapshot s;
  s.fingerprint = r.u64();
  s.island_count = r.i32();
  s.migration_interval = r.i32();
  s.migrants = r.i32();
  s.next_migration_generation = r.i64();
  if (s.island_count < 1)
    throw CheckpointError("island container declares " +
                          std::to_string(s.island_count) + " islands");
  s.islands.reserve(static_cast<std::size_t>(s.island_count));
  for (std::int32_t i = 0; i < s.island_count; ++i)
    s.islands.push_back(deserialize_ga(r.raw(r.u64())));
  if (!r.done()) throw CheckpointError("trailing bytes in payload");
  return s;
}

/// Wraps a single-population snapshot as the one-island container.
IslandSnapshot wrap_single(const GaSnapshot& snapshot) {
  IslandSnapshot s;
  s.fingerprint = snapshot.fingerprint;
  s.island_count = 1;
  s.islands.push_back(snapshot);
  return s;
}

// Failpoints on the checkpoint I/O path (see common/failpoint.hpp).
// `fail` on either site is retried with deterministic backoff; `corrupt`
// on checkpoint.write flips one payload byte in the on-disk image (the
// generation then fails its CRC on load, exercising the fallback), and
// `corrupt` on io.read flips one byte of the in-memory image after a
// clean read. io.read is shared by name with model/io.cpp.
failpoint::Site fp_checkpoint_write{"checkpoint.write"};
failpoint::Site fp_checkpoint_rename{"checkpoint.rename"};
failpoint::Site fp_io_read{"io.read"};

}  // namespace

std::string checkpoint_generation_path(const std::string& path,
                                       int generation) {
  return generation <= 0 ? path : path + "." + std::to_string(generation);
}

namespace {

void save_payload_rotating(const std::string& path, const std::string& payload,
                           int keep) {
  if (keep < 1) keep = 1;

  ByteWriter w;
  w.raw(std::string_view(kMagic, sizeof kMagic));
  w.u32(kVersion);
  w.u64(payload.size());
  w.raw(payload);
  w.u32(crc32(payload));
  const std::string file = w.take();

  const std::string tmp = path + ".tmp";
  try {
    failpoint::retry_transient("checkpoint.write", [&] {
      std::string image = file;
      if (failpoint::inject(fp_checkpoint_write)) {
        // Deterministic corruption: flip one bit mid-payload; the CRC
        // trailer stays stale so the generation is rejected on load.
        const std::size_t at = sizeof kMagic + 12 + payload.size() / 2;
        image[at] = static_cast<char>(image[at] ^ 0x01);
      }
      try {
        write_file_durable(tmp, image);
      } catch (const DurableIoError& e) {
        // The checkpoint layer's callers tolerate CheckpointError (a
        // lost periodic save must not kill a multi-hour run).
        throw CheckpointError(e.what());
      }
    });

    // Shift the surviving generations up before the new file takes the
    // base name; a missing generation is not an error (fresh runs).
    for (int gen = keep - 1; gen >= 1; --gen)
      (void)std::rename(checkpoint_generation_path(path, gen - 1).c_str(),
                        checkpoint_generation_path(path, gen).c_str());

    // Atomic replace: a crash mid-save leaves the previous generations in
    // place (possibly shifted up one slot), never a half-written file
    // under a loadable name.
    failpoint::retry_transient("checkpoint.rename", [&] {
      (void)failpoint::inject(fp_checkpoint_rename);
      if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw CheckpointError("cannot rename " + tmp + " to " + path);
    });
  } catch (const TransientFault& e) {
    // Exhausted retries surface as the checkpoint-layer error type.
    std::remove(tmp.c_str());
    throw CheckpointError(std::string("giving up after ") +
                          std::to_string(failpoint::kMaxRetryAttempts) +
                          " attempts: " + e.what());
  }
  fsync_parent_dir(path);
}

}  // namespace

void save_checkpoint_rotating(const std::string& path,
                              const GaSnapshot& snapshot, int keep) {
  save_payload_rotating(path, serialize_container(wrap_single(snapshot)),
                        keep);
}

void save_island_checkpoint_rotating(const std::string& path,
                                     const IslandSnapshot& snapshot,
                                     int keep) {
  save_payload_rotating(path, serialize_container(snapshot), keep);
}

void save_checkpoint(const std::string& path, const GaSnapshot& snapshot) {
  save_checkpoint_rotating(path, snapshot, /*keep=*/1);
}

IslandSnapshot load_island_checkpoint(const std::string& path) {
  std::string file;
  try {
    file = failpoint::retry_transient("checkpoint read", [&] {
      const bool corrupt = failpoint::inject(fp_io_read);
      std::ifstream is(path, std::ios::binary);
      if (!is) throw CheckpointError("cannot open for reading: " + path);
      std::ostringstream buffer;
      buffer << is.rdbuf();
      std::string bytes = buffer.str();
      if (corrupt && !bytes.empty())
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
      return bytes;
    });
  } catch (const TransientFault& e) {
    throw CheckpointError(std::string("giving up after ") +
                          std::to_string(failpoint::kMaxRetryAttempts) +
                          " attempts: " + e.what());
  }

  if (file.size() < sizeof kMagic + 12 ||
      file.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0)
    throw CheckpointError("not a mmsyn checkpoint: " + path);
  Reader header(std::string_view(file).substr(sizeof kMagic, 12));
  const std::uint32_t version = header.u32();
  if (version != kVersion)
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version));
  const std::uint64_t payload_size = header.u64();
  const std::size_t payload_offset = sizeof kMagic + 12;
  if (file.size() != payload_offset + payload_size + 4)
    throw CheckpointError("truncated checkpoint: " + path);
  const std::string_view payload =
      std::string_view(file).substr(payload_offset, payload_size);
  Reader trailer(std::string_view(file).substr(payload_offset + payload_size));
  if (trailer.u32() != crc32(payload))
    throw CheckpointError("CRC mismatch (corrupted file): " + path);
  return deserialize_container(payload);
}

GaSnapshot load_checkpoint(const std::string& path) {
  IslandSnapshot container = load_island_checkpoint(path);
  if (container.island_count != 1)
    throw CheckpointError(
        path + " is an island-model checkpoint (" +
        std::to_string(container.island_count) +
        " islands); resume it with --islands=" +
        std::to_string(container.island_count) +
        " and the matching migration schedule instead of a "
        "single-population run");
  return std::move(container.islands.front());
}

CheckpointLoadResult load_checkpoint_fallback(
    const std::string& path, int keep,
    std::optional<std::uint64_t> expected_fingerprint) {
  if (keep < 1) keep = 1;
  CheckpointLoadResult result;
  for (int gen = 0; gen < keep; ++gen) {
    const std::string gen_path = checkpoint_generation_path(path, gen);
    try {
      GaSnapshot snapshot = load_checkpoint(gen_path);
      if (expected_fingerprint.has_value() &&
          snapshot.fingerprint != *expected_fingerprint)
        throw CheckpointError("configuration fingerprint mismatch: " +
                              gen_path);
      result.snapshot = std::move(snapshot);
      result.loaded_path = gen_path;
      result.generation = gen;
      return result;
    } catch (const CheckpointError& e) {
      result.notes.emplace_back(e.what());
    }
  }
  std::string message = "no usable checkpoint generation under " + path;
  for (const std::string& note : result.notes) message += "; " + note;
  throw CheckpointError(message);
}

IslandCheckpointLoadResult load_island_checkpoint_fallback(
    const std::string& path, int keep,
    std::optional<std::uint64_t> expected_fingerprint) {
  if (keep < 1) keep = 1;
  IslandCheckpointLoadResult result;
  for (int gen = 0; gen < keep; ++gen) {
    const std::string gen_path = checkpoint_generation_path(path, gen);
    try {
      IslandSnapshot snapshot = load_island_checkpoint(gen_path);
      if (expected_fingerprint.has_value() &&
          snapshot.fingerprint != *expected_fingerprint)
        throw CheckpointError(
            "island configuration fingerprint mismatch (different island "
            "count, migration schedule, seed, or GA options): " + gen_path);
      result.snapshot = std::move(snapshot);
      result.loaded_path = gen_path;
      result.generation = gen;
      return result;
    } catch (const CheckpointError& e) {
      result.notes.emplace_back(e.what());
    }
  }
  std::string message = "no usable checkpoint generation under " + path;
  for (const std::string& note : result.notes) message += "; " + note;
  throw CheckpointError(message);
}

void RunControl::write_island_checkpoint(const IslandSnapshot& snapshot) const {
  if (checkpoint_path.empty()) return;
  try {
    save_island_checkpoint_rotating(checkpoint_path, snapshot,
                                    checkpoint_keep_generations);
  } catch (const CheckpointError& e) {
    ++checkpoint_write_failures_;
    log_recovery(std::string("tolerated checkpoint write failure (run "
                             "continues on older generations): ") +
                 e.what());
  }
}

void RunControl::write_checkpoint(const GaSnapshot& snapshot) const {
  if (checkpoint_path.empty()) return;
  try {
    save_checkpoint_rotating(checkpoint_path, snapshot,
                             checkpoint_keep_generations);
  } catch (const CheckpointError& e) {
    ++checkpoint_write_failures_;
    log_recovery(std::string("tolerated checkpoint write failure (run "
                             "continues on older generations): ") +
                 e.what());
  }
}

bool RunControl::cancel_requested() const {
  return cancelled_.load(std::memory_order_relaxed) ||
         (poll_interrupt_flag_ && interrupt_requested());
}

}  // namespace mmsyn
