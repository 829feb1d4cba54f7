// The options of one synthesis job, and every path they travel: from
// command-line flags (synthesize_file, mmsyn_client), through validation,
// onto the wire and into the journal (one byte codec), and into the
// SynthesisOptions / ReportOptions a run consumes.
//
// These are the inputs the paper's experiments vary: GA size and seed,
// the DVS / scheduler / power backends, and whether mode execution
// probabilities weight the objective (`--uniform` turns them off).
#pragma once

#include <cstdint>
#include <string>

#include "common/byte_codec.hpp"
#include "core/cosynth.hpp"
#include "core/report.hpp"

namespace mmsyn {

class Flags;

/// Synthesis options of one job. Every field defaults to the
/// synthesize_file default, so a job submitted with defaults is
/// byte-identical to the bare CLI run.
struct JobOptions {
  std::uint64_t seed = 1;
  std::int32_t population = 64;
  std::int32_t generations = 600;
  /// Fitness-evaluation threads *inside* this job (0 = all cores). The
  /// result is identical for any value; server concurrency comes from
  /// worker slots, so 1 is the sensible default.
  std::int32_t threads = 1;
  /// Backend names resolved through pipeline/backends (empty = default).
  std::string dvs_backend;
  std::string scheduler_backend;
  /// Power-model backend resolved through power/backends (empty =
  /// "paper"). Folded into the job fingerprint, so a thermal or dpm-idle
  /// result can never be served from a paper cache entry.
  std::string power_backend;
  bool consider_probabilities = true;
  /// Wall-clock budget in seconds; 0 = unlimited (the job server applies
  /// its default budget instead).
  /// NOTE: budgeted jobs stop at a wall-clock-dependent generation, so
  /// their (partial) results are excluded from the cross-job cache.
  double time_budget = 0.0;
  /// Report shape (timing is always excluded server-side so stored
  /// reports are byte-identical across runs and restarts).
  bool report_gantt = true;
  bool report_voltages = false;

  friend bool operator==(const JobOptions&, const JobOptions&) = default;
};

/// Registers the flags shared by every binary that runs or submits a
/// job: seed, population, generations, threads, dvs, scheduler, power,
/// uniform, time-budget, gantt and report-voltages. Defaults come from a
/// default-constructed JobOptions.
void define_job_flags(Flags& flags);

/// Reads the flags registered by define_job_flags. Throws
/// std::invalid_argument naming the flag when an integer does not fit
/// its 32-bit field.
[[nodiscard]] JobOptions job_options_from_flags(const Flags& flags);

/// Upper bound of JobOptions::threads: one job never needs more worker
/// threads than this, and an absurd count would exhaust the process.
inline constexpr std::int32_t kMaxJobThreads = 1024;

/// Rejects options no run can honour, with std::invalid_argument naming
/// the flag: threads outside [0, kMaxJobThreads], negative generations, a
/// non-finite or negative time budget, an unknown backend name, and
/// everything IslandGa::validate rejects (e.g. a population below
/// elite_count + 1).
void validate(const JobOptions& options);

/// The SynthesisOptions of a job: backends resolved by name (empty names
/// select the registry defaults), GA size, seed and thread count. Throws
/// std::invalid_argument for an unknown backend name.
[[nodiscard]] SynthesisOptions to_synthesis_options(const JobOptions& options);

/// The report shape of a job, timing excluded (stored reports must be
/// byte-identical across runs).
[[nodiscard]] ReportOptions to_report_options(const JobOptions& options);

/// The one byte codec of JobOptions, shared by the wire protocol's
/// kSubmit payload and the journal's kAccept record. The field order is
/// the format; changing it changes both.
inline void write_job_options(ByteWriter& w, const JobOptions& o) {
  w.u64(o.seed);
  w.i32(o.population);
  w.i32(o.generations);
  w.i32(o.threads);
  w.str(o.dvs_backend);
  w.str(o.scheduler_backend);
  w.str(o.power_backend);
  w.boolean(o.consider_probabilities);
  w.f64(o.time_budget);
  w.boolean(o.report_gantt);
  w.boolean(o.report_voltages);
}

template <typename Error>
[[nodiscard]] JobOptions read_job_options(ByteReader<Error>& r) {
  JobOptions o;
  o.seed = r.u64();
  o.population = r.i32();
  o.generations = r.i32();
  o.threads = r.i32();
  o.dvs_backend = r.str();
  o.scheduler_backend = r.str();
  o.power_backend = r.str();
  o.consider_probabilities = r.boolean();
  o.time_budget = r.f64();
  o.report_gantt = r.boolean();
  o.report_voltages = r.boolean();
  return o;
}

}  // namespace mmsyn
