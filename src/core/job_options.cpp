#include "core/job_options.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/flags.hpp"
#include "core/island_ga.hpp"
#include "pipeline/backends.hpp"
#include "power/backends.hpp"

namespace mmsyn {
namespace {

template <typename Info>
std::vector<std::string> backend_names(const std::vector<Info>& backends) {
  std::vector<std::string> names;
  for (const auto& b : backends) names.emplace_back(b.name);
  return names;
}

// An empty backend name selects the registry default.
std::string dvs_name(const std::string& name) {
  return name.empty() ? dvs_backend_name(false) : name;
}
std::string scheduler_name(const std::string& name) {
  return name.empty() ? scheduler_backends().front().name : name;
}
std::string power_name(const std::string& name) {
  return name.empty() ? power_backends().front().name : name;
}

std::int32_t int32_flag(const Flags& flags, const char* name) {
  const std::int64_t v = flags.get_int(name);
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max())
    throw std::invalid_argument(std::string(name) + ": --" + name + "=" +
                                std::to_string(v) +
                                " does not fit in a 32-bit integer");
  return static_cast<std::int32_t>(v);
}

}  // namespace

void define_job_flags(Flags& flags) {
  const JobOptions d;
  flags.define_int("seed", static_cast<std::int64_t>(d.seed), "GA seed");
  flags.define_int("population", d.population, "GA population size");
  flags.define_int("generations", d.generations, "GA generation cap");
  flags.define_int("threads", d.threads,
                   "fitness-evaluation threads (0 = all cores); the result "
                   "is identical for any value");
  flags.define_choice("dvs", backend_names(dvs_backends()),
                      /*default_value=*/dvs_name(d.dvs_backend),
                      /*implicit_value=*/dvs_backend_name(true),
                      "voltage-scaling backend (bare --dvs = " +
                          std::string(dvs_backend_name(true)) + ")");
  const std::string scheduler = scheduler_name(d.scheduler_backend);
  flags.define_choice("scheduler", backend_names(scheduler_backends()),
                      scheduler, scheduler, "list-scheduler priority backend");
  const std::string power = power_name(d.power_backend);
  flags.define_choice("power", backend_names(power_backends()), power, power,
                      "power-model backend (paper = the pinned reference "
                      "model; thermal = temperature-dependent leakage; "
                      "dpm-idle = sleep-state idle-interval accounting)");
  flags.define_bool("uniform", !d.consider_probabilities,
                    "neglect mode probabilities (baseline behaviour)");
  flags.define_double("time-budget", d.time_budget,
                      "wall-clock budget in seconds (0 = unlimited, or the "
                      "server default for a submitted job); on expiry the "
                      "best-so-far result is reported");
  flags.define_bool("gantt", d.report_gantt,
                    "include Gantt charts in the report");
  flags.define_bool("report-voltages", d.report_voltages,
                    "include voltage schedules in the report");
}

JobOptions job_options_from_flags(const Flags& flags) {
  JobOptions o;
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  o.population = int32_flag(flags, "population");
  o.generations = int32_flag(flags, "generations");
  o.threads = int32_flag(flags, "threads");
  o.dvs_backend = flags.get_string("dvs");
  o.scheduler_backend = flags.get_string("scheduler");
  o.power_backend = flags.get_string("power");
  o.consider_probabilities = !flags.get_bool("uniform");
  o.time_budget = flags.get_double("time-budget");
  o.report_gantt = flags.get_bool("gantt");
  o.report_voltages = flags.get_bool("report-voltages");
  return o;
}

void validate(const JobOptions& options) {
  if (options.threads < 0 || options.threads > kMaxJobThreads)
    throw std::invalid_argument(
        "threads: --threads must be between 0 and " +
        std::to_string(kMaxJobThreads) + " (0 = all cores; got " +
        std::to_string(options.threads) + ")");
  if (options.generations < 0)
    throw std::invalid_argument("generations: --generations must be >= 0 "
                                "(got " +
                                std::to_string(options.generations) + ")");
  if (!std::isfinite(options.time_budget) || options.time_budget < 0.0) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", options.time_budget);
    throw std::invalid_argument(
        "time-budget: --time-budget must be a finite number of seconds >= 0 "
        "(0 = unlimited; got " + std::string(got) + ")");
  }
  // Resolving the backends rejects unknown names with the registered list.
  IslandGa::validate(to_synthesis_options(options).ga, IslandOptions{});
}

SynthesisOptions to_synthesis_options(const JobOptions& options) {
  SynthesisOptions s;
  s.use_dvs = resolve_dvs_backend(dvs_name(options.dvs_backend));
  s.scheduling_policy =
      resolve_scheduler_backend(scheduler_name(options.scheduler_backend));
  s.power = resolve_power_backend(power_name(options.power_backend));
  s.consider_probabilities = options.consider_probabilities;
  s.seed = options.seed;
  s.ga.population_size = options.population;
  s.ga.max_generations = options.generations;
  s.ga.num_threads = options.threads;
  return s;
}

ReportOptions to_report_options(const JobOptions& options) {
  ReportOptions r;
  r.include_gantt = options.report_gantt;
  r.include_voltage_schedules = options.report_voltages;
  r.include_timing = false;
  return r;
}

}  // namespace mmsyn
