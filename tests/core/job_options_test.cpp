// JobOptions: the shared flags, their defaults, the 32-bit range check,
// validation messages and the mapping to SynthesisOptions/ReportOptions.
#include "core/job_options.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "power/backends.hpp"

namespace mmsyn {
namespace {

Flags job_flags(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (std::string& a : args) argv.push_back(a.data());
  Flags flags;
  define_job_flags(flags);
  EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  return flags;
}

JobOptions parse_job(std::vector<std::string> args) {
  return job_options_from_flags(job_flags(std::move(args)));
}

void expect_same_run(const SynthesisOptions& a, const SynthesisOptions& b) {
  EXPECT_EQ(a.use_dvs, b.use_dvs);
  EXPECT_EQ(a.scheduling_policy, b.scheduling_policy);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.consider_probabilities, b.consider_probabilities);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.ga.population_size, b.ga.population_size);
  EXPECT_EQ(a.ga.max_generations, b.ga.max_generations);
  EXPECT_EQ(a.ga.num_threads, b.ga.num_threads);
}

TEST(JobOptions, FlagDefaultsRunLikeDefaultConstructedOptions) {
  // The flags spell the default backends by name where JobOptions leaves
  // them empty; both must resolve to the same run and report.
  const JobOptions from_flags = parse_job({});
  const JobOptions defaults;
  expect_same_run(to_synthesis_options(from_flags),
                  to_synthesis_options(defaults));
  EXPECT_EQ(from_flags.time_budget, defaults.time_budget);
  EXPECT_EQ(from_flags.report_gantt, defaults.report_gantt);
  EXPECT_EQ(from_flags.report_voltages, defaults.report_voltages);
  EXPECT_NO_THROW(validate(from_flags));
  EXPECT_NO_THROW(validate(defaults));
}

TEST(JobOptions, FlagsMapOntoEveryField) {
  const JobOptions o = parse_job(
      {"--seed=9", "--population=12", "--generations=0", "--threads=0",
       "--dvs", "--scheduler=topo-order", "--power=thermal", "--uniform",
       "--time-budget=1.5", "--gantt=false", "--report-voltages"});
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.population, 12);
  EXPECT_EQ(o.generations, 0);
  EXPECT_EQ(o.threads, 0);
  EXPECT_EQ(o.dvs_backend, "pv-dvs");
  EXPECT_EQ(o.scheduler_backend, "topo-order");
  EXPECT_EQ(o.power_backend, "thermal");
  EXPECT_FALSE(o.consider_probabilities);
  EXPECT_EQ(o.time_budget, 1.5);
  EXPECT_FALSE(o.report_gantt);
  EXPECT_TRUE(o.report_voltages);
  EXPECT_NO_THROW(validate(o));

  const SynthesisOptions s = to_synthesis_options(o);
  EXPECT_TRUE(s.use_dvs);
  EXPECT_EQ(s.scheduling_policy, SchedulingPolicy::kTopoOrder);
  EXPECT_EQ(s.power, resolve_power_backend("thermal"));
  EXPECT_EQ(s.ga.num_threads, 0);  // 0 = all cores, not clamped to 1
  const ReportOptions r = to_report_options(o);
  EXPECT_FALSE(r.include_gantt);
  EXPECT_TRUE(r.include_voltage_schedules);
  EXPECT_FALSE(r.include_timing);
}

TEST(JobOptions, IntegerOutsideItsFieldIsRejectedNotWrapped) {
  for (const char* arg : {"--population=2147483648", "--threads=-2147483649",
                          "--generations=9223372036854775807"}) {
    const Flags flags = job_flags({arg});
    try {
      (void)job_options_from_flags(flags);
      ADD_FAILURE() << arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
          << e.what();
    }
  }
}

TEST(JobOptions, ValidateNamesTheFlagToFix) {
  const auto message = [](auto&& mutate) {
    JobOptions o;
    mutate(o);
    try {
      validate(o);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message([](JobOptions& o) { o.threads = -1; }).find("--threads"),
            std::string::npos);
  EXPECT_NE(message([](JobOptions& o) { o.threads = kMaxJobThreads + 1; })
                .find("--threads"),
            std::string::npos);
  EXPECT_EQ(message([](JobOptions& o) { o.threads = kMaxJobThreads; }),
            "accepted");
  EXPECT_NE(message([](JobOptions& o) { o.generations = -1; })
                .find("--generations"),
            std::string::npos);
  EXPECT_NE(message([](JobOptions& o) { o.time_budget = -1.0; })
                .find("--time-budget"),
            std::string::npos);
  EXPECT_NE(message([](JobOptions& o) { o.population = 2; })
                .find("--population=2"),
            std::string::npos);
  EXPECT_NE(message([](JobOptions& o) { o.power_backend = "bogus"; })
                .find("bogus"),
            std::string::npos);
}

}  // namespace
}  // namespace mmsyn
