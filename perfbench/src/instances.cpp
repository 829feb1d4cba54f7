#include "instances.hpp"

#include <stdexcept>

#include "model/io.hpp"
#include "tgff/generator.hpp"
#include "tgff/smart_phone.hpp"
#include "tgff/suites.hpp"

namespace perfbench {
namespace {

using mmsyn::GeneratorConfig;
using mmsyn::JobOptions;
using mmsyn::System;

/// Ranges the seed draws a generator config from; every other generator
/// setting keeps its tgff default.
struct ConfigRange {
  int modes_min, modes_max;
  int tasks_min_lo, tasks_min_hi;  ///< tasks_per_mode_min
  int tasks_span_lo, tasks_span_hi;  ///< tasks_per_mode_max - min
  int pes_min, pes_max;
  int cls_min, cls_max;
};

// synth_nodvs: one small software-only draw (see draw_config), cheaper
// than the median mul instance, so the fixed suite dominates synth_s
// whatever the seed.
constexpr ConfigRange kNodvsDraw{2, 3, 6, 8, 2, 4, 2, 3, 1, 2};
// synth_dvs_4t: one draw larger than any mul (mul3/mul10 have 5 modes of
// up to 32 tasks).
constexpr ConfigRange kLargeDraw{5, 6, 20, 24, 14, 16, 4, 4, 2, 3};
constexpr int kNodvsDraws = 1;
constexpr int kLargeDraws = 1;
/// Generation cap of the seeded draws, below the GA's stagnation limit
/// (70): a draw always runs exactly this many generations, so its cost
/// follows its size rather than how soon its search happens to converge.
constexpr int kDrawGenerations = 60;

GeneratorConfig draw_config(Draw& draw, const ConfigRange& range,
                            bool software_only = false) {
  GeneratorConfig config;
  if (software_only) {
    // Without hardware candidates and with a fixed dominant-mode
    // probability, a small draw's optimised power varies little across
    // seeds (sd of log power ~0.15 instead of ~1.3), so it does not swing
    // the workload's geometric-mean power.
    config.hw_support_probability = 0.0;
    config.dominant_probability_min = config.dominant_probability_max = 0.7;
  }
  config.seed = draw.next();
  config.mode_count_min = config.mode_count_max =
      draw.uniform_int(range.modes_min, range.modes_max);
  config.tasks_per_mode_min =
      draw.uniform_int(range.tasks_min_lo, range.tasks_min_hi);
  config.tasks_per_mode_max =
      config.tasks_per_mode_min +
      draw.uniform_int(range.tasks_span_lo, range.tasks_span_hi);
  config.pe_count_min = config.pe_count_max =
      draw.uniform_int(range.pes_min, range.pes_max);
  config.cl_count_min = config.cl_count_max =
      draw.uniform_int(range.cls_min, range.cls_max);
  return config;
}

/// A user's default synthesis run (synthesize_file defaults).
JobOptions user_job(bool dvs, int threads) {
  JobOptions job;
  job.dvs_backend = dvs ? "pv-dvs" : "none";
  job.threads = threads;
  return job;
}

template <typename Fn>
System timed(Fn&& build, SetupTimes& times) {
  const Clock::time_point t0 = Clock::now();
  System system = build();
  times.generate += seconds_between(t0, Clock::now());
  return system;
}

System timed_generate(const GeneratorConfig& config, const std::string& name,
                      SetupTimes& times) {
  return timed([&] { return mmsyn::generate_system(config, name); }, times);
}

}  // namespace

Instance materialize(std::string name, const System& generated,
                     JobOptions job, SetupTimes& times) {
  const Clock::time_point t0 = Clock::now();
  std::string text = mmsyn::system_to_string(generated);
  const Clock::time_point t1 = Clock::now();
  System system = mmsyn::system_from_string(text);
  const std::vector<std::string> problems = system.validate();
  const Clock::time_point t2 = Clock::now();
  if (!problems.empty())
    throw std::runtime_error("generated instance " + name +
                             " is invalid: " + problems.front());
  times.serialize += seconds_between(t0, t1);
  times.parse += seconds_between(t1, t2);
  times.input_kb += static_cast<double>(text.size()) / 1024.0;
  return Instance{std::move(name), std::move(text),
                  std::make_shared<const System>(std::move(system)),
                  std::move(job)};
}

std::vector<Instance> make_synth_instances(const std::string& workload,
                                           std::uint64_t seed,
                                           SetupTimes& times) {
  Draw draw(seed ^ 0x5e7'5eedull);
  std::vector<Instance> out;
  auto add = [&](const std::string& name, const System& system,
                 const JobOptions& job) {
    out.push_back(materialize(name, system, job, times));
  };

  if (workload == "synth_nodvs") {
    const JobOptions job = user_job(/*dvs=*/false, /*threads=*/1);
    add("smart-phone", timed(mmsyn::make_smart_phone, times), job);
    for (int i = 1; i <= mmsyn::mul_count(); ++i)
      add("mul" + std::to_string(i),
          timed([i] { return mmsyn::make_mul(i); }, times), job);
    JobOptions draw_job = job;
    draw_job.generations = kDrawGenerations;
    for (int k = 0; k < kNodvsDraws; ++k) {
      const std::string name = "gen" + std::to_string(k);
      add(name,
          timed_generate(draw_config(draw, kNodvsDraw, /*software_only=*/true),
                         name, times),
          draw_job);
    }
  } else if (workload == "synth_dvs_4t") {
    const JobOptions job = user_job(/*dvs=*/true, /*threads=*/4);
    add("smart-phone", timed(mmsyn::make_smart_phone, times), job);
    for (int i = 1; i <= mmsyn::mul_count(); ++i)
      add("mul" + std::to_string(i),
          timed([i] { return mmsyn::make_mul(i); }, times), job);
    JobOptions draw_job = job;
    draw_job.generations = kDrawGenerations;
    for (int k = 0; k < kLargeDraws; ++k) {
      const std::string name = "large" + std::to_string(k);
      add(name, timed_generate(draw_config(draw, kLargeDraw), name, times),
          draw_job);
    }
  } else {
    throw std::invalid_argument("no closed-loop workload named " + workload);
  }
  return out;
}

}  // namespace perfbench
