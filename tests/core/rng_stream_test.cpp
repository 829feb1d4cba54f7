// GA-level random-stream stability (DESIGN.md §12): the counter-based
// engine yields bit-identical populations and results for any thread
// count, and a checkpointed stream resumes onto the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/cosynth.hpp"
#include "core/report.hpp"
#include "core/run_control.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

GaOptions fast_ga() {
  GaOptions options;
  options.population_size = 24;
  options.max_generations = 30;
  options.stagnation_limit = 12;
  return options;
}

void expect_results_identical(const SynthesisResult& a,
                              const SynthesisResult& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.evaluation.avg_power_true, b.evaluation.avg_power_true);
  ASSERT_EQ(a.mapping.modes.size(), b.mapping.modes.size());
  for (std::size_t m = 0; m < a.mapping.modes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    EXPECT_EQ(a.mapping.modes[m].task_to_pe, b.mapping.modes[m].task_to_pe);
  }
}

// The headline counter-engine property: the whole GA trajectory — not
// just the final fitness — is a pure function of the seed, so runs under
// 1, 4 and 16 evaluation threads match bit for bit.
TEST(RngStreams, ThreefryTrajectoryIdenticalAcrossThreadCounts) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 21;

  options.ga.num_threads = 1;
  const SynthesisResult one = synthesize(system, options);
  options.ga.num_threads = 4;
  const SynthesisResult four = synthesize(system, options);
  options.ga.num_threads = 16;
  const SynthesisResult sixteen = synthesize(system, options);

  expect_results_identical(one, four);
  expect_results_identical(one, sixteen);
}

// The stream is part of the checkpoint: resuming the newest periodic
// checkpoint lands on the uninterrupted result.
TEST(RngStreams, ResumedStreamMatchesUninterruptedRun) {
  const System system = make_mul(4);
  const std::string path =
      std::string(::testing::TempDir()) + "mmsyn_rng_engine.ckpt";
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 5;

  RunControl writer;
  writer.checkpoint_path = path;
  writer.checkpoint_every_generations = 2;
  (void)synthesize(system, options, &writer);

  RunControl resumer;
  resumer.resume_path = path;
  const SynthesisResult resumed = synthesize(system, options, &resumer);
  const SynthesisResult full = synthesize(system, options);
  expect_results_identical(resumed, full);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mmsyn
