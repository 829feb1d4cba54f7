#include "core/cosynth.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/run_control.hpp"
#include "model/io.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

SynthesisOptions small(std::uint64_t seed) {
  SynthesisOptions options;
  options.ga.population_size = 24;
  options.ga.max_generations = 60;
  options.ga.stagnation_limit = 20;
  options.seed = seed;
  return options;
}

TEST(Cosynth, MemoisationDoesNotChangeResults) {
  const System system = make_mul(9);
  SynthesisOptions with = small(6);
  with.ga.memoize_evaluations = true;
  SynthesisOptions without = small(6);
  without.ga.memoize_evaluations = false;
  const SynthesisResult a = synthesize(system, with);
  const SynthesisResult b = synthesize(system, without);
  EXPECT_DOUBLE_EQ(a.evaluation.avg_power_true,
                   b.evaluation.avg_power_true);
  EXPECT_EQ(a.fitness, b.fitness);
  // Memoisation strictly reduces the number of inner-loop evaluations.
  EXPECT_LE(a.evaluations, b.evaluations);
}

TEST(Cosynth, SchedulingPolicyIsPlumbedThrough) {
  const System system = make_mul(9);
  for (SchedulingPolicy policy :
       {SchedulingPolicy::kBottomLevel, SchedulingPolicy::kTopoOrder,
        SchedulingPolicy::kLongestTask}) {
    SynthesisOptions options = small(7);
    options.scheduling_policy = policy;
    const SynthesisResult result = synthesize(system, options);
    EXPECT_TRUE(result.evaluation.feasible());
    EXPECT_GT(result.evaluation.avg_power_true, 0.0);
  }
}

TEST(Cosynth, FinalEvaluationKeepsSchedules) {
  const System system = make_mul(11);
  const SynthesisResult result = synthesize(system, small(8));
  for (const ModeEvaluation& m : result.evaluation.modes)
    EXPECT_TRUE(m.schedule.has_value());
}

TEST(Cosynth, BaselineUsesUniformWeightsOnlyInObjective) {
  // The probability-neglecting run must still *report* with the true Ψ:
  // its avg_power_weighted (uniform) and avg_power_true (Ψ) differ unless
  // the mode powers are equal.
  const System system = make_mul(6);
  SynthesisOptions options = small(9);
  options.consider_probabilities = false;
  const SynthesisResult result = synthesize(system, options);
  // Reported power is the Ψ-weighted combination of per-mode powers.
  double expected = 0.0;
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m)
    expected += (result.evaluation.modes[m].dyn_power +
                 result.evaluation.modes[m].static_power) *
                system.omsm.mode(ModeId{static_cast<int>(m)}).probability;
  EXPECT_NEAR(result.evaluation.avg_power_true, expected, 1e-12);
}

TEST(Cosynth, DvsInLoopCoarsenessDoesNotAffectFinalReportingConfig) {
  // The reported evaluation always uses the fine DVS settings, so making
  // the in-loop settings coarser can change *which* mapping wins but the
  // reported number is always a fine evaluation of that mapping.
  const System system = make_mul(9);
  SynthesisOptions options = small(10);
  options.use_dvs = true;
  options.dvs_in_loop.max_iterations_per_node = 2;  // very coarse
  const SynthesisResult result = synthesize(system, options);
  // Re-evaluate the returned mapping with the fine settings: identical.
  EvaluationOptions fine;
  fine.use_dvs = true;
  fine.dvs = options.dvs_final;
  const Evaluator evaluator(system, fine);
  const Evaluation check = evaluator.evaluate(result.mapping, result.cores);
  EXPECT_NEAR(check.avg_power_true, result.evaluation.avg_power_true, 1e-12);
}

TEST(Cosynth, CompletedRunHasNoStopReason) {
  const System system = make_mul(6);
  const SynthesisResult result = synthesize(system, small(3));
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kNone);
}

TEST(Cosynth, BudgetExhaustionIsTypedRecoverableOutcome) {
  // An expired wall-clock budget is not a generic "cancelled": service
  // layers need to distinguish "the job used up its budget, here is the
  // partial fine-DVS result" from an external cancellation.
  const System system = make_mul(9);
  SynthesisOptions options = small(4);
  options.ga.max_generations = 1'000'000;
  options.ga.stagnation_limit = 1'000'000;
  RunControl control;
  control.time_budget_seconds = 1e-9;  // expires at the first boundary
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kBudgetExhausted);
  // The partial result still carries a priced best-so-far evaluation.
  EXPECT_GT(result.evaluation.avg_power_true, 0.0);
}

TEST(Cosynth, CancellationIsTypedSeparatelyFromBudget) {
  const System system = make_mul(9);
  SynthesisOptions options = small(4);
  options.ga.max_generations = 1'000'000;
  options.ga.stagnation_limit = 1'000'000;
  RunControl control;
  control.request_cancel();
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

TEST(Cosynth, BudgetTakesPrecedenceOverConcurrentCancel) {
  // When both stop conditions hold at the same generation boundary the
  // typed reason is budget exhaustion — the recoverable outcome — so a
  // watchdog cancel racing the budget check cannot mask it.
  const System system = make_mul(9);
  SynthesisOptions options = small(4);
  options.ga.max_generations = 1'000'000;
  options.ga.stagnation_limit = 1'000'000;
  RunControl control;
  control.time_budget_seconds = 1e-9;
  control.request_cancel();
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kBudgetExhausted);
}

TEST(Cosynth, UnvalidatedParsedSystemIsSafeAcrossThreads) {
  // Regression: TaskGraph builds its adjacency caches lazily, so a parsed
  // System that never went through validate() had its graphs finalized
  // by the first concurrent evaluations — a data race. synthesize() now
  // finalizes every mode graph before any worker starts (tools/ci.sh
  // runs this test under ThreadSanitizer).
  const std::string text = system_to_string(make_mul(8));
  SynthesisOptions options = small(3);
  options.ga.num_threads = 4;
  const System parsed = system_from_string(text);
  const SynthesisResult parallel = synthesize(parsed, options);
  options.ga.num_threads = 1;
  const System reference = system_from_string(text);
  const SynthesisResult serial = synthesize(reference, options);
  EXPECT_EQ(parallel.fitness, serial.fitness);
  EXPECT_EQ(parallel.evaluation.avg_power_true,
            serial.evaluation.avg_power_true);
}

TEST(Cosynth, CyclicModeGraphIsTypedError) {
  System system = make_mul(3);
  TaskGraph& graph = system.omsm.mode(ModeId{0}).graph;
  ASSERT_GT(graph.edge_count(), 0u);
  const TaskEdge edge = graph.edge(EdgeId{0});
  graph.add_edge(edge.dst, edge.src, 0.0);  // closes a two-task cycle
  EXPECT_THROW((void)synthesize(system, small(1)), std::invalid_argument);
}

TEST(Cosynth, UndersizedPopulationIsTypedError) {
  // The breeding loop needs one slot beyond the elite_count = 2 elites;
  // smaller populations used to be undefined behaviour (a segfault).
  const System system = make_mul(3);
  SynthesisOptions options = small(1);
  for (const int population : {0, 1, 2}) {
    SCOPED_TRACE("population " + std::to_string(population));
    options.ga.population_size = population;
    try {
      (void)synthesize(system, options);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--population=" + std::to_string(population)),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("elite_count=2"), std::string::npos) << msg;
    }
  }
  options.ga.population_size = 3;
  EXPECT_NO_THROW((void)synthesize(system, options));
}

}  // namespace
}  // namespace mmsyn
