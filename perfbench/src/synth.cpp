#include "synth.hpp"

#include <memory>

#include "audit/auditor.hpp"
#include "core/ga.hpp"
#include "energy/evaluator.hpp"
#include "pipeline/profile.hpp"

namespace perfbench {
namespace {

using namespace mmsyn;

/// The evaluator options synthesize() builds for its loop (coarse DVS,
/// no schedules kept) and final (fine DVS, schedules kept) evaluators.
EvaluationOptions evaluation_options(const System& system,
                                     const SynthesisOptions& options,
                                     bool final_eval,
                                     PipelineProfiler* profiler) {
  EvaluationOptions eval;
  eval.use_dvs = options.use_dvs;
  eval.dvs = final_eval ? options.dvs_final : options.dvs_in_loop;
  eval.keep_schedules = final_eval;
  eval.scheduling_policy = options.scheduling_policy;
  eval.profiler = profiler;
  eval.power = options.power;
  if (!options.consider_probabilities)
    eval.weight_override.assign(system.omsm.mode_count(), 1.0);
  return eval;
}

void audit_into(const Instance& instance, const SynthesisOptions& options,
                const SynthesisResult& result, SynthesisRun& run) {
  const AuditReport audit =
      audit_result(*instance.system, result, audit_options_for(options));
  run.audit_violations = static_cast<int>(audit.violations.size());
  run.power_mw = result.evaluation.avg_power_true * 1e3;
  run.feasible = result.evaluation.feasible();
}

struct StageName {
  PipelineStage stage;
  const char* metric;
};

constexpr StageName kStages[] = {
    {PipelineStage::kCommMapping, "pipeline.comm_mapping"},
    {PipelineStage::kSchedule, "pipeline.schedule"},
    {PipelineStage::kSerialize, "pipeline.serialize"},
    {PipelineStage::kScale, "pipeline.scale"},
    {PipelineStage::kFinalize, "pipeline.finalize"},
};

double pipeline_seconds(const PipelineProfiler& profiler) {
  double total = 0.0;
  for (const StageName& s : kStages) total += profiler.stats(s.stage).seconds;
  return total;
}

}  // namespace

SynthesisRun run_untraced(const Instance& instance) {
  const SynthesisOptions options = synthesis_options(instance.job);
  SynthesisRun run;
  const Clock::time_point t0 = Clock::now();
  const SynthesisResult result = synthesize(*instance.system, options);
  audit_into(instance, options, result, run);
  run.report = implementation_report(*instance.system, result,
                                     report_options(instance.job));
  run.seconds = seconds_between(t0, Clock::now());
  return run;
}

SynthesisRun run_traced(const Instance& instance, Trace& trace,
                        std::uint64_t id, Layers& layers) {
  const SynthesisOptions options = synthesis_options(instance.job);
  const System& system = *instance.system;
  PipelineProfiler loop_profiler;
  PipelineProfiler final_profiler;
  SynthesisRun run;

  const Clock::time_point t0 = Clock::now();
  const int root = trace.begin("instance", id);
  auto timed = [&](const char* name, auto&& fn) {
    const int span = trace.begin(name, id, root);
    fn();
    trace.end(span);
    layers[std::string(name) + "_s"] += trace.duration(span);
  };

  std::unique_ptr<Evaluator> loop_evaluator;
  std::unique_ptr<MappingGa> ga;
  timed("core.ga.construct", [&] {
    loop_evaluator = std::make_unique<Evaluator>(
        system, evaluation_options(system, options, false, &loop_profiler));
    ga = std::make_unique<MappingGa>(system, *loop_evaluator, options.fitness,
                                     options.allocation, options.ga,
                                     options.seed);
  });
  MappingGa::LoopState state;
  timed("core.ga.start", [&] { ga->start_loop(state); });
  for (bool more = true; more;)
    timed("core.ga.step", [&] { more = ga->step_generation(state); });
  timed("core.polish", [&] { ga->finish_loop(state); });
  SynthesisResult result;
  timed("core.ga.harvest", [&] { result = ga->harvest(state); });
  timed("energy.final_eval", [&] {
    const Evaluator final_evaluator(
        system, evaluation_options(system, options, true, &final_profiler));
    ModeEvalCache* cache =
        options.ga.memoize_mode_evaluations ? &ga->mode_cache() : nullptr;
    result.evaluation =
        final_evaluator.evaluate(result.mapping, result.cores, cache);
    if (cache != nullptr) {
      result.schedule_cache_hits = cache->schedule_hits();
      result.schedule_cache_lookups = cache->schedule_lookups();
    }
  });

  timed("audit.replay", [&] { audit_into(instance, options, result, run); });
  timed("core.report", [&] {
    run.report =
        implementation_report(system, result, report_options(instance.job));
  });
  trace.end(root);
  run.seconds = seconds_between(t0, Clock::now());

  layers["instance_s"] += trace.duration(root);
  layers["covered_s"] += trace.child_cover(root);
  layers["core.ga.generations"] += result.generations;
  layers["core.ga.evaluations"] += static_cast<double>(result.evaluations);
  layers["memo.hits"] += static_cast<double>(result.cache_hits);
  layers["memo.lookups"] += static_cast<double>(result.cache_lookups);
  layers["mode.hits"] += static_cast<double>(result.mode_cache_hits);
  layers["mode.lookups"] += static_cast<double>(result.mode_cache_lookups);
  layers["sched.hits"] += static_cast<double>(result.schedule_cache_hits);
  layers["sched.lookups"] += static_cast<double>(result.schedule_cache_lookups);
  const ModeEvalCache& cache = ga->mode_cache();
  layers["energy.mode_cache_entries"] += static_cast<double>(cache.size());
  layers["energy.mode_cache_capacity"] += static_cast<double>(cache.capacity());
  layers["energy.quarantined"] +=
      static_cast<double>(cache.quarantined() + cache.schedule_quarantined());
  layers["audit.violations"] += run.audit_violations;
  for (const StageName& s : kStages) {
    const PipelineProfiler::StageStats stats = loop_profiler.stats(s.stage);
    layers[std::string(s.metric) + "_s"] += stats.seconds;
    layers[std::string(s.metric) + ".calls"] +=
        static_cast<double>(stats.calls);
  }
  layers["loop_pipeline_s"] += pipeline_seconds(loop_profiler);
  layers["pipeline.final_s"] += pipeline_seconds(final_profiler);
  return run;
}

}  // namespace perfbench
