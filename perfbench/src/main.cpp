// Whole-run benchmark of the mmsyn co-synthesis flow and its job server.
//
//   perfbench --workload synth_nodvs|synth_dvs_4t --seed N --seconds S
//             --trace 0|1 [--run-dir DIR]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 replays
// the same work with spans around every layer, sends it through an
// in-process job server, and prints the per-layer split. Every synthesis
// is audited and every report is compared byte for byte against its
// reference; any failure makes the run incorrect and the exit code
// nonzero. The last stdout line is one JSON object.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "instances.hpp"
#include "serve.hpp"
#include "synth.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Closed loop: at least this many passes over the instance set.
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir = ".bench_build/run";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "synth_nodvs|synth_dvs_4t --seed N --seconds S --trace 0|1 "
               "[--run-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-')
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) usage("--seconds must be 1..3600");
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "synth_nodvs" && args.workload != "synth_dvs_4t")
    usage("unknown workload '" + args.workload + "'");
  return args;
}

/// Everything one run reports, whatever the workload.
struct Run {
  Args args;
  Tally tally;
  Metrics metrics;
  std::unique_ptr<Trace> trace;
  std::vector<std::string> reports;  // reference reports, in input order
};

/// Checks one synthesis against its audit and, when given, its reference
/// report. A synthesis with several problems counts as one failure.
void check_run(Run& run, const std::string& name, const SynthesisRun& result,
               const std::string* reference, const char* against) {
  std::string problems;
  if (result.audit_violations > 0)
    problems += std::to_string(result.audit_violations) + " audit violations";
  if (reference != nullptr && result.report != *reference)
    problems += std::string(problems.empty() ? "" : "; ") +
                "report differs from the " + against;
  if (!problems.empty()) run.tally.fail(name + ": " + problems);
  if (!result.feasible) ++run.tally.infeasible;
  ++run.tally.syntheses;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of the traced synthesis replays. `passes` holds one
/// Layers per traced pass; each metric is the median over passes.
void record_layers(Run& run, const std::vector<Layers>& passes) {
  auto layer = [&](const std::string& key) {
    std::vector<double> values;
    for (const Layers& l : passes) {
      const auto it = l.find(key);
      values.push_back(it == l.end() ? 0.0 : it->second);
    }
    return median(values);
  };
  Metrics& m = run.metrics;
  const double loop_s = layer("core.ga.start_s") + layer("core.ga.step_s") +
                        layer("core.polish_s") + layer("core.ga.harvest_s");
  m.set("core.ga.construct_s", layer("core.ga.construct_s"), "s");
  m.set("core.ga.start_s", layer("core.ga.start_s"), "s");
  m.set("core.ga.step_s", layer("core.ga.step_s"), "s");
  m.set("core.ga.harvest_s", layer("core.ga.harvest_s"), "s");
  m.set("core.ga.generations", layer("core.ga.generations"), "count");
  m.set("core.ga.evaluations", layer("core.ga.evaluations"), "count");
  m.set("core.ga.evals_per_s", ratio(layer("core.ga.evaluations"), loop_s),
        "1/s");
  m.set("core.ga.memo_hit_ratio",
        ratio(layer("memo.hits"), layer("memo.lookups")), "ratio");
  m.set("core.ga.outside_pipeline_s", loop_s - layer("loop_pipeline_s"), "s");
  m.set("core.polish_s", layer("core.polish_s"), "s");
  m.set("core.report_s", layer("core.report_s"), "s");
  m.set("energy.final_eval_s", layer("energy.final_eval_s"), "s");
  m.set("energy.mode_cache_hit_ratio",
        ratio(layer("mode.hits"), layer("mode.lookups")), "ratio");
  m.set("energy.mode_cache_entries", layer("energy.mode_cache_entries"),
        "count");
  m.set("energy.schedule_store_hit_ratio",
        ratio(layer("sched.hits"), layer("sched.lookups")), "ratio");
  m.set("energy.quarantined", layer("energy.quarantined"), "count");
  for (const char* stage :
       {"comm_mapping", "schedule", "serialize", "scale", "finalize"}) {
    const std::string base = std::string("pipeline.") + stage;
    m.set(base + "_s", layer(base + "_s"), "s");
    m.set(base + ".calls", layer(base + ".calls"), "count");
  }
  m.set("pipeline.final_s", layer("pipeline.final_s"), "s");
  m.set("audit.replay_s", layer("audit.replay_s"), "s");
  m.set("audit.violations", layer("audit.violations"), "count");
  m.set("trace.unaccounted_frac",
        1.0 - ratio(layer("covered_s"), layer("instance_s")), "ratio");
  std::printf(
      "layer bases: memo %.0f/%.0f, mode cache %.0f/%.0f, schedule store "
      "%.0f/%.0f, mode-cache entries %.0f of capacity %.0f\n",
      layer("memo.hits"), layer("memo.lookups"), layer("mode.hits"),
      layer("mode.lookups"), layer("sched.hits"), layer("sched.lookups"),
      layer("energy.mode_cache_entries"), layer("energy.mode_cache_capacity"));
}

/// Server-layer metrics from the outside: the records of the server leg
/// and the server's final counters.
void record_server_layers(Run& run, const std::vector<JobRecord>& records,
                          std::uint64_t queue_depth_max,
                          const mmsyn::StatsReply& stats, double start_s) {
  std::vector<double> ack, hit, miss;
  for (const JobRecord& r : records) {
    ack.push_back(r.acked - r.sent);
    if (r.ok) (r.cached ? hit : miss).push_back(r.done - r.sent);
  }
  const double ack_pct = tail_percentile(ack.size());
  Metrics& m = run.metrics;
  m.set("server.start_s", start_s, "s");
  m.set("server.ack_p50_ms", median(ack) * 1e3, "ms");
  m.set("server.ack_tail_ms", percentile(ack, ack_pct) * 1e3, "ms");
  m.set("server.hit_job_ms", median(hit) * 1e3, "ms");
  m.set("server.miss_job_s", median(miss), "s");
  m.set("server.cache_hit_ratio",
        ratio(static_cast<double>(stats.cache_hits),
              static_cast<double>(stats.cache_lookups)),
        "ratio");
  m.set("server.queue_depth_max", static_cast<double>(queue_depth_max),
        "count");
  m.set("server.rejections", static_cast<double>(stats.queue_full_rejections),
        "count");
  m.set("server.retries", static_cast<double>(stats.retries), "count");
  m.set("server.watchdog_cancels", static_cast<double>(stats.watchdog_cancels),
        "count");
  std::printf(
      "server: %zu jobs (%zu hits, %zu misses); ack tail is p%.0f of %zu "
      "samples; cache %" PRIu64 "/%" PRIu64 "\n",
      records.size(), hit.size(), miss.size(), ack_pct, ack.size(),
      stats.cache_hits, stats.cache_lookups);
}

/// Compares served reports with the in-process references; a refused or
/// lost job is a failure too.
void check_served(Run& run, const std::vector<JobRecord>& records,
                  const std::vector<Instance>& instances) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    ++run.tally.attempted;
    const JobRecord& r = records[i];
    const std::string job = "job " + std::to_string(i) + " (" +
                            instances[i % instances.size()].name + ")";
    if (!r.ok) {
      run.tally.fail(job + ": " + r.error);
    } else if (r.report != run.reports[i % instances.size()]) {
      run.tally.fail(job + ": served report differs from in-process synthesis");
    }
  }
}

/// Set-up: generate, serialize, parse and validate the instance set, as
/// the benchmark does before its window opens. Each call is one set-up
/// sample, added to `samples`.
std::vector<Instance> set_up(const Args& args,
                             std::vector<SetupTimes>& samples) {
  SetupTimes times;
  const Clock::time_point t0 = Clock::now();
  std::vector<Instance> instances =
      make_synth_instances(args.workload, args.seed, times);
  times.total = seconds_between(t0, Clock::now());
  samples.push_back(times);
  return instances;
}

/// setup_s, or the set-up layers in a traced run. `samples` holds the
/// set-ups of each untraced pass. setup_s is the median over passes of
/// each pass's best set-up: a shared machine's speed can switch between
/// regimes up to twice apart for seconds at a time, so the samples are
/// spread over the window and a slow stretch moves only its passes.
void record_setup(Run& run,
                  const std::vector<std::vector<SetupTimes>>& samples) {
  std::vector<double> pass_best, generate, serialize, parse;
  std::size_t count = 0;
  for (const std::vector<SetupTimes>& pass : samples) {
    double best = pass.front().total;
    for (const SetupTimes& t : pass) {
      best = std::min(best, t.total);
      generate.push_back(t.generate);
      serialize.push_back(t.serialize);
      parse.push_back(t.parse);
    }
    pass_best.push_back(best);
    count += pass.size();
  }
  std::printf("set-up: %zu samples over %zu passes, per-pass best %.6f .. "
              "%.6f s\n",
              count, pass_best.size(),
              *std::min_element(pass_best.begin(), pass_best.end()),
              *std::max_element(pass_best.begin(), pass_best.end()));
  if (!run.args.trace) {
    run.metrics.set("setup_s", median(pass_best), "s");
    return;
  }
  run.metrics.set("tgff.generate_s", median(generate), "s");
  run.metrics.set("model.serialize_s", median(serialize), "s");
  run.metrics.set("model.parse_s", median(parse), "s");
  run.metrics.set("model.input_kb", samples.front().front().input_kb, "KB");
}

void run_closed_loop(Run& run) {
  const Args& args = run.args;
  std::vector<std::vector<SetupTimes>> setups(1);
  const std::vector<Instance> instances = set_up(args, setups.back());

  // Passes over the instance set until the window closes. Traced runs
  // alternate untraced and traced passes so both see the same machine.
  const std::size_t n = instances.size();
  std::vector<std::vector<double>> latency(n);
  std::vector<double> power(n, 0.0);
  std::vector<double> untraced_pass_s, traced_pass_s;
  std::vector<Layers> traced_layers;
  run.reports.assign(n, std::string());
  const int min_passes = args.trace ? 2 : kMinPasses;
  const Clock::time_point window = Clock::now();
  for (int pass = 0;
       pass < min_passes ||
       seconds_between(window, Clock::now()) < args.seconds;
       ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    Layers layers;
    double pass_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ++run.tally.attempted;
      const double pipeline_before = layers["loop_pipeline_s"];
      SynthesisRun result;
      try {
        result = traced ? run_traced(instances[i], *run.trace, i, layers)
                        : run_untraced(instances[i]);
        pass_s += result.seconds;
        if (traced && traced_pass_s.empty())
          std::printf("traced split: %-12s wall %.3f s, loop pipeline %.3f s\n",
                      instances[i].name.c_str(), result.seconds,
                      layers["loop_pipeline_s"] - pipeline_before);
        if (run.reports[i].empty()) {
          run.reports[i] = result.report;
          power[i] = result.power_mw;
          check_run(run, instances[i].name, result, nullptr, "");
        } else {
          check_run(run, instances[i].name, result, &run.reports[i],
                    traced ? "untraced run" : "first run");
        }
        if (!traced) latency[i].push_back(result.seconds);
      } catch (const std::exception& e) {
        run.tally.fail(instances[i].name + ": threw " + e.what());
      }
      // A set-up sample after each instance of an untraced pass; the same
      // seed must give the same inputs.
      if (!traced) {
        if (setups.size() < untraced_pass_s.size() + 1) setups.emplace_back();
        ++run.tally.attempted;
        const std::vector<Instance> again = set_up(args, setups.back());
        for (std::size_t j = 0; j < n; ++j) {
          if (again[j].text != instances[j].text) {
            run.tally.fail(instances[j].name + ": set-up is not deterministic");
            break;
          }
        }
      }
    }
    (traced ? traced_pass_s : untraced_pass_s).push_back(pass_s);
    if (traced) traced_layers.push_back(std::move(layers));
  }
  std::printf("passes: %zu untraced, %zu traced, over %zu instances; "
              "untraced pass times",
              untraced_pass_s.size(), traced_pass_s.size(), n);
  for (double t : untraced_pass_s) std::printf(" %.3f", t);
  std::printf(" s\n");
  record_setup(run, setups);

  if (!args.trace) {
    // Each instance's latency is its best run: a shared machine's speed can
    // drift by a quarter over tens of seconds, and the best of a run's
    // samples tracks the unloaded machine where a median tracks the drift.
    // An instance that never completed is a failure already and is left out.
    double synth_s = 0.0;
    std::vector<double> powers;
    for (std::size_t i = 0; i < n; ++i) {
      if (latency[i].empty()) continue;
      const double best =
          *std::min_element(latency[i].begin(), latency[i].end());
      std::printf("instance %-12s best %.4f s, median %.4f s of %zu runs\n",
                  instances[i].name.c_str(), best, median(latency[i]),
                  latency[i].size());
      synth_s += best;
      powers.push_back(power[i]);
    }
    run.metrics.set("synth_s", synth_s, "s");
    run.metrics.set("avg_power_mw", geomean(powers), "mW");
    return;
  }

  record_layers(run, traced_layers);
  // The first pass also warms the allocator; leave it out of the overhead
  // when later untraced passes exist.
  if (untraced_pass_s.size() > 1)
    untraced_pass_s.erase(untraced_pass_s.begin());
  run.metrics.set("trace.overhead_frac",
                  ratio(median(traced_pass_s), median(untraced_pass_s)) - 1.0,
                  "ratio");

  // Server leg: the same instances through an in-process JobServer, once
  // new and once resubmitted (a cache hit), reports compared byte-wise.
  const int workers = instances.front().job.threads == 1 ? 2 : 1;
  ServeSession session(args.run_dir, workers);
  const Clock::time_point t0 = Clock::now();
  session.start();
  const double start_s = seconds_between(t0, Clock::now());
  const int leg = run.trace->begin("server.leg", 0);
  std::uint64_t queue_depth_max = 0;
  std::vector<JobRecord> records =
      session.run(instances, queue_depth_max, run.trace.get(), leg);
  std::vector<JobRecord> again =
      session.run(instances, queue_depth_max, run.trace.get(), leg);
  records.insert(records.end(), again.begin(), again.end());
  run.trace->end(leg);
  const mmsyn::StatsReply stats = session.stats();
  session.stop();
  check_served(run, records, instances);
  record_server_layers(run, records, queue_depth_max, stats, start_s);
}

int main_impl(int argc, char** argv) {
  Run run;
  run.args = parse_args(argc, argv);
  const Args& args = run.args;
  std::filesystem::create_directories(args.run_dir);
  if (args.trace) run.trace = std::make_unique<Trace>(Clock::now());
  std::printf("perfbench workload=%s seed=%" PRIu64
              " seconds=%.0f trace=%d nproc=%u compiler=g++ %s\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              __VERSION__);

  run_closed_loop(run);

  Metrics& m = run.metrics;
  const double frac_failed = ratio(static_cast<double>(run.tally.failed),
                                   static_cast<double>(run.tally.attempted));
  const double frac_infeasible =
      ratio(static_cast<double>(run.tally.infeasible),
            static_cast<double>(run.tally.syntheses));
  if (args.trace) {
    m.set("failed_frac", frac_failed, "ratio");
    m.set("infeasible_frac", frac_infeasible, "ratio");
    const std::string path = args.run_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    run.trace->write_json(path);
    std::printf("spans written to %s\n", path.c_str());
  } else {
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("failed_frac %.6f (%ld of %ld), infeasible_frac %.6f\n",
                frac_failed, run.tally.failed, run.tally.attempted,
                frac_infeasible);
  }
  std::printf("report_digest %s %016" PRIx64 " over %zu reports\n",
              args.workload.c_str(), report_digest(run.reports),
              run.reports.size());
  for (const std::string& e : run.tally.errors)
    std::printf("error: %s\n", e.c_str());
  m.print_table();
  std::printf("%s\n", m.json(run.tally).c_str());
  std::fflush(stdout);
  return run.tally.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
