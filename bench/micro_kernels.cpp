// Micro-benchmarks of the synthesis hot path: list scheduling, DVS-graph
// construction, PV-DVS and core allocation, each timed twice — once
// through the frozen pre-rewrite kernels (bench/reference_kernels.*) and
// once through the data-oriented library kernels — on identical inputs.
// The two results are compared before any number is reported, so a
// speedup claim is only ever printed for matching behaviour: list
// scheduling and graph construction must be *bit-identical*, core
// allocation exactly equal over a seeded genome chain on every mul and the
// smart phone; PV-DVS must agree to 1e-6 relative on energies (its
// baseline froze the old bisection voltage solver, which the library
// replaced with an exact closed form — values differ in the low bits, see
// DESIGN.md §12). The speedup ratio is machine-independent (both sides run
// in the same process), which is what the CI perf gate in tools/ci.sh
// tracks via BENCH_micro_kernels.json.
//
// Usage:
//   micro_kernels [--mul N] [--repeats N] [--json PATH] [--min-speedup X]
//
// Exit status is non-zero when any stage output differs bitwise between
// the reference and optimised kernels, or when the combined scheduling+DVS
// speedup falls below --min-speedup. The build_core_allocation row is kept
// out of `combined`, so that baseline keeps meaning scheduling+DVS only.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/reference_kernels.hpp"
#include "core/allocation_builder.hpp"
#include "core/cosynth.hpp"
#include "core/genome.hpp"
#include "dvs/dvs_graph.hpp"
#include "dvs/pv_dvs.hpp"
#include "energy/evaluator.hpp"
#include "sched/list_scheduler.hpp"
#include "tgff/smart_phone.hpp"
#include "tgff/suites.hpp"

namespace {

using namespace mmsyn;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;

bool bits_equal(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

/// Best-of-`repeats` wall time of `fn` in nanoseconds (two warm-up runs).
template <typename Fn>
double time_ns(Fn&& fn, int repeats) {
  fn();
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return best;
}

bool schedules_identical(const ModeSchedule& a, const ModeSchedule& b) {
  if (a.tasks.size() != b.tasks.size() || a.comms.size() != b.comms.size())
    return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const ScheduledTask& x = a.tasks[i];
    const ScheduledTask& y = b.tasks[i];
    if (x.task != y.task || x.pe != y.pe ||
        x.core_instance != y.core_instance || !bits_equal(x.start, y.start) ||
        !bits_equal(x.finish, y.finish))
      return false;
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    const ScheduledComm& x = a.comms[i];
    const ScheduledComm& y = b.comms[i];
    if (x.edge != y.edge || x.cl != y.cl || x.local != y.local ||
        !bits_equal(x.start, y.start) || !bits_equal(x.finish, y.finish))
      return false;
  }
  return bits_equal(a.makespan, b.makespan) && a.routable == b.routable;
}

bool graphs_identical(const DvsGraph& g, const refk::RefDvsGraph& r) {
  if (g.node_count() != r.nodes.size()) return false;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const DvsNode a = g.node(i);
    const DvsNode& b = r.nodes[i];
    if (a.kind != b.kind || a.ref != b.ref || a.pe != b.pe ||
        a.scalable != b.scalable || !bits_equal(a.tmin, b.tmin) ||
        !bits_equal(a.e_nom, b.e_nom) ||
        !bits_equal(a.max_slowdown, b.max_slowdown) ||
        !bits_equal(a.deadline, b.deadline))
      return false;
    const auto ss = g.succs(i);
    const auto ps = g.preds(i);
    if (ss.size() != r.succs[i].size() || ps.size() != r.preds[i].size())
      return false;
    for (std::size_t k = 0; k < ss.size(); ++k)
      if (ss[k] != r.succs[i][k]) return false;
    for (std::size_t k = 0; k < ps.size(); ++k)
      if (ps[k] != r.preds[i][k]) return false;
  }
  if (g.topo.size() != r.topo.size() ||
      g.task_node.size() != r.task_node.size() ||
      g.comm_node.size() != r.comm_node.size())
    return false;
  for (std::size_t i = 0; i < g.topo.size(); ++i)
    if (g.topo[i] != r.topo[i]) return false;
  for (std::size_t i = 0; i < g.task_node.size(); ++i)
    if (g.task_node[i] != r.task_node[i]) return false;
  for (std::size_t i = 0; i < g.comm_node.size(); ++i)
    if (g.comm_node[i] != r.comm_node[i]) return false;
  return true;
}

bool close_rel(double a, double b, double rtol) {
  return std::abs(a - b) <=
         rtol * std::max({std::abs(a), std::abs(b), 1e-30});
}

bool sorted_close(std::vector<double> a, std::vector<double> b, double rtol) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!close_rel(a[i], b[i], rtol)) return false;
  return true;
}

/// PV-DVS parity: nominal energy is solver-independent and must stay
/// bitwise; scaled results must agree to 1e-6 relative (the frozen baseline
/// uses the old bisection voltage solver, the library the closed form).
/// Per-node values are compared as sorted multisets: the ~1e-9 solver delta
/// can flip the greedy's argmax between *identical* tasks in exact-tie
/// states, swapping their (equal) slack shares without changing the set of
/// durations/energies or the total.
bool results_match(const PvDvsResult& a, const PvDvsResult& b) {
  return bits_equal(a.nominal_energy, b.nominal_energy) &&
         a.deadlines_met == b.deadlines_met &&
         close_rel(a.total_energy, b.total_energy, 1e-6) &&
         sorted_close(a.scaled_time, b.scaled_time, 1e-6) &&
         sorted_close(a.voltage, b.voltage, 1e-6) &&
         sorted_close(a.energy, b.energy, 1e-6);
}

/// `steps` mappings of a seeded genome chain: a random genome, then one
/// gene re-drawn per step, so consecutive mappings share most of their
/// (PE, type) groups the way GA offspring do.
std::vector<MultiModeMapping> genome_chain(const System& system,
                                           std::uint64_t seed, int steps) {
  const GenomeCodec codec(system);
  Rng rng(seed);
  Genome genome = codec.random_genome(rng);
  std::vector<MultiModeMapping> chain;
  for (int s = 0; s < steps; ++s) {
    chain.push_back(codec.decode(genome));
    const auto g = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(codec.genome_length()) - 1));
    const std::vector<PeId>& pes = codec.candidates(g);
    codec.set_pe(genome, g,
                 pes[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(pes.size()) - 1))]);
  }
  return chain;
}

/// Exact CoreAllocation equality of the frozen and the library builder
/// over a 64-step genome chain on every mul and on the smart phone. Under
/// the suites' own areas and the default threshold, random mappings never
/// earn an extra core, so each system is also compared with 100x hardware
/// area and a mobility threshold of 1: that reaches the extra-core greedy,
/// the ASIC merge over modes and per-mode FPGA extras.
bool allocations_identical() {
  std::vector<System> systems;
  for (int i = 1; i <= mul_count(); ++i) systems.push_back(make_mul(i));
  systems.push_back(make_smart_phone());
  AllocationOptions stressed;
  stressed.mobility_threshold = 1.0;
  for (System& system : systems) {
    for (int pass = 0; pass < 2; ++pass) {
      const AllocationOptions options = pass == 0 ? AllocationOptions{}
                                                  : stressed;
      for (const MultiModeMapping& mapping : genome_chain(system, 7, 64))
        if (refk::ref_build_core_allocation(system, mapping, options)
                .per_mode !=
            build_core_allocation(system, mapping, options).per_mode)
          return false;
      for (std::size_t p = 0; p < system.arch.pe_count(); ++p)
        system.arch.pe(PeId{static_cast<PeId::value_type>(p)})
            .area_capacity *= 100.0;
    }
  }
  return true;
}

struct StageReport {
  std::string name;
  double ref_ns = 0.0;
  double opt_ns = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return opt_ns > 0.0 ? ref_ns / opt_ns : 0.0;
  }
};

struct Fixture {
  System system;
  MultiModeMapping mapping;
  CoreAllocation cores;
  std::vector<ModeSchedule> schedules;     // per mode, from the library
  std::vector<DvsGraph> graphs;            // per mode
  std::vector<refk::RefDvsGraph> ref_graphs;

  explicit Fixture(int mul_index) : system(make_mul(mul_index)) {
    const GenomeCodec codec(system);
    Rng rng(99);
    mapping = codec.decode(codec.random_genome(rng));
    cores = build_core_allocation(system, mapping);
    for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
      const ListSchedulerInput input{system.omsm.modes()[m], mapping.modes[m],
                                     system.arch, system.tech,
                                     cores.per_mode[m]};
      schedules.push_back(list_schedule(input));
      graphs.push_back(build_dvs_graph(system.omsm.modes()[m], schedules[m],
                                       mapping.modes[m], system.arch,
                                       system.tech));
      ref_graphs.push_back(refk::ref_build_dvs_graph(
          system.omsm.modes()[m], schedules[m], mapping.modes[m], system.arch,
          system.tech));
    }
  }

  [[nodiscard]] ListSchedulerInput input(std::size_t m) const {
    return {system.omsm.modes()[m], mapping.modes[m], system.arch,
            system.tech, cores.per_mode[m]};
  }
};

void print_stage(std::FILE* out, const StageReport& s) {
  std::fprintf(out, "  %-21s ref %10.0f ns   opt %10.0f ns   %5.2fx   %s\n",
               s.name.c_str(), s.ref_ns, s.opt_ns, s.speedup(),
               s.identical ? "match" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  int mul_index = 4;
  int repeats = 30;
  double min_speedup = 0.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--mul") {
      mul_index = std::atoi(next());
    } else if (arg == "--repeats") {
      repeats = std::atoi(next());
    } else if (arg == "--min-speedup") {
      min_speedup = std::atof(next());
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  Fixture f(mul_index);
  const std::size_t mode_count = f.system.omsm.mode_count();
  const std::vector<MultiModeMapping> chain =
      genome_chain(f.system, 99, 16);

  // ---- Identity: every stage, every mode, before any timing. ------------
  bool identity_schedule = true;
  bool identity_graph = true;
  bool identity_pv_dvs = true;
  for (std::size_t m = 0; m < mode_count; ++m) {
    const ListSchedulerInput input = f.input(m);
    const std::vector<double> ref_prio = refk::ref_scheduling_priorities(input);
    const std::vector<double> opt_prio = scheduling_priorities(input);
    const ModeSchedule ref_sched = refk::ref_list_schedule(input, ref_prio);
    identity_schedule = identity_schedule && bits_equal(ref_prio, opt_prio) &&
                        schedules_identical(ref_sched, f.schedules[m]);
    identity_graph =
        identity_graph && graphs_identical(f.graphs[m], f.ref_graphs[m]);
    identity_pv_dvs =
        identity_pv_dvs &&
        results_match(refk::ref_run_pv_dvs(f.ref_graphs[m], f.system.arch),
                      run_pv_dvs(f.graphs[m], f.system.arch));
  }

  // ---- Timings: each thunk sweeps all modes once. -----------------------
  std::vector<StageReport> stages;
  {
    StageReport s{"list_schedule"};
    s.identical = identity_schedule;
    s.ref_ns = time_ns(
        [&] {
          for (std::size_t m = 0; m < mode_count; ++m) {
            const ListSchedulerInput input = f.input(m);
            g_sink = refk::ref_list_schedule(
                         input, refk::ref_scheduling_priorities(input))
                         .makespan;
          }
        },
        repeats);
    s.opt_ns = time_ns(
        [&] {
          for (std::size_t m = 0; m < mode_count; ++m)
            g_sink = list_schedule(f.input(m)).makespan;
        },
        repeats);
    stages.push_back(s);
  }
  {
    StageReport s{"build_dvs_graph"};
    s.identical = identity_graph;
    s.ref_ns = time_ns(
        [&] {
          for (std::size_t m = 0; m < mode_count; ++m)
            g_sink = static_cast<double>(
                refk::ref_build_dvs_graph(f.system.omsm.modes()[m],
                                          f.schedules[m], f.mapping.modes[m],
                                          f.system.arch, f.system.tech)
                    .nodes.size());
        },
        repeats);
    s.opt_ns = time_ns(
        [&] {
          for (std::size_t m = 0; m < mode_count; ++m)
            g_sink = static_cast<double>(
                build_dvs_graph(f.system.omsm.modes()[m], f.schedules[m],
                                f.mapping.modes[m], f.system.arch,
                                f.system.tech)
                    .node_count());
        },
        repeats);
    stages.push_back(s);
  }
  {
    StageReport s{"pv_dvs"};
    s.identical = identity_pv_dvs;
    s.ref_ns = time_ns(
        [&] {
          for (std::size_t m = 0; m < mode_count; ++m)
            g_sink =
                refk::ref_run_pv_dvs(f.ref_graphs[m], f.system.arch)
                    .total_energy;
        },
        repeats);
    s.opt_ns = time_ns(
        [&] {
          for (std::size_t m = 0; m < mode_count; ++m)
            g_sink = run_pv_dvs(f.graphs[m], f.system.arch).total_energy;
        },
        repeats);
    stages.push_back(s);
  }

  // Phase-2a allocation: reported with the stages, kept out of `combined`.
  StageReport alloc{"build_core_allocation"};
  alloc.identical = allocations_identical();
  alloc.ref_ns = time_ns(
      [&] {
        for (const MultiModeMapping& mapping : chain)
          g_sink = static_cast<double>(
              refk::ref_build_core_allocation(f.system, mapping)
                  .per_mode.size());
      },
      repeats);
  alloc.opt_ns = time_ns(
      [&] {
        for (const MultiModeMapping& mapping : chain)
          g_sink = static_cast<double>(
              build_core_allocation(f.system, mapping).per_mode.size());
      },
      repeats);

  // Informational opt-only timings (no pre-rewrite counterpart survives at
  // this granularity; the evaluator exercises every kernel end-to-end).
  double eval_ns = 0.0, eval_dvs_ns = 0.0;
  {
    const Evaluator evaluator(f.system, EvaluationOptions{});
    eval_ns = time_ns(
        [&] { g_sink = evaluator.evaluate(f.mapping, f.cores).avg_power_true; },
        repeats);
    EvaluationOptions dvs_options;
    dvs_options.use_dvs = true;
    const Evaluator dvs_evaluator(f.system, dvs_options);
    eval_dvs_ns = time_ns(
        [&] {
          g_sink = dvs_evaluator.evaluate(f.mapping, f.cores).avg_power_true;
        },
        repeats);
  }

  double combined_ref = 0.0, combined_opt = 0.0;
  bool all_identical = true;
  for (const StageReport& s : stages) {
    combined_ref += s.ref_ns;
    combined_opt += s.opt_ns;
    all_identical = all_identical && s.identical;
  }
  all_identical = all_identical && alloc.identical;
  const double combined_speedup =
      combined_opt > 0.0 ? combined_ref / combined_opt : 0.0;

  std::printf("micro_kernels  fixture mul%d  (%zu modes, best of %d)\n",
              mul_index, mode_count, repeats);
  for (const StageReport& s : stages) print_stage(stdout, s);
  std::printf("  %-21s ref %10.0f ns   opt %10.0f ns   %5.2fx\n", "combined",
              combined_ref, combined_opt, combined_speedup);
  print_stage(stdout, alloc);
  std::printf("  %-21s                  opt %10.0f ns\n", "evaluate", eval_ns);
  std::printf("  %-21s                  opt %10.0f ns\n", "evaluate_dvs",
              eval_dvs_ns);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"micro_kernels\",\n"
        << "  \"fixture\": \"mul" << mul_index << "\",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"stages\": {\n";
    for (const StageReport& s : stages) {
      out << "    \"" << s.name << "\": {\"ref_ns\": " << s.ref_ns
          << ", \"opt_ns\": " << s.opt_ns << ", \"speedup\": " << s.speedup()
          << ", \"identical\": " << (s.identical ? "true" : "false")
          << "},\n";
    }
    out << "    \"" << alloc.name << "\": {\"ref_ns\": " << alloc.ref_ns
        << ", \"opt_ns\": " << alloc.opt_ns
        << ", \"speedup\": " << alloc.speedup() << ", \"identical\": "
        << (alloc.identical ? "true" : "false") << ", \"in_combined\": false"
        << "}\n";
    out << "  },\n"
        << "  \"combined\": {\"ref_ns\": " << combined_ref
        << ", \"opt_ns\": " << combined_opt
        << ", \"speedup\": " << combined_speedup << "},\n"
        << "  \"opt_only_ns\": {\"evaluate_candidate\": " << eval_ns
        << ", \"evaluate_candidate_dvs\": " << eval_dvs_ns << "},\n"
        << "  \"identical\": " << (all_identical ? "true" : "false") << "\n"
        << "}\n";
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: reference and optimised kernels disagree bitwise\n");
    return 1;
  }
  if (min_speedup > 0.0 && combined_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: combined speedup %.2fx below required %.2fx\n",
                 combined_speedup, min_speedup);
    return 1;
  }
  return 0;
}
