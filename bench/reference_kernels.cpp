// Verbatim pre-rewrite kernel implementations. See reference_kernels.hpp.
#include "bench/reference_kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "dvs/voltage_model.hpp"
#include "model/architecture.hpp"
#include "model/system.hpp"
#include "model/omsm.hpp"
#include "model/tech_library.hpp"
#include "sched/timeline.hpp"

namespace mmsyn::refk {
namespace {

constexpr double kUnroutablePenalty = 1e6;  // seconds; flags broken routing

std::vector<double> bottom_levels(const TaskGraph& graph,
                                  const ModeMapping& mapping,
                                  const Architecture& arch,
                                  const TechLibrary& tech) {
  const std::size_t n = graph.task_count();
  std::vector<double> exec(n);
  for (std::size_t t = 0; t < n; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    exec[t] = tech.require(graph.task(id).type, mapping.task_to_pe[t])
                  .exec_time;
  }
  std::vector<double> level(n, 0.0);
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    double tail = 0.0;
    for (EdgeId e : graph.out_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      const PeId src_pe = mapping.task_to_pe[edge.src.index()];
      const PeId dst_pe = mapping.task_to_pe[edge.dst.index()];
      double comm = 0.0;
      if (src_pe != dst_pe) {
        comm = std::numeric_limits<double>::infinity();
        for (ClId cl : arch.links_between(src_pe, dst_pe)) {
          const Cl& link = arch.cl(cl);
          comm = std::min(comm,
                          link.startup_latency + edge.data_bits / link.bandwidth);
        }
        if (!std::isfinite(comm)) comm = kUnroutablePenalty;
      }
      tail = std::max(tail, comm + level[edge.dst.index()]);
    }
    level[u.index()] = exec[u.index()] + tail;
  }
  return level;
}

class PeResources {
 public:
  PeResources(const Pe& pe, const CoreSet& cores, std::size_t type_count)
      : pe_(pe),
        group_offset_(type_count, kNoGroup),
        group_size_(type_count, 0) {
    if (is_software(pe.kind)) {
      timelines_.resize(1);
      return;
    }
    for (const auto& [type, count] : cores.entries()) {
      group_offset_[type.index()] = timelines_.size();
      group_size_[type.index()] = count;
      timelines_.resize(timelines_.size() + static_cast<std::size_t>(count));
    }
  }

  std::pair<double, int> best_slot(TaskTypeId type, double ready,
                                   double duration) {
    if (is_software(pe_.kind)) {
      return {timelines_[0].earliest_fit(ready, duration), 0};
    }
    if (group_offset_[type.index()] == kNoGroup) {
      group_offset_[type.index()] = timelines_.size();
      group_size_[type.index()] = 1;
      timelines_.emplace_back();
    }
    const std::size_t offset = group_offset_[type.index()];
    double best_start = std::numeric_limits<double>::infinity();
    int best_instance = 0;
    const int count = group_size_[type.index()];
    for (int i = 0; i < count; ++i) {
      const double s =
          timelines_[offset + static_cast<std::size_t>(i)].earliest_fit(
              ready, duration);
      if (s < best_start) {
        best_start = s;
        best_instance = i;
      }
    }
    return {best_start, best_instance};
  }

  void reserve(TaskTypeId type, int instance, double start, double duration) {
    if (is_software(pe_.kind)) {
      timelines_[0].reserve(start, duration);
      return;
    }
    const std::size_t idx =
        group_offset_[type.index()] + static_cast<std::size_t>(instance);
    timelines_[idx].reserve(start, duration);
  }

 private:
  static constexpr std::size_t kNoGroup =
      std::numeric_limits<std::size_t>::max();

  const Pe& pe_;
  std::vector<Timeline> timelines_;
  std::vector<std::size_t> group_offset_;
  std::vector<int> group_size_;
};

bool pe_scalable(const Pe& pe) {
  return pe.dvs_enabled && pe.voltage_levels.size() >= 2;
}

double pe_max_slowdown(const Pe& pe) {
  if (!pe_scalable(pe)) return 1.0;
  return VoltageModel(pe.vmax(), pe.threshold_voltage).slowdown(pe.vmin());
}

struct PeSegments {
  struct Segment {
    double start;
    double end;
    int node = -1;
  };
  std::vector<Segment> segments;
  std::vector<int> task_first;
  std::vector<int> task_last;
};

struct NodeModel {
  double vmax = 0.0;
  double vt = 0.0;
  std::vector<double> levels;
};

/// The pre-rewrite inverse delay model: 80-iteration monotone bisection to
/// 1e-9·vmax (the library's VoltageModel now inverts the α=2 law in closed
/// form, which is both tighter and ~10x cheaper — that difference is part
/// of the DVS-stage speedup micro_kernels reports, so the old solver is
/// frozen here with the rest of the baseline).
double ref_voltage_for_slowdown(const VoltageModel& m, double s) {
  if (s <= 1.0) return m.vmax();
  double lo = m.vt() + 1e-9 * (m.vmax() - m.vt());
  double hi = m.vmax();
  if (m.slowdown(lo) < s) return lo;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (m.slowdown(mid) > s) lo = mid;
    else hi = mid;
    if (hi - lo < 1e-9 * m.vmax()) break;
  }
  return 0.5 * (lo + hi);
}

double ref_continuous_energy(double e_nom, double slowdown, double vmax,
                             double vt) {
  if (slowdown <= 1.0) return e_nom;
  const VoltageModel model(vmax, vt);
  const double v = ref_voltage_for_slowdown(model, slowdown);
  return e_nom * model.energy_factor(v);
}

void forward_pass(const RefDvsGraph& g, const std::vector<double>& t,
                  std::vector<double>& ef) {
  for (int u : g.topo) {
    const auto ui = static_cast<std::size_t>(u);
    double start = 0.0;
    for (int p : g.preds[ui])
      start = std::max(start, ef[static_cast<std::size_t>(p)]);
    ef[ui] = start + t[ui];
  }
}

void backward_pass(const RefDvsGraph& g, const std::vector<double>& t,
                   std::vector<double>& lf) {
  for (auto it = g.topo.rbegin(); it != g.topo.rend(); ++it) {
    const auto ui = static_cast<std::size_t>(*it);
    double limit = g.nodes[ui].deadline;
    for (int s : g.succs[ui]) {
      const auto si = static_cast<std::size_t>(s);
      limit = std::min(limit, lf[si] - t[si]);
    }
    lf[ui] = limit;
  }
}

}  // namespace

std::vector<double> ref_scheduling_priorities(const ListSchedulerInput& input) {
  const TaskGraph& graph = input.mode.graph;
  const std::size_t n = graph.task_count();
  std::vector<double> priority;
  switch (input.policy) {
    case SchedulingPolicy::kBottomLevel:
      priority = bottom_levels(graph, input.mapping, input.arch, input.tech);
      break;
    case SchedulingPolicy::kTopoOrder:
      priority.resize(n);
      for (std::size_t t = 0; t < n; ++t)
        priority[t] = -static_cast<double>(t);
      break;
    case SchedulingPolicy::kLongestTask:
      priority.resize(n);
      for (std::size_t t = 0; t < n; ++t) {
        const TaskId id{static_cast<TaskId::value_type>(t)};
        priority[t] =
            input.tech.require(graph.task(id).type, input.mapping.task_to_pe[t])
                .exec_time;
      }
      break;
  }
  return priority;
}

ModeSchedule ref_list_schedule(const ListSchedulerInput& input,
                               const std::vector<double>& priority) {
  const TaskGraph& graph = input.mode.graph;
  const std::size_t n = graph.task_count();
  assert(priority.size() == n);

  ModeSchedule result;
  result.tasks.resize(n);
  result.comms.resize(graph.edge_count());

  std::vector<PeResources> pe_resources;
  pe_resources.reserve(input.arch.pe_count());
  for (PeId p : input.arch.pe_ids())
    pe_resources.emplace_back(input.arch.pe(p), input.hw_cores[p.index()],
                              input.tech.type_count());
  std::vector<Timeline> cl_timelines(input.arch.cl_count());

  std::vector<std::size_t> unscheduled_preds(n, 0);
  for (std::size_t t = 0; t < n; ++t)
    unscheduled_preds[t] =
        graph.in_edges(TaskId{static_cast<TaskId::value_type>(t)}).size();

  std::vector<TaskId> ready;
  for (std::size_t t = 0; t < n; ++t)
    if (unscheduled_preds[t] == 0)
      ready.push_back(TaskId{static_cast<TaskId::value_type>(t)});

  std::size_t scheduled = 0;
  while (!ready.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      const double a = priority[ready[i].index()];
      const double b = priority[ready[best].index()];
      if (a > b || (a == b && ready[i] < ready[best])) best = i;
    }
    const TaskId u = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));

    const PeId pe = input.mapping.task_to_pe[u.index()];
    const Task& task = graph.task(u);
    const double exec = input.tech.require(task.type, pe).exec_time;

    double est = 0.0;
    for (EdgeId e : graph.in_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      const ScheduledTask& pred = result.tasks[edge.src.index()];
      ScheduledComm& comm = result.comms[e.index()];
      comm.edge = e;
      const PeId src_pe = input.mapping.task_to_pe[edge.src.index()];
      if (src_pe == pe) {
        comm.local = true;
        comm.cl = ClId::invalid();
        comm.start = comm.finish = pred.finish;
        est = std::max(est, pred.finish);
        continue;
      }
      comm.local = false;
      const auto links = input.arch.links_between(src_pe, pe);
      if (links.empty()) {
        result.routable = false;
        comm.cl = ClId::invalid();
        comm.start = pred.finish;
        comm.finish = pred.finish + kUnroutablePenalty;
        est = std::max(est, comm.finish);
        continue;
      }
      double best_finish = std::numeric_limits<double>::infinity();
      double best_start = 0.0;
      ClId best_cl;
      for (ClId cl : links) {
        const Cl& link = input.arch.cl(cl);
        const double dur =
            link.startup_latency + edge.data_bits / link.bandwidth;
        const double s =
            cl_timelines[cl.index()].earliest_fit(pred.finish, dur);
        if (s + dur < best_finish) {
          best_finish = s + dur;
          best_start = s;
          best_cl = cl;
        }
      }
      const Cl& link = input.arch.cl(best_cl);
      const double dur =
          link.startup_latency + edge.data_bits / link.bandwidth;
      cl_timelines[best_cl.index()].reserve(best_start, dur);
      comm.cl = best_cl;
      comm.start = best_start;
      comm.finish = best_start + dur;
      est = std::max(est, comm.finish);
    }

    auto [start, instance] =
        pe_resources[pe.index()].best_slot(task.type, est, exec);
    pe_resources[pe.index()].reserve(task.type, instance, start, exec);

    ScheduledTask& st = result.tasks[u.index()];
    st.task = u;
    st.pe = pe;
    st.core_instance = instance;
    st.start = start;
    st.finish = start + exec;
    result.makespan = std::max(result.makespan, st.finish);
    ++scheduled;

    for (EdgeId e : graph.out_edges(u)) {
      const TaskId v = graph.edge(e).dst;
      if (--unscheduled_preds[v.index()] == 0) ready.push_back(v);
    }
  }
  assert(scheduled == n && "task graph must be acyclic");
  for (const ScheduledComm& c : result.comms)
    result.makespan = std::max(result.makespan, c.finish);
  return result;
}

RefDvsGraph ref_build_dvs_graph(const Mode& mode, const ModeSchedule& schedule,
                                const ModeMapping& mapping,
                                const Architecture& arch,
                                const TechLibrary& tech, bool scale_hardware) {
  (void)mapping;
  const TaskGraph& graph = mode.graph;
  const std::size_t n_tasks = graph.task_count();
  const std::size_t n_edges = graph.edge_count();
  const double eps = 1e-9 * std::max(1.0, schedule.makespan);

  RefDvsGraph g;
  g.task_node.assign(n_tasks, -1);
  g.comm_node.assign(n_edges, -1);

  auto task_limit = [&](TaskId t) {
    double limit = mode.period;
    if (const auto& dl = graph.task(t).deadline)
      limit = std::min(limit, *dl);
    return limit;
  };

  auto add_node = [&](DvsNode node) {
    g.nodes.push_back(node);
    g.succs.emplace_back();
    g.preds.emplace_back();
    return static_cast<int>(g.nodes.size() - 1);
  };
  auto add_edge = [&](int u, int v) {
    if (u == v) return;
    g.succs[static_cast<std::size_t>(u)].push_back(v);
    g.preds[static_cast<std::size_t>(v)].push_back(u);
  };

  std::vector<bool> is_dvs_hw(arch.pe_count(), false);
  for (PeId p : arch.pe_ids()) {
    const Pe& pe = arch.pe(p);
    is_dvs_hw[p.index()] =
        scale_hardware && is_hardware(pe.kind) && pe_scalable(pe);
  }

  for (std::size_t t = 0; t < n_tasks; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    const ScheduledTask& st = schedule.tasks[t];
    if (is_dvs_hw[st.pe.index()]) continue;
    const Pe& pe = arch.pe(st.pe);
    const Implementation& impl = tech.require(graph.task(id).type, st.pe);
    DvsNode node;
    node.kind = DvsNodeKind::kTask;
    node.ref = static_cast<int>(t);
    node.pe = st.pe;
    node.tmin = st.duration();
    node.e_nom = impl.energy();
    node.scalable = is_software(pe.kind) && pe_scalable(pe);
    node.max_slowdown = node.scalable ? pe_max_slowdown(pe) : 1.0;
    node.deadline = task_limit(id);
    g.task_node[t] = add_node(node);
  }

  std::vector<PeSegments> pe_segments(arch.pe_count());
  for (PeId p : arch.pe_ids()) {
    if (!is_dvs_hw[p.index()]) continue;
    PeSegments& ps = pe_segments[p.index()];
    ps.task_first.assign(n_tasks, -1);
    ps.task_last.assign(n_tasks, -1);

    std::vector<std::size_t> hosted;
    for (std::size_t t = 0; t < n_tasks; ++t)
      if (schedule.tasks[t].pe == p) hosted.push_back(t);
    if (hosted.empty()) continue;

    std::vector<double> cuts;
    for (std::size_t t : hosted) {
      cuts.push_back(schedule.tasks[t].start);
      cuts.push_back(schedule.tasks[t].finish);
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
      const TaskEdge& edge = graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
      if (schedule.tasks[edge.dst.index()].pe != p) continue;
      const ScheduledComm& comm = schedule.comms[e];
      if (!comm.local) cuts.push_back(comm.finish);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end(),
                           [&](double a, double b) { return b - a < eps; }),
               cuts.end());

    const Pe& pe = arch.pe(p);
    const double slowdown_cap = pe_max_slowdown(pe);

    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double a = cuts[i];
      const double b = cuts[i + 1];
      double power = 0.0;
      double deadline = mode.period;
      bool any_active = false;
      for (std::size_t t : hosted) {
        const ScheduledTask& st = schedule.tasks[t];
        if (st.start <= a + eps && st.finish >= b - eps) {
          any_active = true;
          const TaskId id{static_cast<TaskId::value_type>(t)};
          power += tech.require(graph.task(id).type, p).dyn_power;
          if (std::abs(st.finish - b) < eps)
            deadline = std::min(deadline, task_limit(id));
        }
      }
      if (!any_active) continue;

      DvsNode node;
      node.kind = DvsNodeKind::kSegment;
      node.ref = static_cast<int>(ps.segments.size());
      node.pe = p;
      node.tmin = b - a;
      node.e_nom = power * (b - a);
      node.scalable = true;
      node.max_slowdown = slowdown_cap;
      node.deadline = deadline;
      const int idx = add_node(node);
      ps.segments.push_back({a, b, idx});
    }

    for (std::size_t t : hosted) {
      const ScheduledTask& st = schedule.tasks[t];
      for (std::size_t s = 0; s < ps.segments.size(); ++s) {
        const auto& seg = ps.segments[s];
        if (std::abs(seg.start - st.start) < eps && ps.task_first[t] == -1)
          ps.task_first[t] = static_cast<int>(s);
        if (std::abs(seg.end - st.finish) < eps)
          ps.task_last[t] = static_cast<int>(s);
      }
      assert(ps.task_first[t] >= 0 && ps.task_last[t] >= 0);
      g.task_node[t] = ps.segments[static_cast<std::size_t>(ps.task_last[t])].node;
    }
    for (std::size_t s = 0; s + 1 < ps.segments.size(); ++s)
      add_edge(ps.segments[s].node, ps.segments[s + 1].node);
  }

  for (std::size_t e = 0; e < n_edges; ++e) {
    const ScheduledComm& comm = schedule.comms[e];
    if (comm.local) continue;
    DvsNode node;
    node.kind = DvsNodeKind::kComm;
    node.ref = static_cast<int>(e);
    node.pe = PeId::invalid();
    node.tmin = comm.duration();
    node.e_nom = comm.cl.valid()
                     ? arch.cl(comm.cl).transfer_power * comm.duration()
                     : 0.0;
    node.scalable = false;
    node.max_slowdown = 1.0;
    node.deadline = mode.period;
    g.comm_node[e] = add_node(node);
  }

  auto in_node_for = [&](TaskId dst, double arrival) {
    const ScheduledTask& st = schedule.tasks[dst.index()];
    if (!is_dvs_hw[st.pe.index()]) return g.task_node[dst.index()];
    const PeSegments& ps = pe_segments[st.pe.index()];
    for (const auto& seg : ps.segments)
      if (seg.start >= arrival - eps) return seg.node;
    return g.task_node[dst.index()];
  };

  for (std::size_t e = 0; e < n_edges; ++e) {
    const TaskEdge& edge = graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
    const int out_node = g.task_node[edge.src.index()];
    const ScheduledComm& comm = schedule.comms[e];
    if (comm.local) {
      add_edge(out_node, in_node_for(edge.dst, comm.finish));
    } else {
      const int cn = g.comm_node[e];
      add_edge(out_node, cn);
      add_edge(cn, in_node_for(edge.dst, comm.finish));
    }
  }

  for (PeId p : arch.pe_ids()) {
    if (is_dvs_hw[p.index()]) continue;
    const Pe& pe = arch.pe(p);
    if (is_software(pe.kind)) {
      std::vector<std::size_t> hosted;
      for (std::size_t t = 0; t < n_tasks; ++t)
        if (schedule.tasks[t].pe == p) hosted.push_back(t);
      std::sort(hosted.begin(), hosted.end(), [&](std::size_t a, std::size_t b) {
        return schedule.tasks[a].start < schedule.tasks[b].start;
      });
      for (std::size_t i = 0; i + 1 < hosted.size(); ++i)
        add_edge(g.task_node[hosted[i]], g.task_node[hosted[i + 1]]);
    } else {
      std::map<std::pair<TaskTypeId, int>, std::vector<std::size_t>> groups;
      for (std::size_t t = 0; t < n_tasks; ++t) {
        const ScheduledTask& st = schedule.tasks[t];
        if (st.pe != p) continue;
        const TaskId id{static_cast<TaskId::value_type>(t)};
        groups[{graph.task(id).type, st.core_instance}].push_back(t);
      }
      for (auto& [key, hosted] : groups) {
        std::sort(hosted.begin(), hosted.end(),
                  [&](std::size_t a, std::size_t b) {
                    return schedule.tasks[a].start < schedule.tasks[b].start;
                  });
        for (std::size_t i = 0; i + 1 < hosted.size(); ++i)
          add_edge(g.task_node[hosted[i]], g.task_node[hosted[i + 1]]);
      }
    }
  }
  for (ClId c : arch.cl_ids()) {
    std::vector<std::size_t> on_link;
    for (std::size_t e = 0; e < n_edges; ++e)
      if (!schedule.comms[e].local && schedule.comms[e].cl == c)
        on_link.push_back(e);
    std::sort(on_link.begin(), on_link.end(), [&](std::size_t a, std::size_t b) {
      return schedule.comms[a].start < schedule.comms[b].start;
    });
    for (std::size_t i = 0; i + 1 < on_link.size(); ++i)
      add_edge(g.comm_node[on_link[i]], g.comm_node[on_link[i + 1]]);
  }

  const std::size_t n = g.nodes.size();
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t u = 0; u < n; ++u)
    for (int v : g.succs[u]) indegree[static_cast<std::size_t>(v)]++;
  g.topo.reserve(n);
  std::vector<int> frontier;
  for (std::size_t u = 0; u < n; ++u)
    if (indegree[u] == 0) frontier.push_back(static_cast<int>(u));
  std::size_t cursor = 0;
  while (cursor < frontier.size()) {
    const int u = frontier[cursor++];
    g.topo.push_back(u);
    for (int v : g.succs[static_cast<std::size_t>(u)])
      if (--indegree[static_cast<std::size_t>(v)] == 0) frontier.push_back(v);
  }
  if (g.topo.size() != n)
    throw std::logic_error("ref_build_dvs_graph: constructed graph is cyclic");
  return g;
}

PvDvsResult ref_run_pv_dvs(const RefDvsGraph& g, const Architecture& arch,
                           const PvDvsOptions& options) {
  const std::size_t n = g.nodes.size();
  PvDvsResult result;
  result.scaled_time.resize(n);
  result.voltage.assign(n, 0.0);
  result.energy.resize(n);

  std::vector<NodeModel> models(n);
  std::vector<int> scalable;
  for (std::size_t i = 0; i < n; ++i) {
    const DvsNode& node = g.nodes[i];
    result.scaled_time[i] = node.tmin;
    result.nominal_energy += node.e_nom;
    if (node.scalable && node.pe.valid()) {
      const Pe& pe = arch.pe(node.pe);
      models[i] = {pe.vmax(), pe.threshold_voltage, pe.voltage_levels};
      result.voltage[i] = pe.vmax();
      if (node.tmin > 0.0 && node.e_nom > 0.0)
        scalable.push_back(static_cast<int>(i));
    } else if (node.pe.valid()) {
      result.voltage[i] = arch.pe(node.pe).vmax();
    }
  }

  std::vector<double>& t = result.scaled_time;
  std::vector<double> ef(n, 0.0), lf(n, 0.0);

  auto node_energy_continuous = [&](std::size_t i, double ti) {
    const DvsNode& node = g.nodes[i];
    if (node.tmin <= 0.0) return node.e_nom;
    return ref_continuous_energy(node.e_nom, ti / node.tmin, models[i].vmax,
                                 models[i].vt);
  };

  if (!scalable.empty()) {
    const double gain_floor =
        std::max(result.nominal_energy, 1e-30) * options.min_relative_gain;
    const int max_iterations =
        options.max_iterations_per_node * static_cast<int>(scalable.size());

    std::vector<double> descent(n, 0.0);
    auto refresh_descent = [&](std::size_t ui) {
      const DvsNode& node = g.nodes[ui];
      const double h = 0.01 * node.tmin;
      descent[ui] = (node_energy_continuous(ui, t[ui]) -
                     node_energy_continuous(ui, t[ui] + h)) /
                    h;
    };
    for (int u : scalable) refresh_descent(static_cast<std::size_t>(u));

    for (int iter = 0; iter < max_iterations; ++iter) {
      forward_pass(g, t, ef);
      backward_pass(g, t, lf);

      double best_gain = 0.0;
      int best_node = -1;
      double best_step = 0.0;
      for (int u : scalable) {
        const auto ui = static_cast<std::size_t>(u);
        const DvsNode& node = g.nodes[ui];
        const double slack = lf[ui] - ef[ui];
        const double cap = node.tmin * node.max_slowdown - t[ui];
        const double avail = std::min(slack, cap);
        if (avail <= 1e-12 * std::max(1.0, node.tmin)) continue;
        const double step = options.step_fraction * avail;
        const double gain = descent[ui] * step;
        if (gain > best_gain) {
          best_gain = gain;
          best_node = u;
          best_step = step;
        }
      }
      if (best_node < 0 || best_gain < gain_floor) break;
      const auto bi = static_cast<std::size_t>(best_node);
      t[bi] += best_step;
      refresh_descent(bi);
    }
  }

  forward_pass(g, t, ef);
  result.deadlines_met = true;
  for (std::size_t i = 0; i < n; ++i) {
    const DvsNode& node = g.nodes[i];
    if (ef[i] > node.deadline * (1.0 + 1e-9) + 1e-12)
      result.deadlines_met = false;
    if (!node.scalable || node.tmin <= 0.0 || node.e_nom <= 0.0) {
      result.energy[i] = node.e_nom;
    } else {
      const VoltageModel model(models[i].vmax, models[i].vt);
      result.voltage[i] = ref_voltage_for_slowdown(model, t[i] / node.tmin);
      result.energy[i] =
          options.discrete_voltages
              ? discrete_energy(node.e_nom, node.tmin, t[i], models[i].levels,
                                models[i].vt)
              : node.e_nom * model.energy_factor(result.voltage[i]);
    }
    result.total_energy += result.energy[i];
  }
  return result;
}

// ---- Phase-2a kernels: mobility analysis and core allocation. ----------
// Frozen copies of sched/mobility.cpp and core/allocation_builder.cpp as
// they stood before the allocation-free rewrite (per-edge links_between
// vectors, eager per-mode mobility, std::map demand grouping).

namespace {

/// Contention-free delay estimate of edge `e` under `mapping`.
double edge_delay(const TaskGraph& graph, const TaskEdge& e,
                  const ModeMapping& mapping, const Architecture& arch) {
  (void)graph;
  const PeId src_pe = mapping.task_to_pe[e.src.index()];
  const PeId dst_pe = mapping.task_to_pe[e.dst.index()];
  if (src_pe == dst_pe) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (ClId cl : arch.links_between(src_pe, dst_pe)) {
    const Cl& link = arch.cl(cl);
    best = std::min(best, link.startup_latency + e.data_bits / link.bandwidth);
  }
  // Unconnected PEs: treat as a huge (but finite) delay so mobility stays
  // well-defined; the list scheduler reports the infeasibility properly.
  if (!std::isfinite(best)) best = 1e6;
  return best;
}

/// Maximum number of simultaneously running intervals.
int max_concurrency(std::vector<std::pair<double, double>> intervals) {
  std::vector<std::pair<double, int>> events;
  events.reserve(intervals.size() * 2);
  for (const auto& [start, end] : intervals) {
    events.emplace_back(start, +1);
    events.emplace_back(end, -1);
  }
  // Process ends before starts at equal times (back-to-back is sequential).
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  int current = 0, best = 0;
  for (const auto& [time, delta] : events) {
    current += delta;
    best = std::max(best, current);
  }
  return best;
}

/// Greedy extra-core addition into `set` (already holding the base cores)
/// until `desired` counts are met or `capacity` is exhausted.
void add_extra_cores(CoreSet& set,
                     const std::map<TaskTypeId, int>& desired,
                     const TechLibrary& tech, PeId pe, double capacity) {
  double used = set.area(tech, pe);
  bool progress = true;
  while (progress) {
    progress = false;
    // Pick the type with the largest remaining deficit whose extra core
    // still fits; ties resolved toward the smaller core.
    TaskTypeId best_type;
    int best_deficit = 0;
    double best_area = 0.0;
    for (const auto& [type, want] : desired) {
      const int deficit = want - set.count_of(type);
      if (deficit <= 0) continue;
      const double area = tech.require(type, pe).area;
      if (used + area > capacity) continue;
      if (deficit > best_deficit ||
          (deficit == best_deficit && area < best_area)) {
        best_type = type;
        best_deficit = deficit;
        best_area = area;
      }
    }
    if (best_deficit > 0) {
      set.add_core(best_type);
      used += best_area;
      progress = true;
    }
  }
}

}  // namespace

MobilityInfo ref_compute_mobility(const Mode& mode, const ModeMapping& mapping,
                                  const Architecture& arch,
                                  const TechLibrary& tech) {
  const TaskGraph& graph = mode.graph;
  const std::size_t n = graph.task_count();
  MobilityInfo info;
  info.asap_start.assign(n, 0.0);
  info.alap_start.assign(n, 0.0);
  info.exec_time.assign(n, 0.0);
  info.mobility.assign(n, 0.0);

  for (std::size_t t = 0; t < n; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    info.exec_time[t] =
        tech.require(graph.task(id).type, mapping.task_to_pe[t]).exec_time;
  }

  const auto& topo = graph.topological_order();

  // Forward (ASAP) pass.
  for (TaskId u : topo) {
    double start = 0.0;
    for (EdgeId e : graph.in_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      start = std::max(start, info.asap_start[edge.src.index()] +
                                  info.exec_time[edge.src.index()] +
                                  edge_delay(graph, edge, mapping, arch));
    }
    info.asap_start[u.index()] = start;
    info.critical_path =
        std::max(info.critical_path, start + info.exec_time[u.index()]);
  }

  // Backward (ALAP) pass anchored at min(deadline, period); if the period
  // is tighter than the critical path, anchor at the critical path so the
  // mobility values stay non-negative and still rank tasks usefully.
  const double anchor = std::max(mode.period, info.critical_path);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    double limit = anchor;
    if (const auto& dl = graph.task(u).deadline)
      limit = std::min(limit, std::max(*dl, info.asap_start[u.index()] +
                                                info.exec_time[u.index()]));
    double latest_finish = limit;
    for (EdgeId e : graph.out_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      latest_finish =
          std::min(latest_finish,
                   info.alap_start[edge.dst.index()] -
                       edge_delay(graph, edge, mapping, arch));
    }
    info.alap_start[u.index()] = latest_finish - info.exec_time[u.index()];
    info.mobility[u.index()] = std::max(
        0.0, info.alap_start[u.index()] - info.asap_start[u.index()]);
  }
  return info;
}

CoreAllocation ref_build_core_allocation(const System& system,
                                         const MultiModeMapping& mapping,
                                         const AllocationOptions& options) {
  const Omsm& omsm = system.omsm;
  const Architecture& arch = system.arch;
  const TechLibrary& tech = system.tech;
  const std::size_t n_modes = omsm.mode_count();
  const std::size_t n_pes = arch.pe_count();

  CoreAllocation alloc;
  alloc.per_mode.assign(n_modes, std::vector<CoreSet>(n_pes));

  // Per-mode mobility analysis (Fig. 4 line 04).
  std::vector<MobilityInfo> mobility;
  mobility.reserve(n_modes);
  for (std::size_t m = 0; m < n_modes; ++m) {
    const ModeId mode_id{static_cast<ModeId::value_type>(m)};
    mobility.push_back(ref_compute_mobility(omsm.mode(mode_id),
                                            mapping.modes[m], arch, tech));
  }

  // desired[m][pe] : per-type core demand in mode m on PE pe.
  std::vector<std::vector<std::map<TaskTypeId, int>>> desired(
      n_modes, std::vector<std::map<TaskTypeId, int>>(n_pes));

  for (std::size_t m = 0; m < n_modes; ++m) {
    const ModeId mode_id{static_cast<ModeId::value_type>(m)};
    const Mode& mode = omsm.mode(mode_id);
    const MobilityInfo& mob = mobility[m];
    // Group this mode's hardware tasks by (pe, type).
    std::map<std::pair<PeId, TaskTypeId>, std::vector<std::size_t>> groups;
    for (std::size_t t = 0; t < mode.graph.task_count(); ++t) {
      const PeId pe = mapping.modes[m].task_to_pe[t];
      if (!is_hardware(arch.pe(pe).kind)) continue;
      const TaskId id{static_cast<TaskId::value_type>(t)};
      groups[{pe, mode.graph.task(id).type}].push_back(t);
    }
    for (const auto& [key, tasks] : groups) {
      const auto& [pe, type] = key;
      int demand = 1;
      if (options.allocate_parallel_cores && tasks.size() > 1) {
        // Extra cores pay off only for tasks that can actually overlap and
        // are urgent (low mobility).
        std::vector<std::pair<double, double>> windows;
        const double mobility_cap =
            options.mobility_threshold * mode.period;
        for (std::size_t t : tasks) {
          if (mob.mobility[t] > mobility_cap) continue;
          windows.emplace_back(mob.asap_start[t],
                               mob.asap_start[t] + mob.exec_time[t]);
        }
        demand = std::max(1, max_concurrency(std::move(windows)));
      }
      desired[m][pe.index()][type] = demand;
    }
  }

  for (PeId p : arch.pe_ids()) {
    const Pe& pe = arch.pe(p);
    if (!is_hardware(pe.kind)) continue;

    if (pe.kind == PeKind::kAsic) {
      // Static silicon: one set for all modes, per-type max demand.
      std::map<TaskTypeId, int> merged;
      for (std::size_t m = 0; m < n_modes; ++m)
        for (const auto& [type, want] : desired[m][p.index()])
          merged[type] = std::max(merged[type], want);
      CoreSet set;
      for (const auto& [type, want] : merged) set.set_count(type, 1);
      add_extra_cores(set, merged, tech, p, pe.area_capacity);
      for (std::size_t m = 0; m < n_modes; ++m)
        alloc.per_mode[m][p.index()] = set;
    } else {
      // FPGA: reconfigurable per mode.
      for (std::size_t m = 0; m < n_modes; ++m) {
        CoreSet set;
        for (const auto& [type, want] : desired[m][p.index()])
          set.set_count(type, 1);
        add_extra_cores(set, desired[m][p.index()], tech, p,
                        pe.area_capacity);
        alloc.per_mode[m][p.index()] = std::move(set);
      }
    }
  }
  return alloc;
}

}  // namespace mmsyn::refk
