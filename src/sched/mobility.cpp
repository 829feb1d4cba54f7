#include "sched/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/architecture.hpp"
#include "model/omsm.hpp"
#include "model/tech_library.hpp"

namespace mmsyn {
namespace {

/// Contention-free delay estimate of edge `e` under `mapping`: the fastest
/// CL attached to both endpoint PEs. The CLs are scanned in ascending id
/// order with the membership test of `Architecture::links_between`, so the
/// `std::min` sequence (and every tie) matches it without building the
/// per-edge link vector.
double edge_delay(const TaskEdge& e, const ModeMapping& mapping,
                  const Architecture& arch) {
  const PeId src_pe = mapping.task_to_pe[e.src.index()];
  const PeId dst_pe = mapping.task_to_pe[e.dst.index()];
  if (src_pe == dst_pe) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const Cl& link : arch.cls()) {
    const auto& att = link.attached;
    if (std::find(att.begin(), att.end(), src_pe) == att.end() ||
        std::find(att.begin(), att.end(), dst_pe) == att.end())
      continue;
    best = std::min(best, link.startup_latency + e.data_bits / link.bandwidth);
  }
  // Unconnected PEs: treat as a huge (but finite) delay so mobility stays
  // well-defined; the list scheduler reports the infeasibility properly.
  if (!std::isfinite(best)) best = 1e6;
  return best;
}

}  // namespace

MobilityInfo compute_mobility(const Mode& mode, const ModeMapping& mapping,
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

  // Each edge's delay is read by both passes; price it once.
  std::vector<double> delay(graph.edge_count());
  for (std::size_t e = 0; e < delay.size(); ++e)
    delay[e] = edge_delay(graph.edges()[e], mapping, arch);

  const auto& topo = graph.topological_order();

  // Forward (ASAP) pass.
  for (TaskId u : topo) {
    double start = 0.0;
    for (EdgeId e : graph.in_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      start = std::max(start, info.asap_start[edge.src.index()] +
                                  info.exec_time[edge.src.index()] +
                                  delay[e.index()]);
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
                       delay[e.index()]);
    }
    info.alap_start[u.index()] = latest_finish - info.exec_time[u.index()];
    info.mobility[u.index()] = std::max(
        0.0, info.alap_start[u.index()] - info.asap_start[u.index()]);
  }
  return info;
}

}  // namespace mmsyn
