#include "core/allocation_builder.hpp"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/system.hpp"
#include "sched/mobility.hpp"

namespace mmsyn {
namespace {

// Flat layout (DESIGN.md §12): every hardware task of every mode goes into
// one vector, sorted so that each (PE, mode, type) group is contiguous and
// PE-major. One pass over it yields each PE's demands in ascending
// (mode, type) order, with no allocation per group or per demand. The
// extra-core greedy breaks ties by that type order, so it is part of the
// result.

/// One hardware task of one mode, ordered (pe, mode, type, task).
struct HwTask {
  std::int32_t pe;
  std::int32_t mode;
  std::int32_t type;
  std::int32_t task;
  friend auto operator<=>(const HwTask&, const HwTask&) = default;
};

/// Core demand of one task type in one mode on the PE being built.
struct Demand {
  std::int32_t mode;
  TaskTypeId type;
  int count;
};

/// Maximum number of simultaneously running intervals. `events` is caller
/// scratch, reused across groups.
int max_concurrency(const std::vector<std::pair<double, double>>& intervals,
                    std::vector<std::pair<double, int>>& events) {
  events.clear();
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

/// One base core per demanded type, then greedy extra-core addition until
/// the `desired` counts (ascending by type) are met or `capacity` is
/// exhausted.
CoreSet allocate_cores(std::span<const Demand> desired,
                       const TechLibrary& tech, PeId pe, double capacity) {
  CoreSet set;
  for (const Demand& d : desired) set.set_count(d.type, 1);
  double used = set.area(tech, pe);
  bool progress = true;
  while (progress) {
    progress = false;
    // Pick the type with the largest remaining deficit whose extra core
    // still fits; ties resolved toward the smaller core.
    TaskTypeId best_type;
    int best_deficit = 0;
    double best_area = 0.0;
    for (const Demand& d : desired) {
      const int deficit = d.count - set.count_of(d.type);
      if (deficit <= 0) continue;
      const double area = tech.require(d.type, pe).area;
      if (used + area > capacity) continue;
      if (deficit > best_deficit ||
          (deficit == best_deficit && area < best_area)) {
        best_type = d.type;
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
  return set;
}

}  // namespace

CoreAllocation build_core_allocation(const System& system,
                                     const MultiModeMapping& mapping,
                                     const AllocationOptions& options) {
  const Omsm& omsm = system.omsm;
  const Architecture& arch = system.arch;
  const TechLibrary& tech = system.tech;
  const std::size_t n_modes = omsm.mode_count();
  const std::size_t n_pes = arch.pe_count();

  CoreAllocation alloc;
  alloc.per_mode.assign(n_modes, std::vector<CoreSet>(n_pes));

  std::vector<HwTask> hw;
  for (std::size_t m = 0; m < n_modes; ++m) {
    const TaskGraph& graph = omsm.modes()[m].graph;
    const std::vector<PeId>& task_to_pe = mapping.modes[m].task_to_pe;
    for (std::size_t t = 0; t < graph.task_count(); ++t) {
      const PeId pe = task_to_pe[t];
      if (!is_hardware(arch.pe(pe).kind)) continue;
      const TaskId id{static_cast<TaskId::value_type>(t)};
      hw.push_back({pe.value(), static_cast<std::int32_t>(m),
                    graph.task(id).type.value(),
                    static_cast<std::int32_t>(t)});
    }
  }
  std::sort(hw.begin(), hw.end());

  // Per-mode mobility analysis (Fig. 4 line 04), run for a mode only when
  // one of its groups has more than one task to rank.
  std::vector<std::optional<MobilityInfo>> mobility(n_modes);
  std::vector<std::pair<double, double>> windows;
  std::vector<std::pair<double, int>> events;
  std::vector<Demand> demands;  // current PE, ascending (mode, type)
  std::vector<Demand> merged;   // ASIC: per-type max over modes

  for (std::size_t g = 0; g < hw.size();) {
    const std::int32_t pe_value = hw[g].pe;
    demands.clear();
    while (g < hw.size() && hw[g].pe == pe_value) {
      const HwTask& head = hw[g];
      std::size_t end = g + 1;
      while (end < hw.size() && hw[end].pe == head.pe &&
             hw[end].mode == head.mode && hw[end].type == head.type)
        ++end;
      int demand = 1;
      if (options.allocate_parallel_cores && end - g > 1) {
        // Extra cores pay off only for tasks that can actually overlap and
        // are urgent (low mobility).
        const auto m = static_cast<std::size_t>(head.mode);
        const Mode& mode = omsm.modes()[m];
        if (!mobility[m])
          mobility[m] = compute_mobility(mode, mapping.modes[m], arch, tech);
        const MobilityInfo& mob = *mobility[m];
        const double mobility_cap =
            options.mobility_threshold * mode.period;
        windows.clear();
        for (std::size_t k = g; k < end; ++k) {
          const auto t = static_cast<std::size_t>(hw[k].task);
          if (mob.mobility[t] > mobility_cap) continue;
          windows.emplace_back(mob.asap_start[t],
                               mob.asap_start[t] + mob.exec_time[t]);
        }
        demand = std::max(1, max_concurrency(windows, events));
      }
      demands.push_back({head.mode, TaskTypeId{head.type}, demand});
      g = end;
    }

    const PeId p{pe_value};
    const Pe& pe = arch.pe(p);
    if (pe.kind == PeKind::kAsic) {
      // Static silicon: one set for all modes, per-type max demand.
      merged = demands;
      std::sort(merged.begin(), merged.end(),
                [](const Demand& a, const Demand& b) {
                  return a.type < b.type;
                });
      std::size_t n = 0;
      for (const Demand& d : merged) {
        if (n > 0 && merged[n - 1].type == d.type)
          merged[n - 1].count = std::max(merged[n - 1].count, d.count);
        else
          merged[n++] = d;
      }
      merged.resize(n);
      const CoreSet set = allocate_cores(merged, tech, p, pe.area_capacity);
      for (std::size_t m = 0; m < n_modes; ++m)
        alloc.per_mode[m][p.index()] = set;
    } else {
      // FPGA: reconfigurable per mode.
      for (std::size_t a = 0; a < demands.size();) {
        std::size_t b = a + 1;
        while (b < demands.size() && demands[b].mode == demands[a].mode) ++b;
        alloc.per_mode[static_cast<std::size_t>(demands[a].mode)]
                      [p.index()] =
            allocate_cores(std::span(demands).subspan(a, b - a), tech, p,
                           pe.area_capacity);
        a = b;
      }
    }
  }
  return alloc;
}

}  // namespace mmsyn
