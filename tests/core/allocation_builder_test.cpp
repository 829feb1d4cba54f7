#include "core/allocation_builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/reference_kernels.hpp"
#include "common/rng.hpp"
#include "model/system.hpp"

namespace mmsyn {
namespace {

/// Fixture: GPP + ASIC + FPGA; one type everywhere; two modes.
class AllocationBuilderTest : public ::testing::Test {
 protected:
  AllocationBuilderTest() {
    Pe gpp;
    gpp.name = "GPP";
    sw_ = system_.arch.add_pe(gpp);
    Pe asic;
    asic.name = "ASIC";
    asic.kind = PeKind::kAsic;
    asic.area_capacity = 1000.0;
    asic_ = system_.arch.add_pe(asic);
    Pe fpga;
    fpga.name = "FPGA";
    fpga.kind = PeKind::kFpga;
    fpga.area_capacity = 1000.0;
    fpga.reconfig_bandwidth = 1e5;
    fpga_ = system_.arch.add_pe(fpga);
    Cl bus;
    bus.attached = {sw_, asic_, fpga_};
    system_.arch.add_cl(bus);

    type_ = system_.tech.add_type("T");
    system_.tech.set_implementation(type_, sw_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(type_, asic_, {1e-3, 1e-3, 300.0});
    system_.tech.set_implementation(type_, fpga_, {1e-3, 1e-3, 300.0});
    other_ = system_.tech.add_type("U");
    system_.tech.set_implementation(other_, sw_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(other_, asic_, {1e-3, 1e-3, 300.0});
  }

  /// One mode with `n` independent tasks of type_, one with a single task.
  void build_modes(int parallel_tasks) {
    Mode a;
    a.name = "A";
    a.probability = 0.5;
    a.period = 0.1;
    for (int i = 0; i < parallel_tasks; ++i)
      a.graph.add_task("p" + std::to_string(i), type_);
    system_.omsm.add_mode(std::move(a));
    Mode b;
    b.name = "B";
    b.probability = 0.5;
    b.period = 0.1;
    b.graph.add_task("q", other_);
    system_.omsm.add_mode(std::move(b));
  }

  System system_;
  PeId sw_, asic_, fpga_;
  TaskTypeId type_, other_;
};

TEST_F(AllocationBuilderTest, SoftwareMappingNeedsNoCores) {
  build_modes(2);
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {sw_, sw_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  for (const auto& mode_sets : alloc.per_mode)
    for (const CoreSet& set : mode_sets) EXPECT_TRUE(set.empty());
}

TEST_F(AllocationBuilderTest, HardwareTypeGetsAtLeastOneCore) {
  build_modes(1);
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, ParallelLowMobilityTasksGetExtraCores) {
  build_modes(3);
  // Tight period so the three parallel tasks have near-zero mobility.
  system_.omsm.mode(ModeId{0}).period = 1.1e-3;
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  // 1000 cells / 300 per core: up to 3 cores fit; demand is 3.
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 3);
}

TEST_F(AllocationBuilderTest, ExtraCoresRespectAreaCapacity) {
  build_modes(5);
  system_.omsm.mode(ModeId{0}).period = 2e-3;
  system_.arch.pe(asic_).area_capacity = 700.0;  // only 2 cores fit
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 2);
}

TEST_F(AllocationBuilderTest, DisablingParallelCoresKeepsOne) {
  build_modes(3);
  system_.omsm.mode(ModeId{0}).period = 1.1e-3;
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  AllocationOptions options;
  options.allocate_parallel_cores = false;
  const CoreAllocation alloc = build_core_allocation(system_, m, options);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, AsicSetsAreModeInvariant) {
  build_modes(1);
  // Mode B's task also onto the ASIC (different type).
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_};
  m.modes[1].task_to_pe = {asic_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_), alloc.cores(ModeId{1}, asic_));
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(other_), 1);
}

TEST_F(AllocationBuilderTest, FpgaSetsArePerMode) {
  build_modes(1);
  Mode c;
  c.name = "C";
  c.probability = 0.0;
  c.period = 0.1;
  c.graph.add_task("r", type_);
  system_.omsm.add_mode(std::move(c));
  system_.omsm.normalize_probabilities();
  MultiModeMapping m;
  m.modes.resize(3);
  m.modes[0].task_to_pe = {fpga_};
  m.modes[1].task_to_pe = {sw_};
  m.modes[2].task_to_pe = {fpga_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, fpga_).count_of(type_), 1);
  EXPECT_TRUE(alloc.cores(ModeId{1}, fpga_).empty());
  EXPECT_EQ(alloc.cores(ModeId{2}, fpga_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, OverfullBaseSetIsNotExtended) {
  build_modes(2);
  system_.omsm.mode(ModeId{0}).period = 2e-3;
  system_.arch.pe(asic_).area_capacity = 100.0;  // below one core
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  // Base core still allocated (the mapping demands it) but no extras.
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
}

/// `prefix` followed by `i` (avoids GCC 12's -Wrestrict false positive on
/// literal + std::to_string).
std::string numbered(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

/// A random system for the reference property test: one GPP running every
/// type, plus 1-3 ASICs and FPGAs that each implement a random subset of
/// 2-4 types with random areas; 1-4 modes of 3-14 tasks on a random DAG,
/// with periods from very tight (many overlapping urgent tasks) to slack.
System random_system(Rng& rng) {
  System system;
  Pe gpp;
  gpp.name = "GPP";
  const PeId sw = system.arch.add_pe(gpp);
  const int n_hw = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<PeId> hw;
  for (int i = 0; i < n_hw; ++i) {
    Pe pe;
    pe.name = numbered('H', i);
    pe.kind = rng.chance(0.5) ? PeKind::kAsic : PeKind::kFpga;
    pe.area_capacity = rng.uniform_real(100.0, 2000.0);
    pe.reconfig_bandwidth = 1e5;
    hw.push_back(system.arch.add_pe(pe));
  }
  Cl bus;
  bus.bandwidth = rng.uniform_real(1e5, 1e7);
  for (std::size_t p = 0; p < system.arch.pe_count(); ++p)
    bus.attached.push_back(PeId{static_cast<PeId::value_type>(p)});
  system.arch.add_cl(bus);

  const int n_types = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<TaskTypeId> types;
  for (int k = 0; k < n_types; ++k) {
    const TaskTypeId type = system.tech.add_type(numbered('T', k));
    types.push_back(type);
    system.tech.set_implementation(type, sw, {10e-3, 0.1, 0.0});
    for (PeId pe : hw)
      if (rng.chance(0.7))
        system.tech.set_implementation(
            type, pe,
            {rng.uniform_real(0.5e-3, 3e-3), 1e-3,
             rng.chance(0.2) ? 300.0 : rng.uniform_real(50.0, 600.0)});
  }

  const int n_modes = static_cast<int>(rng.uniform_int(1, 4));
  for (int m = 0; m < n_modes; ++m) {
    Mode mode;
    mode.name = numbered('M', m);
    mode.probability = 1.0 / n_modes;
    mode.period = rng.uniform_real(1e-3, 30e-3);
    const int n_tasks = static_cast<int>(rng.uniform_int(3, 14));
    for (int t = 0; t < n_tasks; ++t) {
      const TaskId id = mode.graph.add_task(
          numbered('t', t),
          types[static_cast<std::size_t>(rng.uniform_int(0, n_types - 1))]);
      if (t > 0 && rng.chance(0.4))
        mode.graph.add_edge(
            TaskId{static_cast<TaskId::value_type>(rng.uniform_int(0, t - 1))},
            id, rng.uniform_real(0.0, 2000.0));
      if (rng.chance(0.1))
        mode.graph.set_deadline(id, rng.uniform_real(1e-3, 20e-3));
    }
    system.omsm.add_mode(std::move(mode));
  }
  return system;
}

/// A random mapping: each task on a PE that implements its type, biased
/// toward hardware so (PE, type) groups of several tasks are common.
MultiModeMapping random_mapping(const System& system, Rng& rng) {
  MultiModeMapping mapping;
  mapping.modes.resize(system.omsm.mode_count());
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    const TaskGraph& graph = system.omsm.modes()[m].graph;
    for (std::size_t t = 0; t < graph.task_count(); ++t) {
      const TaskTypeId type =
          graph.task(TaskId{static_cast<TaskId::value_type>(t)}).type;
      std::vector<PeId> hw;
      for (std::size_t p = 1; p < system.arch.pe_count(); ++p) {
        const PeId pe{static_cast<PeId::value_type>(p)};
        if (system.tech.supports(type, pe)) hw.push_back(pe);
      }
      mapping.modes[m].task_to_pe.push_back(
          hw.empty() || rng.chance(0.2)
              ? PeId{0}
              : hw[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(hw.size()) - 1))]);
    }
  }
  return mapping;
}

// Mobility analysis and the allocation builder must reproduce the frozen
// pre-rewrite kernels exactly on random systems. The builder is checked
// under the default options, with parallel cores off, with a mobility
// threshold of 0 (only zero-mobility tasks attract extra cores) and of 1.
// The counters make sure the draws really reached extra cores, per-mode
// FPGA sets and ASIC sets merged over modes.
TEST(AllocationBuilderProperty, MatchesFrozenReferenceOnRandomSystems) {
  Rng rng(20261018);
  std::vector<AllocationOptions> option_sets(4);
  option_sets[1].allocate_parallel_cores = false;
  option_sets[2].mobility_threshold = 0.0;
  option_sets[3].mobility_threshold = 1.0;
  int extra_cores = 0, fpga_per_mode = 0, asic_merged = 0;
  for (int draw = 0; draw < 300; ++draw) {
    const System system = random_system(rng);
    for (int k = 0; k < 4; ++k) {
      const MultiModeMapping mapping = random_mapping(system, rng);
      for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
        const Mode& mode = system.omsm.modes()[m];
        const MobilityInfo got = compute_mobility(
            mode, mapping.modes[m], system.arch, system.tech);
        const MobilityInfo want = refk::ref_compute_mobility(
            mode, mapping.modes[m], system.arch, system.tech);
        ASSERT_EQ(got.asap_start, want.asap_start) << "draw " << draw;
        ASSERT_EQ(got.alap_start, want.alap_start) << "draw " << draw;
        ASSERT_EQ(got.exec_time, want.exec_time) << "draw " << draw;
        ASSERT_EQ(got.mobility, want.mobility) << "draw " << draw;
        ASSERT_EQ(got.critical_path, want.critical_path) << "draw " << draw;
      }
      for (const AllocationOptions& options : option_sets) {
        const CoreAllocation got =
            build_core_allocation(system, mapping, options);
        const CoreAllocation want =
            refk::ref_build_core_allocation(system, mapping, options);
        ASSERT_EQ(got.per_mode, want.per_mode)
            << "draw " << draw << " mapping " << k << " parallel "
            << options.allocate_parallel_cores << " threshold "
            << options.mobility_threshold;
        for (std::size_t p = 1; p < system.arch.pe_count(); ++p) {
          const PeId pe{static_cast<PeId::value_type>(p)};
          const bool asic = system.arch.pe(pe).kind == PeKind::kAsic;
          std::size_t types_in_modes = 0;
          for (std::size_t m = 0; m < got.per_mode.size(); ++m) {
            const CoreSet& set = got.per_mode[m][p];
            for (const auto& [type, count] : set.entries())
              extra_cores += count > 1 ? 1 : 0;
            if (!asic && m > 0 && set != got.per_mode[0][p]) ++fpga_per_mode;
            for (const auto& tasks_pe : mapping.modes[m].task_to_pe)
              types_in_modes += tasks_pe == pe ? 1 : 0;
          }
          if (asic && got.per_mode.size() > 1 && types_in_modes > 0)
            ++asic_merged;
        }
      }
    }
  }
  EXPECT_GT(extra_cores, 100);
  EXPECT_GT(fpga_per_mode, 100);
  EXPECT_GT(asic_merged, 100);
}

}  // namespace
}  // namespace mmsyn
