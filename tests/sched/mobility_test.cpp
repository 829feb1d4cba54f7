#include "sched/mobility.hpp"

#include <gtest/gtest.h>

#include "model/system.hpp"

namespace mmsyn {
namespace {

/// Fixture: GPP + ASIC on one bus; chain a -> b -> c plus a parallel d.
class MobilityTest : public ::testing::Test {
 protected:
  MobilityTest() {
    Pe gpp;
    gpp.name = "GPP";
    pe0_ = system_.arch.add_pe(gpp);
    Pe asic;
    asic.name = "HW";
    asic.kind = PeKind::kAsic;
    asic.area_capacity = 1000.0;
    pe1_ = system_.arch.add_pe(asic);
    Cl bus;
    bus.bandwidth = 1e6;  // 1000 bits -> 1 ms
    bus.attached = {pe0_, pe1_};
    system_.arch.add_cl(bus);

    type_ = system_.tech.add_type("T");
    system_.tech.set_implementation(type_, pe0_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(type_, pe1_, {1e-3, 0.01, 100.0});

    mode_.name = "m";
    mode_.probability = 1.0;
    mode_.period = 100e-3;
    a_ = mode_.graph.add_task("a", type_);
    b_ = mode_.graph.add_task("b", type_);
    c_ = mode_.graph.add_task("c", type_);
    d_ = mode_.graph.add_task("d", type_);
    mode_.graph.add_edge(a_, b_, 1000.0);
    mode_.graph.add_edge(b_, c_, 1000.0);
  }

  ModeMapping all_on(PeId pe) const {
    ModeMapping m;
    m.task_to_pe.assign(mode_.graph.task_count(), pe);
    return m;
  }

  System system_;
  Mode mode_;
  PeId pe0_, pe1_;
  TaskTypeId type_;
  TaskId a_, b_, c_, d_;
};

TEST_F(MobilityTest, AsapFollowsChain) {
  const MobilityInfo info =
      compute_mobility(mode_, all_on(pe0_), system_.arch, system_.tech);
  // Same-PE edges cost nothing: chain at 0, 10, 20 ms.
  EXPECT_DOUBLE_EQ(info.asap_start[a_.index()], 0.0);
  EXPECT_DOUBLE_EQ(info.asap_start[b_.index()], 10e-3);
  EXPECT_DOUBLE_EQ(info.asap_start[c_.index()], 20e-3);
  EXPECT_DOUBLE_EQ(info.asap_start[d_.index()], 0.0);
  EXPECT_DOUBLE_EQ(info.critical_path, 30e-3);
}

TEST_F(MobilityTest, AlapAnchoredAtPeriod) {
  const MobilityInfo info =
      compute_mobility(mode_, all_on(pe0_), system_.arch, system_.tech);
  // c may finish at 100 ms -> start 90; b -> 80; a -> 70.
  EXPECT_DOUBLE_EQ(info.alap_start[c_.index()], 90e-3);
  EXPECT_DOUBLE_EQ(info.alap_start[b_.index()], 80e-3);
  EXPECT_DOUBLE_EQ(info.alap_start[a_.index()], 70e-3);
  EXPECT_DOUBLE_EQ(info.mobility[a_.index()], 70e-3);
  EXPECT_DOUBLE_EQ(info.mobility[d_.index()], 90e-3);
}

TEST_F(MobilityTest, DeadlineTightensAlap) {
  mode_.graph.set_deadline(c_, 40e-3);
  const MobilityInfo info =
      compute_mobility(mode_, all_on(pe0_), system_.arch, system_.tech);
  EXPECT_DOUBLE_EQ(info.alap_start[c_.index()], 30e-3);
  EXPECT_DOUBLE_EQ(info.mobility[c_.index()], 10e-3);
}

TEST_F(MobilityTest, CrossPeEdgesAddCommDelay) {
  ModeMapping mapping = all_on(pe0_);
  mapping.task_to_pe[b_.index()] = pe1_;  // a->b and b->c cross the bus
  const MobilityInfo info =
      compute_mobility(mode_, mapping, system_.arch, system_.tech);
  // a: 10 ms exec + 1 ms comm -> b at 11 ms; b: 1 ms exec (HW) + 1 ms comm.
  EXPECT_DOUBLE_EQ(info.asap_start[b_.index()], 11e-3);
  EXPECT_DOUBLE_EQ(info.asap_start[c_.index()], 13e-3);
}

TEST_F(MobilityTest, MappedExecTimesUsed) {
  const MobilityInfo sw =
      compute_mobility(mode_, all_on(pe0_), system_.arch, system_.tech);
  const MobilityInfo hw =
      compute_mobility(mode_, all_on(pe1_), system_.arch, system_.tech);
  EXPECT_DOUBLE_EQ(sw.exec_time[a_.index()], 10e-3);
  EXPECT_DOUBLE_EQ(hw.exec_time[a_.index()], 1e-3);
  EXPECT_LT(hw.critical_path, sw.critical_path);
}

TEST_F(MobilityTest, OvertightPeriodClampsMobilityAtZero) {
  mode_.period = 1e-3;  // far below the 30 ms critical path
  const MobilityInfo info =
      compute_mobility(mode_, all_on(pe0_), system_.arch, system_.tech);
  for (double m : info.mobility) EXPECT_GE(m, 0.0);
  // Chain tasks are fully constrained (anchor = critical path).
  EXPECT_DOUBLE_EQ(info.mobility[a_.index()], 0.0);
  EXPECT_DOUBLE_EQ(info.mobility[b_.index()], 0.0);
}

// Edge delays use the fastest CL joining the two PEs: a slow bus listed
// before and after the fast one must not win.
TEST_F(MobilityTest, FastestOfSeveralClsWins) {
  Cl slow;
  slow.bandwidth = 1e5;  // 1000 bits -> 10 ms
  slow.attached = {pe0_, pe1_};
  system_.arch.add_cl(slow);
  Cl fast;
  fast.bandwidth = 1e7;  // 1000 bits -> 0.1 ms
  fast.startup_latency = 0.05e-3;
  fast.attached = {pe1_, pe0_};
  system_.arch.add_cl(fast);
  system_.arch.add_cl(slow);
  ModeMapping mapping = all_on(pe0_);
  mapping.task_to_pe[b_.index()] = pe1_;
  const MobilityInfo info =
      compute_mobility(mode_, mapping, system_.arch, system_.tech);
  const double fast_delay = 0.05e-3 + 1000.0 / 1e7;
  EXPECT_DOUBLE_EQ(info.asap_start[b_.index()], 10e-3 + fast_delay);
  EXPECT_DOUBLE_EQ(info.asap_start[c_.index()],
                   10e-3 + fast_delay + 1e-3 + fast_delay);
}

// A PE pair no CL joins costs a finite 1e6 s per edge, so mobility stays
// defined and the list scheduler reports the infeasibility instead.
TEST_F(MobilityTest, UnconnectedPePairCostsOneMillionSeconds) {
  Pe island;
  island.name = "ISLAND";
  const PeId pe2 = system_.arch.add_pe(island);
  system_.tech.set_implementation(type_, pe2, {10e-3, 0.1, 0.0});
  ModeMapping mapping = all_on(pe0_);
  mapping.task_to_pe[b_.index()] = pe2;
  const MobilityInfo info =
      compute_mobility(mode_, mapping, system_.arch, system_.tech);
  EXPECT_DOUBLE_EQ(info.asap_start[b_.index()], 10e-3 + 1e6);
  EXPECT_DOUBLE_EQ(info.asap_start[c_.index()], 10e-3 + 1e6 + 10e-3 + 1e6);
  EXPECT_DOUBLE_EQ(info.critical_path, 30e-3 + 2e6);
}

// Links are PE-set membership: a CL listing a PE twice is still one link
// with one delay, and listing one PE twice does not join it to another.
TEST_F(MobilityTest, PeListedTwiceOnAClCountsAsOneLink) {
  ModeMapping mapping = all_on(pe0_);
  mapping.task_to_pe[b_.index()] = pe1_;
  const MobilityInfo single =
      compute_mobility(mode_, mapping, system_.arch, system_.tech);
  system_.arch.cl(ClId{0}).attached = {pe0_, pe1_, pe1_, pe0_};
  const MobilityInfo doubled =
      compute_mobility(mode_, mapping, system_.arch, system_.tech);
  EXPECT_EQ(doubled.asap_start, single.asap_start);
  EXPECT_EQ(doubled.alap_start, single.alap_start);
  EXPECT_DOUBLE_EQ(doubled.asap_start[b_.index()], 11e-3);

  system_.arch.cl(ClId{0}).attached = {pe0_, pe0_};
  const MobilityInfo cut =
      compute_mobility(mode_, mapping, system_.arch, system_.tech);
  EXPECT_DOUBLE_EQ(cut.asap_start[b_.index()], 10e-3 + 1e6);
}

}  // namespace
}  // namespace mmsyn
