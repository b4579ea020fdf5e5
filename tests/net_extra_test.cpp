/**
 * @file
 * Extended network-layer tests: tree collectives, adaptive algorithm
 * selection, fault-aware routing fallbacks, and contention-model
 * properties.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "hw/fault.hpp"
#include "hw/topology.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp::net {
namespace {

using hw::DieId;
using hw::MeshTopology;

class TreeAllReduce : public ::testing::TestWithParam<int>
{
};

TEST_P(TreeAllReduce, RoundCountIsLogarithmic)
{
    const int n = GetParam();
    MeshTopology mesh(4, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group;
    for (int i = 0; i < n; ++i)
        group.push_back(i);
    const CommSchedule s = sched.treeAllReduce(group, 1e6);
    const int log2n =
        static_cast<int>(std::ceil(std::log2(static_cast<double>(n))));
    EXPECT_EQ(s.roundCount(), 2 * log2n);
}

TEST_P(TreeAllReduce, ReducePhaseConvergesToRoot)
{
    // After the reduce phase, every rank's contribution must have
    // reached group[0] through some chain of transfers.
    const int n = GetParam();
    MeshTopology mesh(4, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group;
    for (int i = 0; i < n; ++i)
        group.push_back(i);
    const CommSchedule s = sched.treeAllReduce(group, 1e6);

    // Track which root each rank's data has merged into.
    std::vector<int> merged_into(n);
    for (int i = 0; i < n; ++i)
        merged_into[i] = i;
    const int log2n =
        static_cast<int>(std::ceil(std::log2(static_cast<double>(n))));
    for (int r = 0; r < log2n && r < s.roundCount(); ++r) {
        for (const Flow &f : s.round(r)) {
            for (int i = 0; i < n; ++i)
                if (group[merged_into[i]] == f.src)
                    for (int j = 0; j < n; ++j)
                        if (group[j] == f.dst)
                            merged_into[i] = j;
        }
    }
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(merged_into[i], 0) << "rank " << i << " never reduced";
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeAllReduce,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(TreeAllReduceFixed, MovesMoreBytesThanRingForLargeGroups)
{
    // Tree carries the full tensor per hop; ring only 2(N-1)/N of it.
    MeshTopology mesh(4, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{0, 1, 2, 3, 4, 5, 6, 7};
    const CommSchedule tree = sched.treeAllReduce(group, 8e6);
    const CommSchedule ring = sched.ringAllReduce(group, 8e6);
    EXPECT_GT(tree.payload_bytes, ring.payload_bytes * 0.9);
    // But uses far fewer rounds.
    EXPECT_LT(tree.roundCount(), ring.roundCount());
}

TEST(TreeAllReduceFixed, BestAllReducePicksTreeForSmallPayloads)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{0, 1, 2, 3, 4, 5, 6, 7};
    const double bw = 4e12;
    const double lat = 200e-9;

    // Tiny payload: latency dominates, tree's 2*log2(8)=6 rounds beat
    // the ring's 14.
    const CommSchedule small = sched.bestAllReduce(group, 1024.0, bw, lat);
    EXPECT_EQ(small.roundCount(), 6);
    // Huge payload: bandwidth dominates, ring wins.
    const CommSchedule big = sched.bestAllReduce(group, 1e9, bw, lat);
    EXPECT_EQ(big.roundCount(), 14);
}

TEST(TreeAllReduceFixed, DegenerateGroupIsFree)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    CollectiveScheduler sched(router);
    EXPECT_TRUE(sched.treeAllReduce({0}, 1e6).empty());
}

TEST(SafeRoute, PrefersXyFallsBackToYxThenBfs)
{
    MeshTopology mesh(3, 3);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    Router healthy(mesh, &faults);
    // Healthy: XY route.
    auto r = healthy.safeRoute(0, 8);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->hops(), 4);

    // Cut the first XY link (0->1 both ways): YX route still works.
    faults.failLink(mesh.linkId(0, 1));
    faults.failLink(mesh.linkId(1, 0));
    Router router(mesh, &faults);
    auto r2 = router.safeRoute(0, 8);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->hops(), 4);
    for (hw::LinkId l : r2->links)
        EXPECT_FALSE(faults.linkFailed(l));
}

TEST(SafeRoute, ReturnsNulloptOnPartition)
{
    MeshTopology mesh(1, 3);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    faults.failLink(mesh.linkId(1, 2));
    faults.failLink(mesh.linkId(2, 1));
    Router router(mesh, &faults);
    EXPECT_FALSE(router.safeRoute(0, 2).has_value());
    EXPECT_TRUE(router.safeRoute(0, 1).has_value());
}

TEST(MulticastFaults, IncompleteTreeFlagged)
{
    MeshTopology mesh(1, 4);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    faults.failLink(mesh.linkId(2, 3));
    faults.failLink(mesh.linkId(3, 2));
    Router router(mesh, &faults);
    const MulticastTree tree = buildMulticastTree(router, 0, {1, 2, 3});
    EXPECT_FALSE(tree.complete);
    // Reachable leaves are still covered.
    EXPECT_GE(tree.links.size(), 2u);
}

TEST(ContentionProperty, AddingFlowsNeverSpeedsUpPhase)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 200e-9);
    std::vector<Flow> flows;
    double prev = 0.0;
    for (int i = 0; i < 12; ++i) {
        Flow f;
        f.src = (i * 7) % 32;
        f.dst = (i * 13 + 5) % 32;
        if (f.src == f.dst)
            f.dst = (f.dst + 1) % 32;
        f.bytes = 32e6;
        f.route = router.intern(router.route(f.src, f.dst));
        flows.push_back(f);
        const double t = model.evaluate(flows).time_s;
        EXPECT_GE(t, prev - 1e-15) << "after flow " << i;
        prev = t;
    }
}

TEST(ContentionProperty, SerialTimeScalesLinearlyWithBytes)
{
    MeshTopology mesh(2, 4);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 200e-9);
    Flow f;
    f.src = 0;
    f.dst = 7;
    f.bytes = 1e6;
    f.route = router.intern(router.route(0, 7));
    const double t1 = model.evaluate({f}).serial_time_s;
    f.bytes = 4e6;
    const double t4 = model.evaluate({f}).serial_time_s;
    EXPECT_NEAR(t4 / t1, 4.0, 1e-9);
}

TEST(ContentionProperty, UtilisationBounded)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 4e12, 200e-9);
    std::vector<DieId> group;
    for (int i = 0; i < 32; ++i)
        group.push_back(i);
    const CommSchedule s = sched.ringAllReduce(group, 256e6);
    const PhaseTiming t = model.evaluateSequence(s);
    EXPECT_GT(t.bandwidth_utilization, 0.0);
    EXPECT_LE(t.bandwidth_utilization, 1.0 + 1e-9);
}

TEST(ContentionProperty, BottleneckIdentificationMatchesMaxLoad)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 0.0);
    std::vector<Flow> flows;
    for (DieId dst : {1, 2, 3}) {
        Flow f;
        f.src = 0;
        f.dst = dst;
        f.bytes = 1e6;
        f.route = router.intern(router.route(0, dst));
        flows.push_back(f);
    }
    const PhaseTiming t = model.evaluate(flows);
    // Link 0->1 carries all three flows.
    EXPECT_EQ(t.bottleneck_link, mesh.linkId(0, 1));
    EXPECT_DOUBLE_EQ(t.bottleneck_bytes, 3e6);
}

}  // namespace
}  // namespace temp::net
