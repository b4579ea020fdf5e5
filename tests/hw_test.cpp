/**
 * @file
 * Unit tests for the hardware substrate: configs, mesh/switch topologies,
 * fault maps, the Wafer object and signal-integrity feasibility.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hw/config.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"
#include "hw/wafer.hpp"

namespace temp::hw {
namespace {

TEST(Config, PaperDefaultMatchesTableOne)
{
    const WaferConfig config = WaferConfig::paperDefault();
    EXPECT_EQ(config.rows, 4);
    EXPECT_EQ(config.cols, 8);
    EXPECT_EQ(config.dieCount(), 32);
    EXPECT_DOUBLE_EQ(config.die.peak_flops, 1.8e15);
    EXPECT_DOUBLE_EQ(config.die.sram_bytes, 80e6);
    // Two 72 GB / 1 TB/s stacks per die (Table I per-stack ratings,
    // Fig. 3 floorplan).
    EXPECT_DOUBLE_EQ(config.hbm.capacity_bytes, 144e9);
    EXPECT_DOUBLE_EQ(config.hbm.bandwidth_bytes_per_s, 2e12);
    EXPECT_DOUBLE_EQ(config.d2d.bandwidth_bytes_per_s, 4e12);
    EXPECT_DOUBLE_EQ(config.d2d.latency_s, 200e-9);
}

TEST(Config, DerivedEnergyNumbers)
{
    const WaferConfig config = WaferConfig::paperDefault();
    // 2 TFLOPS/W -> 0.5 pJ/FLOP.
    EXPECT_NEAR(config.die.joulesPerFlop(), 0.5e-12, 1e-18);
    // 5 pJ/bit -> 40 pJ/B.
    EXPECT_NEAR(config.d2d.joulesPerByte(), 40e-12, 1e-18);
    EXPECT_NEAR(config.hbm.joulesPerByte(), 48e-12, 1e-18);
}

TEST(Config, EffectiveBandwidthRampsWithMessageSize)
{
    const D2dConfig d2d;
    const double peak = d2d.bandwidth_bytes_per_s;
    EXPECT_DOUBLE_EQ(d2d.effectiveBandwidth(d2d.efficient_transfer_bytes),
                     peak);
    EXPECT_DOUBLE_EQ(d2d.effectiveBandwidth(2 * d2d.efficient_transfer_bytes),
                     peak);
    EXPECT_LT(d2d.effectiveBandwidth(d2d.efficient_transfer_bytes / 4), peak);
    // Tiny messages are floored at 10% of peak.
    EXPECT_DOUBLE_EQ(d2d.effectiveBandwidth(1.0), 0.1 * peak);
}

TEST(Config, GridVariantKeepsDieConfig)
{
    const WaferConfig base = WaferConfig::paperDefault();
    const WaferConfig big = base.withGrid(8, 10);
    EXPECT_EQ(big.dieCount(), 80);
    EXPECT_DOUBLE_EQ(big.die.peak_flops, base.die.peak_flops);
}

TEST(Mesh, DieCoordRoundTrip)
{
    MeshTopology mesh(4, 8);
    for (DieId die = 0; die < mesh.dieCount(); ++die) {
        const DieCoord c = mesh.coordOf(die);
        EXPECT_EQ(mesh.dieAt(c.row, c.col), die);
    }
}

TEST(Mesh, LinkCountMatchesFormula)
{
    // Directed links on an R x C mesh: 2*(R*(C-1) + C*(R-1)).
    MeshTopology mesh(4, 8);
    EXPECT_EQ(mesh.linkCount(), 2 * (4 * 7 + 8 * 3));
}

TEST(Mesh, NeighborsAreAdjacent)
{
    MeshTopology mesh(3, 3);
    const DieId center = mesh.dieAt(1, 1);
    EXPECT_EQ(mesh.neighbors(center).size(), 4u);
    const DieId corner = mesh.dieAt(0, 0);
    EXPECT_EQ(mesh.neighbors(corner).size(), 2u);
    for (DieId n : mesh.neighbors(center))
        EXPECT_EQ(mesh.hopDistance(center, n), 1);
}

TEST(Mesh, HopDistanceIsManhattan)
{
    MeshTopology mesh(4, 8);
    EXPECT_EQ(mesh.hopDistance(mesh.dieAt(0, 0), mesh.dieAt(3, 7)), 10);
    EXPECT_EQ(mesh.hopDistance(mesh.dieAt(2, 3), mesh.dieAt(2, 3)), 0);
    EXPECT_EQ(mesh.hopDistance(mesh.dieAt(0, 0), mesh.dieAt(0, 7)), 7);
}

TEST(Mesh, LinkLookupIsConsistent)
{
    MeshTopology mesh(2, 2);
    const DieId a = mesh.dieAt(0, 0);
    const DieId b = mesh.dieAt(0, 1);
    ASSERT_TRUE(mesh.hasLink(a, b));
    const LinkId id = mesh.linkId(a, b);
    EXPECT_EQ(mesh.link(id).src, a);
    EXPECT_EQ(mesh.link(id).dst, b);
    // Reverse direction is a distinct link.
    EXPECT_NE(mesh.linkId(b, a), id);
    // No diagonal links.
    EXPECT_FALSE(mesh.hasLink(mesh.dieAt(0, 0), mesh.dieAt(1, 1)));
}

TEST(Mesh, TorusShortensWrapDistance)
{
    MeshTopology torus(4, 8, true);
    EXPECT_EQ(torus.hopDistance(torus.dieAt(0, 0), torus.dieAt(0, 7)), 1);
    EXPECT_TRUE(torus.hasLink(torus.dieAt(0, 0), torus.dieAt(0, 7)));
}

TEST(Mesh, PhysicalDistanceUsesDieFootprint)
{
    MeshTopology mesh(4, 8);
    const double d = mesh.physicalDistanceMm(mesh.dieAt(0, 0),
                                             mesh.dieAt(0, 1), 24.99, 33.25);
    EXPECT_NEAR(d, 24.99, 1e-9);
}

TEST(Switch, AllToAllHopDistance)
{
    SwitchTopology fabric(8);
    EXPECT_EQ(fabric.dieCount(), 8);
    EXPECT_EQ(fabric.hopDistance(0, 5), 2);
    EXPECT_EQ(fabric.hopDistance(3, 3), 0);
    EXPECT_EQ(fabric.neighbors(0).size(), 7u);
}

TEST(Switch, UplinkDownlinkIds)
{
    SwitchTopology fabric(4);
    EXPECT_EQ(fabric.linkCount(), 8);
    EXPECT_EQ(fabric.uplink(2), 4);
    EXPECT_EQ(fabric.downlink(2), 5);
    EXPECT_EQ(fabric.link(fabric.uplink(2)).src, 2);
    EXPECT_EQ(fabric.link(fabric.downlink(2)).dst, 2);
}

TEST(Fault, HealthyByDefault)
{
    MeshTopology mesh(4, 8);
    FaultMap map(mesh.dieCount(), mesh.linkCount());
    EXPECT_TRUE(map.healthy());
    EXPECT_DOUBLE_EQ(map.computeDerate(0), 1.0);
}

TEST(Fault, LinkFaultInjection)
{
    MeshTopology mesh(4, 8);
    FaultMap map(mesh.dieCount(), mesh.linkCount());
    const LinkId link = mesh.linkId(0, 1);
    map.failLink(link);
    EXPECT_TRUE(map.linkFailed(link));
    EXPECT_FALSE(map.healthy());
    EXPECT_EQ(map.failedLinkCount(), 1);
}

TEST(Fault, CoreFaultClampsToValidRange)
{
    FaultMap map(4, 0);
    map.setCoreFaultFraction(1, 2.0);
    EXPECT_DOUBLE_EQ(map.coreFaultFraction(1), 1.0);
    map.setCoreFaultFraction(1, -1.0);
    EXPECT_DOUBLE_EQ(map.coreFaultFraction(1), 0.0);
}

TEST(Fault, RandomLinkFaultsAreSymmetric)
{
    MeshTopology mesh(4, 8);
    Rng rng(3);
    const FaultMap map = FaultMap::randomLinkFaults(mesh, 0.3, rng);
    for (LinkId id = 0; id < mesh.linkCount(); ++id) {
        const Link &link = mesh.link(id);
        const LinkId rev = mesh.linkId(link.dst, link.src);
        EXPECT_EQ(map.linkFailed(id), map.linkFailed(rev));
    }
}

TEST(Fault, RandomLinkFaultRateIsApproximate)
{
    MeshTopology mesh(10, 10);
    Rng rng(5);
    const FaultMap map = FaultMap::randomLinkFaults(mesh, 0.2, rng);
    const double observed =
        static_cast<double>(map.failedLinkCount()) / mesh.linkCount();
    EXPECT_GT(observed, 0.08);
    EXPECT_LT(observed, 0.35);
}

TEST(Fault, RandomCoreFaultsDerateCompute)
{
    MeshTopology mesh(4, 8);
    Rng rng(9);
    const FaultMap map = FaultMap::randomCoreFaults(mesh, 0.1, rng);
    double total = 0.0;
    for (DieId die = 0; die < mesh.dieCount(); ++die) {
        EXPECT_GE(map.coreFaultFraction(die), 0.0);
        EXPECT_LE(map.coreFaultFraction(die), 0.9);
        total += map.coreFaultFraction(die);
    }
    const double avg = total / mesh.dieCount();
    EXPECT_GT(avg, 0.05);
    EXPECT_LT(avg, 0.15);
}

TEST(Wafer, EffectiveFlopsHonoursCoreFaults)
{
    WaferConfig config = WaferConfig::paperDefault();
    Wafer wafer(config);
    EXPECT_DOUBLE_EQ(wafer.effectiveFlops(0), config.die.peak_flops);

    FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.setCoreFaultFraction(0, 0.25);
    wafer.setFaults(faults);
    EXPECT_DOUBLE_EQ(wafer.effectiveFlops(0), 0.75 * config.die.peak_flops);
}

TEST(Wafer, LinkBandwidthZeroWhenFailed)
{
    Wafer wafer(WaferConfig::paperDefault());
    const LinkId link = wafer.topology().linkId(0, 1);
    EXPECT_GT(wafer.linkBandwidth(link), 0.0);

    FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(link);
    wafer.setFaults(faults);
    EXPECT_FALSE(wafer.linkUsable(link));
    EXPECT_DOUBLE_EQ(wafer.linkBandwidth(link), 0.0);
}

TEST(Wafer, SignalIntegrityForbidsLongLinks)
{
    // Sec. III-B: adjacent-die links are fine; wrap/diagonal links exceed
    // the 50 mm signal-integrity budget.
    Wafer wafer(WaferConfig::paperDefault());
    const MeshTopology &mesh = wafer.topology();
    EXPECT_TRUE(wafer.directLinkFeasible(mesh.dieAt(0, 0), mesh.dieAt(0, 1)));
    EXPECT_TRUE(wafer.directLinkFeasible(mesh.dieAt(0, 0), mesh.dieAt(1, 0)));
    EXPECT_FALSE(wafer.directLinkFeasible(mesh.dieAt(0, 0), mesh.dieAt(1, 1)));
    EXPECT_FALSE(wafer.directLinkFeasible(mesh.dieAt(0, 0), mesh.dieAt(0, 7)));
}

TEST(DieGroups, EqualContentInternsToOneHandle)
{
    const MeshTopology mesh(4, 8);
    DieGroupTable &table = mesh.dieGroups();
    const std::vector<DieId> dies{0, 1, 2, 3};
    const DieGroup *a = table.intern(dies);
    EXPECT_EQ(table.intern(std::vector<DieId>{0, 1, 2, 3}), a);
    EXPECT_EQ(a->dies, dies);
    EXPECT_EQ(a->hash, dieGroupHash(dies));
    EXPECT_EQ(a->table, &table);
    // Order is content: a reversed ring is another group.
    const DieGroup *b = table.intern(std::vector<DieId>{3, 2, 1, 0});
    EXPECT_NE(b, a);
    EXPECT_EQ(a->index, 0u);
    EXPECT_EQ(b->index, 1u);
    EXPECT_EQ(table.size(), 2u);
    // Each topology owns its table; the content hash does not move.
    const MeshTopology other(4, 8);
    const DieGroup *c = other.dieGroups().intern(dies);
    EXPECT_NE(c, a);
    EXPECT_EQ(c->hash, a->hash);
}

TEST(DieGroups, InternAllMatchesIntern)
{
    // Repeats inside one call, groups already resident and new ones
    // mixed: one internAll call hands out the handles (and intern
    // order) of intern() called group by group.
    const std::vector<std::vector<DieId>> lists{
        {0, 1}, {2, 3}, {0, 1}, {4, 5, 6}, {2, 3}, {7}, {3, 2}, {4, 5, 6}};
    const std::vector<std::span<const DieId>> groups(lists.begin(),
                                                     lists.end());
    const MeshTopology one_by_one(4, 8);
    const MeshTopology batched(4, 8);
    // One group is resident in both tables before the batch.
    one_by_one.dieGroups().intern(lists[3]);
    batched.dieGroups().intern(lists[3]);
    std::vector<const DieGroup *> expected;
    for (const std::vector<DieId> &dies : lists)
        expected.push_back(one_by_one.dieGroups().intern(dies));
    std::vector<const DieGroup *> handles(groups.size());
    batched.dieGroups().internAll(groups, handles);
    ASSERT_EQ(batched.dieGroups().size(), one_by_one.dieGroups().size());
    for (std::size_t i = 0; i < lists.size(); ++i) {
        EXPECT_EQ(handles[i], batched.dieGroups().intern(lists[i])) << i;
        EXPECT_EQ(handles[i]->index, expected[i]->index) << i;
        EXPECT_EQ(handles[i]->hash, expected[i]->hash) << i;
        EXPECT_EQ(handles[i]->dies, lists[i]) << i;
        EXPECT_EQ(handles[i]->table, &batched.dieGroups()) << i;
    }
    EXPECT_EQ(handles[0], handles[2]);
    EXPECT_EQ(handles[1], handles[4]);
    EXPECT_NE(handles[1], handles[6]);

    // An all-resident batch adds nothing.
    std::vector<const DieGroup *> again(groups.size());
    batched.dieGroups().internAll(groups, again);
    EXPECT_EQ(again, handles);
    EXPECT_EQ(batched.dieGroups().size(), 5u);

    // Four threads racing overlapping batches (and one thread calling
    // intern() alone) agree on one handle per content.
    const MeshTopology shared(4, 8);
    DieGroupTable &table = shared.dieGroups();
    std::vector<std::vector<DieId>> pool;
    for (DieId a = 0; a < 32; ++a)
        pool.push_back({a, (a + 1) % 32, (a + 5) % 32});
    std::vector<std::vector<const DieGroup *>> seen(
        5, std::vector<const DieGroup *>(pool.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            // Thread t walks the pool from its own offset, in batches
            // of seven that repeat one group.
            for (std::size_t begin = 0; begin < pool.size(); begin += 6) {
                std::vector<std::size_t> which;
                for (std::size_t k = begin; k < begin + 6; ++k)
                    which.push_back((k + 8 * t) % pool.size());
                which.push_back(which.front());
                std::vector<std::span<const DieId>> batch;
                for (std::size_t w : which)
                    batch.emplace_back(pool[w]);
                std::vector<const DieGroup *> out(batch.size());
                table.internAll(batch, out);
                for (std::size_t k = 0; k < which.size(); ++k)
                    seen[t][which[k]] = out[k];
            }
        });
    }
    threads.emplace_back([&] {
        for (std::size_t w = pool.size(); w-- > 0;)
            seen[4][w] = table.intern(pool[w]);
    });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(table.size(), pool.size());
    std::vector<bool> index_used(pool.size(), false);
    for (std::size_t w = 0; w < pool.size(); ++w) {
        const DieGroup *handle = seen[4][w];
        ASSERT_NE(handle, nullptr);
        EXPECT_EQ(handle->dies, pool[w]);
        ASSERT_LT(handle->index, pool.size());
        EXPECT_FALSE(index_used[handle->index]);
        index_used[handle->index] = true;
        for (int t = 0; t < 4; ++t)
            EXPECT_EQ(seen[t][w], handle) << "thread " << t << " group " << w;
    }
}

TEST(DieGroups, AdoptMovesEveryGroupIntoAnEmptyTable)
{
    hw::DieGroupTable from;
    const std::vector<hw::DieId> a{0, 1, 2, 3};
    const std::vector<hw::DieId> b{4, 5};
    const hw::DieGroup *ga = from.intern(a);
    const hw::DieGroup *gb = from.intern(b);

    // An empty table takes every group: same handles, same indices,
    // and the groups name it from then on.
    hw::DieGroupTable into;
    ASSERT_TRUE(into.adopt(from));
    EXPECT_EQ(from.size(), 0u);
    EXPECT_EQ(into.size(), 2u);
    EXPECT_EQ(ga->table, &into);
    EXPECT_EQ(gb->table, &into);
    EXPECT_EQ(ga->index, 0u);
    EXPECT_EQ(gb->index, 1u);
    EXPECT_EQ(into.intern(a), ga);
    EXPECT_EQ(into.intern(b), gb);
    const std::vector<hw::DieId> c{6, 7, 8};
    EXPECT_EQ(into.intern(c)->index, 2u);
    EXPECT_TRUE(into.allOf(
        [](const hw::DieGroup &group) { return !group.dies.empty(); }));
    EXPECT_FALSE(into.allOf(
        [](const hw::DieGroup &group) { return group.size() < 3; }));

    // A table holding any group takes nothing.
    hw::DieGroupTable other;
    const hw::DieGroup *gc = other.intern(c);
    EXPECT_FALSE(into.adopt(other));
    EXPECT_FALSE(into.adopt(into));
    EXPECT_EQ(other.size(), 1u);
    EXPECT_EQ(gc->table, &other);
    EXPECT_EQ(into.size(), 3u);
    // The emptied table interns afresh.
    EXPECT_EQ(from.intern(a)->index, 0u);
    EXPECT_NE(from.intern(a), ga);
}

TEST(DieGroups, FaultChangesNeverClearTheTable)
{
    Wafer wafer(WaferConfig::paperDefault());
    const DieGroup *group =
        wafer.topology().dieGroups().intern(std::vector<DieId>{4, 5});
    FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(4, 5));
    wafer.setFaults(faults);
    EXPECT_EQ(wafer.topology().dieGroups().intern(std::vector<DieId>{4, 5}),
              group);
    EXPECT_EQ(group->dies, (std::vector<DieId>{4, 5}));
}

TEST(Wafer, UsableDiesAreStoredAndFollowSetFaults)
{
    Wafer wafer(WaferConfig::paperDefault());
    const std::vector<DieId> &usable = wafer.usableDies();
    EXPECT_EQ(&wafer.usableDies(), &usable);  // no recomputation
    EXPECT_EQ(wafer.usableDieCount(), 32);

    FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.setCoreFaultFraction(7, 1.0);
    wafer.setFaults(faults);
    EXPECT_EQ(wafer.usableDieCount(), 31);
    EXPECT_EQ(std::count(usable.begin(), usable.end(), 7), 0);

    wafer.setFaults(FaultMap(wafer.dieCount(), wafer.topology().linkCount()));
    EXPECT_EQ(wafer.usableDieCount(), 32);
}

}  // namespace
}  // namespace temp::hw
