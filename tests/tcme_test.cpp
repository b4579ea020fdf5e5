/**
 * @file
 * Unit tests for TCME: the traffic-conscious communication optimizer
 * (Fig. 11) and the mapping-engine policies.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"
#include "tcme/mapping_policy.hpp"
#include "tcme/optimizer.hpp"

namespace temp::tcme {
namespace {

using hw::DieId;
using hw::MeshTopology;
using net::Flow;
using parallel::Axis;

Flow
makeFlow(const net::Router &router, DieId src, DieId dst, double bytes,
         int tag = 0)
{
    Flow f;
    f.src = src;
    f.dst = dst;
    f.bytes = bytes;
    f.route = router.intern(router.route(src, dst));
    f.tag = tag;
    return f;
}

TEST(Optimizer, ReroutesContendingFlowsOntoIdleLinks)
{
    // The Fig. 5(b) scenario on a 2 x 4 mesh: two flows forced through
    // link 1->2 by XY routing while the second row sits idle.
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);

    std::vector<Flow> flows;
    flows.push_back(makeFlow(router, mesh.dieAt(0, 0), mesh.dieAt(0, 2),
                             1e9, 1));
    flows.push_back(makeFlow(router, mesh.dieAt(0, 1), mesh.dieAt(0, 3),
                             1e9, 2));

    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_DOUBLE_EQ(stats.initial_max_load, 2e9);
    EXPECT_LT(stats.final_max_load, 2e9);
    EXPECT_GE(stats.reroutes, 1);
    EXPECT_GE(stats.improvement(), 1.9);

    // Verify with the contention model: the optimized phase is faster.
    net::ContentionModel model(mesh, 4e12, 0.0);
    EXPECT_NEAR(model.evaluate(flows).time_s, 1e9 / 4e12, 1e-9);
}

TEST(Optimizer, MergesDuplicatePayloadsIntoMulticast)
{
    // One source sends the same payload to three dies down a line; the
    // unicasts pile 3x the load on the first link. Merging folds them
    // into a tree with one copy per link.
    MeshTopology mesh(1, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);

    std::vector<Flow> flows;
    for (DieId dst : {1, 2, 3})
        flows.push_back(makeFlow(router, 0, dst, 1e9, 7));

    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_GE(stats.merges, 1);
    EXPECT_DOUBLE_EQ(stats.initial_max_load, 3e9);
    EXPECT_DOUBLE_EQ(stats.final_max_load, 1e9);
    // Tree has 3 links, each carrying the payload once.
    EXPECT_EQ(flows.size(), 3u);
    for (const Flow &f : flows)
        EXPECT_EQ(f.route.hops(), 1);
}

TEST(Optimizer, LeavesContentionFreePhasesAlone)
{
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);
    std::vector<Flow> flows;
    flows.push_back(makeFlow(router, mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                             1e9, 1));
    flows.push_back(makeFlow(router, mesh.dieAt(1, 0), mesh.dieAt(1, 1),
                             1e9, 2));
    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_EQ(stats.reroutes, 0);
    EXPECT_DOUBLE_EQ(stats.final_max_load, stats.initial_max_load);
}

TEST(Optimizer, RespectsDisabledFeatures)
{
    MeshTopology mesh(1, 4);
    net::Router router(mesh);
    TrafficOptimizer::Config config;
    config.enable_merging = false;
    config.enable_rerouting = false;
    TrafficOptimizer opt(router, config);

    std::vector<Flow> flows;
    for (DieId dst : {1, 2, 3})
        flows.push_back(makeFlow(router, 0, dst, 1e9, 7));
    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_EQ(stats.merges, 0);
    EXPECT_EQ(stats.reroutes, 0);
    EXPECT_DOUBLE_EQ(stats.final_max_load, stats.initial_max_load);
}

TEST(Optimizer, OptimizesWholeSchedules)
{
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    TrafficOptimizer opt(router);
    net::CommSchedule sched;
    for (int r = 0; r < 2; ++r) {
        sched.addFlow(
            makeFlow(router, mesh.dieAt(0, 0), mesh.dieAt(0, 2), 1e9, 1));
        sched.addFlow(
            makeFlow(router, mesh.dieAt(0, 1), mesh.dieAt(0, 3), 1e9, 2));
        sched.sealRound();
    }
    const OptimizationStats stats = opt.optimize(sched);
    EXPECT_EQ(stats.phases, 2);
    EXPECT_LT(stats.final_max_load, stats.initial_max_load);
}

TEST(Optimizer, EmptyPhaseIsNoop)
{
    MeshTopology mesh(2, 2);
    net::Router router(mesh);
    TrafficOptimizer opt(router);
    std::vector<Flow> flows;
    const OptimizationStats stats = opt.optimizePhase(flows);
    EXPECT_DOUBLE_EQ(stats.initial_max_load, 0.0);
    EXPECT_EQ(stats.iterations, 0);
}

TEST(Policy, SMapOrderIsFixed)
{
    const auto order = MappingPolicy::smapOrder();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(Axis::Count));
    EXPECT_EQ(order.front(), Axis::DP);
    EXPECT_EQ(order.back(), Axis::TATP);
}

TEST(Policy, GMapOrdersByVolume)
{
    AxisVolumes volumes{};
    volumes[static_cast<std::size_t>(Axis::TP)] = 100.0;
    volumes[static_cast<std::size_t>(Axis::DP)] = 10.0;
    const auto order = MappingPolicy::gmapOrder(volumes);
    EXPECT_EQ(order.front(), Axis::TP);
}

TEST(Policy, TcmePinsTatpInnermost)
{
    AxisVolumes volumes{};
    volumes[static_cast<std::size_t>(Axis::TP)] = 1e12;
    volumes[static_cast<std::size_t>(Axis::TATP)] = 1.0;
    const auto order = MappingPolicy::tcmeOrder(volumes);
    EXPECT_EQ(order.front(), Axis::TATP);
    EXPECT_EQ(order[1], Axis::TP);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(Axis::Count));
}

TEST(Policy, ContentionOptOnlyForTcme)
{
    EXPECT_TRUE(MappingPolicy{MappingEngineKind::TCME}
                    .contentionOptimization());
    EXPECT_FALSE(MappingPolicy{MappingEngineKind::SMap}
                     .contentionOptimization());
    EXPECT_FALSE(MappingPolicy{MappingEngineKind::GMap}
                     .contentionOptimization());
}

TEST(Policy, EngineNames)
{
    EXPECT_STREQ(mappingEngineName(MappingEngineKind::SMap), "SMap");
    EXPECT_STREQ(mappingEngineName(MappingEngineKind::TCME), "TCME");
}


/// The schedule with every executed round stored on its own (repeat 1):
/// the reference the run-length paths must match.
net::CommSchedule
expanded(const net::CommSchedule &s)
{
    net::CommSchedule out;
    out.payload_bytes = s.payload_bytes;
    out.feasible = s.feasible;
    for (int r = 0; r < s.roundCount(); ++r) {
        for (const Flow &flow : s.round(r))
            out.addFlow(flow);
        out.sealRound();
    }
    return out;
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(Optimizer, RunLengthScheduleOptimizesLikeItsExpansion)
{
    // Optimizing each stored run once (stats scaled by its repeat) must
    // equal optimizing every executed round of the expanded schedule:
    // same rounds, same stats, same timing bits. Overlapping rings that
    // share a tag and shard size put same-source, same-payload flows in
    // one round, so merges fire; the faulted mesh forces detours and
    // congestion, so reroutes fire.
    MeshTopology mesh(4, 6);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    for (const auto &[a, b] : {std::pair{mesh.dieAt(1, 2), mesh.dieAt(1, 3)},
                               std::pair{mesh.dieAt(2, 1), mesh.dieAt(2, 2)},
                               std::pair{mesh.dieAt(0, 4), mesh.dieAt(1, 4)}}) {
        faults.failLink(mesh.linkId(a, b));
        faults.failLink(mesh.linkId(b, a));
    }
    const net::Router router(mesh, &faults);
    const net::CollectiveScheduler sched(router);
    const TrafficOptimizer opt(router);
    const net::ContentionModel model(mesh, 1e11, 50e-9);

    Rng rng(31);
    std::vector<DieId> dies(static_cast<std::size_t>(mesh.dieCount()));
    for (std::size_t d = 0; d < dies.size(); ++d)
        dies[d] = static_cast<DieId>(d);
    int merges = 0;
    int reroutes = 0;
    int repeated_merges = 0;    // inside runs that repeat
    int repeated_reroutes = 0;
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<net::CommSchedule> parts;
        const int count = rng.uniformInt(2, 5);
        const double shard = 1e6 * rng.uniformInt(1, 4);
        for (int p = 0; p < count; ++p) {
            std::shuffle(dies.begin(), dies.end(), rng.engine());
            const int n = rng.uniformInt(2, 9);
            const std::vector<DieId> group(dies.begin(), dies.begin() + n);
            switch (rng.uniformInt(0, 3)) {
              case 0:
                parts.push_back(sched.ringAllGather(group, shard, 1));
                break;
              case 1:
                parts.push_back(sched.ringAllReduce(group, shard * n, 1));
                break;
              case 2:
                parts.push_back(sched.treeAllReduce(group, shard, 2));
                break;
              default:
                parts.push_back(sched.p2p(group[0], group[1], shard, 1));
            }
        }
        std::vector<const net::CommSchedule *> ptrs;
        for (const net::CommSchedule &part : parts)
            ptrs.push_back(&part);
        net::CommSchedule runs = net::CommSchedule::combine(ptrs);
        ASSERT_TRUE(runs.feasible);
        net::CommSchedule oracle = expanded(runs);
        for (int i = 0; i < runs.runCount(); ++i) {
            if (runs.repeat(i) == 1)
                continue;
            std::vector<Flow> flows(runs.run(i).begin(), runs.run(i).end());
            const OptimizationStats s = opt.optimizePhase(flows);
            repeated_merges += s.merges;
            repeated_reroutes += s.reroutes;
        }

        const OptimizationStats got = opt.optimize(runs);
        const OptimizationStats want = opt.optimize(oracle);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.reroutes, want.reroutes);
        EXPECT_EQ(got.merges, want.merges);
        EXPECT_EQ(got.phases, want.phases);
        EXPECT_EQ(bits(got.initial_max_load), bits(want.initial_max_load));
        EXPECT_EQ(bits(got.final_max_load), bits(want.final_max_load));
        merges += got.merges;
        reroutes += got.reroutes;

        ASSERT_EQ(runs.roundCount(), oracle.roundCount()) << trial;
        for (int r = 0; r < runs.roundCount(); ++r) {
            const auto a = runs.round(r);
            const auto b = oracle.round(r);
            ASSERT_EQ(a.size(), b.size()) << "trial " << trial;
            for (std::size_t f = 0; f < a.size(); ++f) {
                EXPECT_EQ(a[f].src, b[f].src);
                EXPECT_EQ(a[f].dst, b[f].dst);
                EXPECT_EQ(bits(a[f].bytes), bits(b[f].bytes));
                EXPECT_EQ(a[f].tag, b[f].tag);
                EXPECT_EQ(a[f].route.links(), b[f].route.links());
            }
        }
        EXPECT_EQ(runs.flowCount(), oracle.flowCount());
        EXPECT_EQ(bits(runs.payload_bytes), bits(oracle.payload_bytes));
        EXPECT_EQ(bits(runs.linkBytes()), bits(oracle.linkBytes()));
        const net::PhaseTiming a = model.evaluateSequence(runs);
        const net::PhaseTiming b = model.evaluateSequence(oracle);
        EXPECT_EQ(bits(a.time_s), bits(b.time_s));
        EXPECT_EQ(bits(a.link_bytes), bits(b.link_bytes));
        EXPECT_EQ(bits(a.bandwidth_utilization),
                  bits(b.bandwidth_utilization));
        EXPECT_EQ(a.bottleneck_link, b.bottleneck_link);
    }
    // The oracle is only meaningful if the rewrites actually fired.
    EXPECT_GT(merges, 0);
    EXPECT_GT(reroutes, 0);
    EXPECT_GT(repeated_merges, 0);
    EXPECT_GT(repeated_reroutes, 0);
}

/// Dense per-link loads scanned in full: the reference's own load
/// picture, independent of net::LinkLoadMap.
struct DenseLoads
{
    std::vector<double> load;

    void add(const net::RouteRef &route, double bytes)
    {
        for (hw::LinkId link : route.links())
            load[link] += bytes;
    }

    void remove(const net::RouteRef &route, double bytes)
    {
        for (hw::LinkId link : route.links())
            load[link] = std::max(0.0, load[link] - bytes);
    }

    /// The first (smallest-id) maximum; link 0 when all are zero.
    hw::LinkId maxLoadLink() const
    {
        hw::LinkId best = 0;
        for (hw::LinkId link = 1; link < static_cast<int>(load.size());
             ++link)
            if (load[link] > load[best])
                best = link;
        return best;
    }

    double maxLoad() const
    {
        double best = 0.0;
        for (double l : load)
            best = std::max(best, l);
        return best;
    }
};

/**
 * The optimizer as it was before its bottleneck flows were collected
 * once per iteration: merge and reroute each re-scan every flow's
 * route for the bottleneck, a merge erases the merged flows one by one
 * and builds each tree with the allocating buildMulticastTree, and
 * loads live in a dense vector scanned in full. The reference the
 * reworked optimizer must match flow for flow.
 */
class ReferenceOptimizer
{
  public:
    explicit ReferenceOptimizer(const net::Router &router) : router_(router)
    {
    }

    OptimizationStats optimizePhase(std::vector<Flow> &flows) const
    {
        OptimizationStats stats;
        stats.phases = 1;
        if (flows.empty())
            return stats;
        DenseLoads loads{std::vector<double>(
            static_cast<std::size_t>(router_.topology().linkCount()), 0.0)};
        for (const Flow &flow : flows)
            loads.add(flow.route, flow.bytes);
        hw::LinkId mcl = loads.maxLoadLink();
        double cur = loads.load[mcl];
        stats.initial_max_load = cur;
        double prev = 2.0 * cur;
        while (cur < prev && cur > 0.0) {
            if (stats.iterations >= TrafficOptimizer::Config().max_iters)
                break;
            prev = cur;
            ++stats.iterations;
            high_bottlenecks += mcl >= net::Route::kMaskLinks ? 1 : 0;
            stats.merges += mergeDuplicates(flows, loads, mcl);
            stats.reroutes += rerouteCongested(flows, loads, mcl);
            mcl = loads.maxLoadLink();
            cur = loads.load[mcl];
        }
        stats.final_max_load = loads.maxLoad();
        return stats;
    }

    /// Iterations whose bottleneck lies beyond the route masks.
    mutable int high_bottlenecks = 0;

  private:
    static bool crosses(const Flow &flow, hw::LinkId mcl)
    {
        const auto &links = flow.route.links();
        return std::find(links.begin(), links.end(), mcl) != links.end();
    }

    int mergeDuplicates(std::vector<Flow> &flows, DenseLoads &loads,
                        hw::LinkId mcl) const
    {
        struct Entry
        {
            hw::DieId src;
            int tag;
            long long bytes_q;
            std::size_t flow;
            auto operator<=>(const Entry &) const = default;
        };
        std::vector<Entry> entries;
        for (std::size_t i = 0; i < flows.size(); ++i)
            if (crosses(flows[i], mcl))
                entries.push_back({flows[i].src, flows[i].tag,
                                   static_cast<long long>(flows[i].bytes),
                                   i});
        std::sort(entries.begin(), entries.end());
        int merges = 0;
        std::vector<std::size_t> to_remove;
        std::vector<Flow> to_add;
        for (std::size_t begin = 0, end = 0; begin < entries.size();
             begin = end) {
            const Entry &key = entries[begin];
            for (end = begin + 1; end < entries.size(); ++end)
                if (entries[end].src != key.src ||
                    entries[end].tag != key.tag ||
                    entries[end].bytes_q != key.bytes_q)
                    break;
            if (end - begin < 2)
                continue;
            std::vector<DieId> leaves;
            for (std::size_t e = begin; e < end; ++e)
                leaves.push_back(flows[entries[e].flow].dst);
            const net::MulticastTree tree =
                net::buildMulticastTree(router_, key.src, leaves);
            if (!tree.complete)
                continue;
            const double bytes = flows[key.flow].bytes;
            double before = 0.0;
            for (std::size_t e = begin; e < end; ++e)
                before += bytes * flows[entries[e].flow].route.hops();
            const double after =
                bytes * static_cast<double>(tree.links.size());
            if (after >= before)
                continue;
            for (std::size_t e = begin; e < end; ++e) {
                const Flow &f = flows[entries[e].flow];
                loads.remove(f.route, f.bytes);
                to_remove.push_back(entries[e].flow);
            }
            for (hw::LinkId link : tree.links) {
                Flow branch;
                const hw::Link &l = router_.topology().link(link);
                branch.src = l.src;
                branch.dst = l.dst;
                branch.bytes = bytes;
                branch.tag = key.tag;
                branch.route = router_.linkRoute(link);
                loads.add(branch.route, branch.bytes);
                to_add.push_back(branch);
            }
            ++merges;
        }
        std::sort(to_remove.begin(), to_remove.end(), std::greater<>());
        for (std::size_t i : to_remove)
            flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(i));
        flows.insert(flows.end(), to_add.begin(), to_add.end());
        return merges;
    }

    int rerouteCongested(std::vector<Flow> &flows, DenseLoads &loads,
                         hw::LinkId mcl) const
    {
        std::vector<std::size_t> hot;
        for (std::size_t i = 0; i < flows.size(); ++i)
            if (crosses(flows[i], mcl))
                hot.push_back(i);
        std::sort(hot.begin(), hot.end(),
                  [&](std::size_t a, std::size_t b) {
                      return flows[a].bytes > flows[b].bytes;
                  });
        int reroutes = 0;
        for (std::size_t i : hot) {
            Flow &flow = flows[i];
            loads.remove(flow.route, flow.bytes);
            auto route_peak = [&](const net::RouteRef &r) {
                double peak = 0.0;
                for (hw::LinkId link : r.links())
                    peak = std::max(peak, loads.load[link] + flow.bytes);
                return peak;
            };
            net::RouteRef best = flow.route;
            double best_peak = route_peak(flow.route);
            for (const net::RouteRef &cand :
                 router_.candidateRouteRefs(flow.src, flow.dst)) {
                const double peak = route_peak(cand);
                if (peak < best_peak) {
                    best_peak = peak;
                    best = cand;
                }
            }
            if (!best.sameLinks(flow.route)) {
                flow.route = best;
                ++reroutes;
            }
            loads.add(flow.route, flow.bytes);
        }
        return reroutes;
    }

    const net::Router &router_;
};

void
expectSameFlows(std::span<const Flow> a, std::span<const Flow> b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) {
        EXPECT_EQ(a[f].src, b[f].src) << "flow " << f;
        EXPECT_EQ(a[f].dst, b[f].dst) << "flow " << f;
        EXPECT_EQ(bits(a[f].bytes), bits(b[f].bytes)) << "flow " << f;
        EXPECT_EQ(a[f].tag, b[f].tag) << "flow " << f;
        EXPECT_EQ(a[f].route.links(), b[f].route.links()) << "flow " << f;
    }
}

/**
 * A random phase on `router`'s mesh: two to six lowered collectives
 * sharing tags and shard sizes (so same-source, same-payload flows
 * meet and merge) plus unicast fans (a broadcast lowered to unicasts),
 * combined into one schedule. `dies` lists every die; it is shuffled.
 */
net::CommSchedule
randomSchedule(const net::Router &router,
               const net::CollectiveScheduler &sched, Rng &rng,
               std::vector<DieId> &dies)
{
    std::vector<net::CommSchedule> parts;
    const int count = rng.uniformInt(2, 6);
    const double shard = 1e6 * rng.uniformInt(1, 3);
    for (int p = 0; p < count; ++p) {
        std::shuffle(dies.begin(), dies.end(), rng.engine());
        const int n = rng.uniformInt(2, 12);
        const std::vector<DieId> group(dies.begin(), dies.begin() + n);
        const int tag = rng.uniformInt(1, 2);
        switch (rng.uniformInt(0, 4)) {
          case 0:
            parts.push_back(sched.ringAllGather(group, shard, tag));
            break;
          case 1:
            parts.push_back(sched.ringAllReduce(group, shard * n, tag));
            break;
          case 2:
            parts.push_back(sched.treeAllReduce(group, shard, tag));
            break;
          case 3: {
            net::CommSchedule fan;
            fan.feasible = true;
            for (int k = 1; k < n; ++k) {
                Flow f;
                f.src = group[0];
                f.dst = group[k];
                f.bytes = shard;
                f.tag = tag;
                f.route = router.safeRouteRef(group[0], group[k]);
                fan.addFlow(f);
            }
            fan.sealRound();
            parts.push_back(std::move(fan));
            break;
          }
          default:
            parts.push_back(sched.p2p(group[0], group[1], shard, tag));
        }
    }
    std::vector<const net::CommSchedule *> ptrs;
    for (const net::CommSchedule &part : parts)
        ptrs.push_back(&part);
    return net::CommSchedule::combine(ptrs);
}

/**
 * Random phases (randomSchedule) on a healthy and a link-faulted copy
 * of `mesh`. Run by run, the optimizer must leave the reference's flows
 * in the reference's order with the reference's stats, and optimize()
 * must sum them per repeat.
 */
void
expectOptimizerMatchesReference(const MeshTopology &mesh)
{
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    for (const auto &[a, b] : {std::pair{mesh.dieAt(1, 2), mesh.dieAt(1, 3)},
                               std::pair{mesh.dieAt(2, 5), mesh.dieAt(2, 6)},
                               std::pair{mesh.dieAt(0, 4), mesh.dieAt(1, 4)},
                               std::pair{mesh.dieAt(2, 1), mesh.dieAt(3, 1)}}) {
        faults.failLink(mesh.linkId(a, b));
        faults.failLink(mesh.linkId(b, a));
    }
    int merges = 0;
    int reroutes = 0;
    int high_bottlenecks = 0;
    const hw::FaultMap *healthy = nullptr;
    for (const hw::FaultMap *fault_map : {healthy, &std::as_const(faults)}) {
        const net::Router router(mesh, fault_map);
        const net::CollectiveScheduler sched(router);
        const TrafficOptimizer opt(router);
        const ReferenceOptimizer reference(router);
        Rng rng(fault_map == nullptr ? 7 : 8);
        std::vector<DieId> dies(static_cast<std::size_t>(mesh.dieCount()));
        for (std::size_t d = 0; d < dies.size(); ++d)
            dies[d] = static_cast<DieId>(d);
        for (int trial = 0; trial < 40; ++trial) {
            net::CommSchedule schedule =
                randomSchedule(router, sched, rng, dies);
            if (!schedule.feasible)
                continue;

            OptimizationStats want;
            std::vector<std::vector<Flow>> want_runs;
            for (int i = 0; i < schedule.runCount(); ++i) {
                std::vector<Flow> got(schedule.run(i).begin(),
                                      schedule.run(i).end());
                std::vector<Flow> ref = got;
                const OptimizationStats g = opt.optimizePhase(got);
                const OptimizationStats r = reference.optimizePhase(ref);
                SCOPED_TRACE(testing::Message() << "trial " << trial
                                                << " run " << i);
                expectSameFlows(got, ref);
                EXPECT_EQ(g.iterations, r.iterations);
                EXPECT_EQ(g.merges, r.merges);
                EXPECT_EQ(g.reroutes, r.reroutes);
                EXPECT_EQ(bits(g.initial_max_load), bits(r.initial_max_load));
                EXPECT_EQ(bits(g.final_max_load), bits(r.final_max_load));
                const int repeat = static_cast<int>(schedule.repeat(i));
                want.initial_max_load =
                    std::max(want.initial_max_load, r.initial_max_load);
                want.final_max_load =
                    std::max(want.final_max_load, r.final_max_load);
                want.iterations += r.iterations * repeat;
                want.merges += r.merges * repeat;
                want.reroutes += r.reroutes * repeat;
                want.phases += repeat;
                merges += r.merges;
                reroutes += r.reroutes;
                want_runs.push_back(std::move(ref));
            }

            const OptimizationStats got = opt.optimize(schedule);
            EXPECT_EQ(got.iterations, want.iterations);
            EXPECT_EQ(got.merges, want.merges);
            EXPECT_EQ(got.reroutes, want.reroutes);
            EXPECT_EQ(got.phases, want.phases);
            EXPECT_EQ(bits(got.initial_max_load),
                      bits(want.initial_max_load));
            EXPECT_EQ(bits(got.final_max_load), bits(want.final_max_load));
            ASSERT_EQ(schedule.runCount(),
                      static_cast<int>(want_runs.size()));
            for (int i = 0; i < schedule.runCount(); ++i)
                expectSameFlows(schedule.run(i), want_runs[i]);
        }
        high_bottlenecks += reference.high_bottlenecks;
    }
    // The comparison only means something if both rewrites fired, and
    // on the large mesh only if some bottleneck lay beyond the masks.
    EXPECT_GT(merges, 0);
    EXPECT_GT(reroutes, 0);
    if (mesh.linkCount() > net::Route::kMaskLinks)
        EXPECT_GT(high_bottlenecks, 0);
    else
        EXPECT_EQ(high_bottlenecks, 0);
}

TEST(Optimizer, MatchesTheRescanningReference)
{
    // The 4x8 mesh (104 links) finds bottleneck flows through route
    // masks and keeps its loads under a touched-link mask; the 8x10
    // mesh (284 links) also scans routes for bottlenecks beyond the
    // masks, and keeps its loads in the touched-list form.
    for (const auto &[rows, cols] : {std::pair{4, 8}, std::pair{8, 10}}) {
        SCOPED_TRACE(testing::Message() << rows << "x" << cols);
        expectOptimizerMatchesReference(MeshTopology(rows, cols));
    }
}

TEST(Optimizer, ConcurrentThreadsMatchOneThread)
{
    // Four threads optimize the same runs through one router whose
    // candidate and link-route tables start empty, so their misses race
    // while each thread reuses its own load map, bottleneck list and
    // tree buffers. Every run must come out as one thread leaves it on
    // a router of its own. The 8x10 mesh keeps its loads in the
    // touched-list form.
    constexpr int kThreads = 4;
    for (const auto &[rows, cols] : {std::pair{4, 8}, std::pair{8, 10}}) {
        SCOPED_TRACE(testing::Message() << rows << "x" << cols);
        const MeshTopology mesh(rows, cols);
        hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
        for (const auto &[a, b] :
             {std::pair{mesh.dieAt(1, 2), mesh.dieAt(1, 3)},
              std::pair{mesh.dieAt(2, 5), mesh.dieAt(2, 6)}}) {
            faults.failLink(mesh.linkId(a, b));
            faults.failLink(mesh.linkId(b, a));
        }
        // The stored runs of seeded random phases, lowered on `router`.
        const auto lowerRuns = [&](const net::Router &router) {
            const net::CollectiveScheduler sched(router);
            Rng rng(11);
            std::vector<DieId> dies(static_cast<std::size_t>(mesh.dieCount()));
            for (std::size_t d = 0; d < dies.size(); ++d)
                dies[d] = static_cast<DieId>(d);
            std::vector<std::vector<Flow>> runs;
            for (int trial = 0; trial < 30; ++trial) {
                const net::CommSchedule schedule =
                    randomSchedule(router, sched, rng, dies);
                if (!schedule.feasible)
                    continue;
                for (int i = 0; i < schedule.runCount(); ++i)
                    runs.emplace_back(schedule.run(i).begin(),
                                      schedule.run(i).end());
            }
            return runs;
        };

        const net::Router own(mesh, &faults);
        std::vector<std::vector<Flow>> want = lowerRuns(own);
        const TrafficOptimizer serial(own);
        for (std::vector<Flow> &run : want)
            serial.optimizePhase(run);

        const net::Router shared(mesh, &faults);
        const TrafficOptimizer concurrent(shared);
        std::vector<std::vector<std::vector<Flow>>> got(kThreads,
                                                        lowerRuns(shared));
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                std::vector<std::vector<Flow>> &mine = got[t];
                const std::size_t n = mine.size();
                for (std::size_t k = 0; k < n; ++k)
                    concurrent.optimizePhase(mine[(k + t * n / kThreads) % n]);
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        for (int t = 0; t < kThreads; ++t) {
            ASSERT_EQ(got[t].size(), want.size());
            for (std::size_t r = 0; r < want.size(); ++r) {
                SCOPED_TRACE(testing::Message() << "thread " << t << " run "
                                                << r);
                expectSameFlows(got[t][r], want[r]);
            }
        }
    }
}

}  // namespace
}  // namespace temp::tcme
