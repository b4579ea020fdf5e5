/**
 * @file
 * Unit tests for the network layer: routing, link loads, the contention
 * model, collective schedules and multicast trees.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "cost/cost_model.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"
#include "hw/wafer.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp::net {
namespace {

using hw::DieId;
using hw::LinkId;
using hw::MeshTopology;

/// Walks a route and returns the die sequence it visits.
std::vector<DieId>
visitedDies(const MeshTopology &mesh, const Route &route)
{
    std::vector<DieId> dies{route.src};
    for (LinkId link : route.links)
        dies.push_back(mesh.link(link).dst);
    return dies;
}

TEST(Router, XYRouteHasManhattanLength)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const DieId src = mesh.dieAt(0, 0);
    const DieId dst = mesh.dieAt(3, 5);
    const Route route = router.route(src, dst, RoutePolicy::XY);
    EXPECT_EQ(route.hops(), mesh.hopDistance(src, dst));
    // XY: column moves first.
    const auto dies = visitedDies(mesh, route);
    EXPECT_EQ(dies.front(), src);
    EXPECT_EQ(dies.back(), dst);
    EXPECT_EQ(mesh.coordOf(dies[1]).row, 0);
    EXPECT_EQ(mesh.coordOf(dies[1]).col, 1);
}

TEST(Router, YXRouteMovesRowsFirst)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const Route route =
        router.route(mesh.dieAt(0, 0), mesh.dieAt(3, 5), RoutePolicy::YX);
    EXPECT_EQ(route.hops(), 8);
    const auto dies = visitedDies(mesh, route);
    EXPECT_EQ(mesh.coordOf(dies[1]).row, 1);
    EXPECT_EQ(mesh.coordOf(dies[1]).col, 0);
}

TEST(Router, SelfRouteIsEmpty)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    EXPECT_TRUE(router.route(0, 0).empty());
}

TEST(Router, RouteViaWaypointConcatenates)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const DieId src = mesh.dieAt(0, 0);
    const DieId way = mesh.dieAt(2, 0);
    const DieId dst = mesh.dieAt(0, 2);
    const Route route = router.routeVia(src, way, dst);
    EXPECT_EQ(route.hops(), 2 + 4);  // down 2, then XY back up and across
    EXPECT_EQ(route.src, src);
    EXPECT_EQ(route.dst, dst);
}

TEST(Router, ShortestPathAvoidsFailedLinks)
{
    MeshTopology mesh(3, 3);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    // Cut the direct horizontal link 0->1 (and reverse).
    faults.failLink(mesh.linkId(0, 1));
    faults.failLink(mesh.linkId(1, 0));
    Router router(mesh, &faults);
    const auto path = router.shortestPath(0, 1);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->hops(), 3);  // detour through the next row
    for (LinkId link : path->links)
        EXPECT_FALSE(faults.linkFailed(link));
}

TEST(Router, ShortestPathReportsPartition)
{
    MeshTopology mesh(1, 2);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    faults.failLink(mesh.linkId(0, 1));
    faults.failLink(mesh.linkId(1, 0));
    Router router(mesh, &faults);
    EXPECT_FALSE(router.shortestPath(0, 1).has_value());
}

TEST(Router, CandidateRoutesAreDistinctAndValid)
{
    MeshTopology mesh(4, 8);
    Router router(mesh);
    const DieId src = mesh.dieAt(1, 1);
    const DieId dst = mesh.dieAt(2, 4);
    const auto candidates = router.candidateRoutes(src, dst);
    EXPECT_GE(candidates.size(), 2u);
    for (const Route &r : candidates) {
        EXPECT_EQ(r.src, src);
        EXPECT_EQ(r.dst, dst);
        const auto dies = visitedDies(mesh, r);
        EXPECT_EQ(dies.back(), dst);
    }
    // All candidates have distinct link sequences.
    for (std::size_t i = 0; i < candidates.size(); ++i)
        for (std::size_t j = i + 1; j < candidates.size(); ++j)
            EXPECT_NE(candidates[i].links, candidates[j].links);
}

TEST(LinkLoad, AddRemoveAndMax)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    LinkLoadMap loads(mesh.linkCount());
    const Route route = router.route(0, 3);
    loads.add(route, 100.0);
    EXPECT_DOUBLE_EQ(loads.maxLoad(), 100.0);
    EXPECT_EQ(loads.activeLinkCount(), 2);
    loads.remove(route, 100.0);
    EXPECT_DOUBLE_EQ(loads.maxLoad(), 0.0);
}

TEST(Contention, SingleFlowTime)
{
    MeshTopology mesh(1, 8);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 200e-9);
    Flow flow;
    flow.src = 0;
    flow.dst = 7;
    flow.bytes = 4e9;  // 4 GB over 4 TB/s = 1 ms
    flow.route = router.intern(router.route(0, 7));
    const PhaseTiming t = model.evaluate({flow});
    EXPECT_NEAR(t.time_s, 1e-3 + 7 * 200e-9, 1e-9);
    EXPECT_EQ(t.max_hops, 7);
}

TEST(Contention, SharedLinkDoublesTime)
{
    // The Fig. 5(b) scenario: two flows forced through one link take >2x
    // the contention-free time.
    MeshTopology mesh(1, 4);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 0.0);

    Flow a;
    a.src = 0;
    a.dst = 2;
    a.bytes = 1e9;
    a.route = router.intern(router.route(0, 2));
    Flow b;
    b.src = 1;
    b.dst = 3;
    b.bytes = 1e9;
    b.route = router.intern(router.route(1, 3));

    const double solo = model.evaluate({a}).time_s;
    const double both = model.evaluate({a, b}).time_s;
    EXPECT_NEAR(both / solo, 2.0, 1e-9);
    // Bottleneck is the shared link 1->2.
    const PhaseTiming t = model.evaluate({a, b});
    EXPECT_EQ(t.bottleneck_link, mesh.linkId(1, 2));
    EXPECT_DOUBLE_EQ(t.bottleneck_bytes, 2e9);
}

TEST(Contention, DisjointFlowsRunConcurrently)
{
    MeshTopology mesh(2, 4);
    Router router(mesh);
    ContentionModel model(mesh, 4e12, 0.0);
    Flow a;
    a.src = mesh.dieAt(0, 0);
    a.dst = mesh.dieAt(0, 1);
    a.bytes = 1e9;
    a.route = router.intern(router.route(a.src, a.dst));
    Flow b;
    b.src = mesh.dieAt(1, 0);
    b.dst = mesh.dieAt(1, 1);
    b.bytes = 1e9;
    b.route = router.intern(router.route(b.src, b.dst));
    const double solo = model.evaluate({a}).time_s;
    const double both = model.evaluate({a, b}).time_s;
    EXPECT_NEAR(both, solo, 1e-12);
}

TEST(Contention, EmptyPhaseIsFree)
{
    MeshTopology mesh(2, 2);
    ContentionModel model(mesh, 4e12, 200e-9);
    EXPECT_DOUBLE_EQ(model.evaluate(std::vector<Flow>{}).time_s, 0.0);
}

TEST(Contention, SequenceSumsRounds)
{
    MeshTopology mesh(1, 2);
    Router router(mesh);
    ContentionModel model(mesh, 1e12, 0.0);
    Flow f;
    f.src = 0;
    f.dst = 1;
    f.bytes = 1e9;
    f.route = router.intern(router.route(0, 1));
    const PhaseTiming t = model.evaluateSequence({{f}, {f}, {f}});
    EXPECT_NEAR(t.time_s, 3e-3, 1e-12);
    EXPECT_DOUBLE_EQ(t.total_bytes, 3e9);
}

TEST(Collective, RingAllGatherRoundsAndVolume)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{0, 1, 2, 3};
    const CommSchedule s = sched.ringAllGather(group, 1e6);
    EXPECT_EQ(s.roundCount(), 3);  // N-1 rounds
    for (int r = 0; r < s.roundCount(); ++r)
        EXPECT_EQ(s.round(r).size(), 4u);  // every member forwards
    EXPECT_DOUBLE_EQ(s.payload_bytes, 1e6 * 4 * 3);
}

TEST(Collective, AllReduceMovesTwiceTheScatterVolume)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{0, 1, 2, 3};
    const CommSchedule rs = sched.ringReduceScatter(group, 4e6);
    const CommSchedule ar = sched.ringAllReduce(group, 4e6);
    EXPECT_EQ(ar.roundCount(), 2 * rs.roundCount());
    EXPECT_NEAR(ar.payload_bytes, 2 * rs.payload_bytes, 1e-6);
}

TEST(Collective, ContiguousRingAllGatherMatchesLowerBound)
{
    // A ring mapped onto a contiguous physical ring (2 x 4 sub-grid,
    // boustrophedon order) achieves the analytic lower bound.
    MeshTopology mesh(2, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    // Physical ring: (0,0)(0,1)(0,2)(0,3)(1,3)(1,2)(1,1)(1,0).
    std::vector<DieId> ring{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                            mesh.dieAt(0, 2), mesh.dieAt(0, 3),
                            mesh.dieAt(1, 3), mesh.dieAt(1, 2),
                            mesh.dieAt(1, 1), mesh.dieAt(1, 0)};
    const double bw = 4e12;
    const double lat = 200e-9;
    ContentionModel model(mesh, bw, lat);
    const CommSchedule s = sched.ringAllGather(ring, 8e6);
    const double t = model.evaluateSequence(s).time_s;
    const double bound = collectiveLowerBoundTime(CollectiveKind::AllGather,
                                                  8, 8e6, bw, lat);
    EXPECT_NEAR(t, bound, 1e-12);
}

TEST(Collective, InterleavedRingOrderContends)
{
    // A ring order that interleaves dies (0,2,1,3 on a chain) forces two
    // same-direction flows through link 1->2 every round, doubling the
    // bandwidth term relative to the in-order ring (Challenge 2).
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 4e12, 0.0);

    std::vector<DieId> in_order{0, 1, 2, 3};
    std::vector<DieId> interleaved{0, 2, 1, 3};
    const double t_good =
        model.evaluateSequence(sched.ringAllGather(in_order, 8e6))
            .time_s;
    const double t_bad =
        model.evaluateSequence(sched.ringAllGather(interleaved, 8e6))
            .time_s;
    EXPECT_NEAR(t_bad / t_good, 2.0, 1e-9);
}

TEST(Collective, MultiHopRingPaysTailLatency)
{
    // Small shards on a linear chain: the wrap-around transfer traverses
    // N-1 hops, so per-round latency is dominated by the longest flow
    // (the Fig. 5(a) tail-latency effect).
    MeshTopology mesh(1, 8);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 4e12, 200e-9);

    // 64 KiB shards: bandwidth term 16 ns, latency term dominates.
    const CommSchedule s = sched.ringAllGather({0, 1, 2, 3, 4, 5, 6, 7},
                                               64.0 * 1024.0);
    const PhaseTiming t = model.evaluateSequence(s);
    EXPECT_EQ(t.max_hops, 7);
    // Each of the 7 rounds pays the 7-hop wrap latency.
    EXPECT_GT(t.time_s, 7 * 7 * 200e-9);
}

TEST(Collective, BroadcastBuildsMulticastTree)
{
    MeshTopology mesh(2, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    std::vector<DieId> group{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                             mesh.dieAt(0, 2), mesh.dieAt(0, 3)};
    const CommSchedule s = sched.broadcast(group, 1e6);
    ASSERT_EQ(s.roundCount(), 1);
    // Chain multicast: three links, each carrying the payload once.
    EXPECT_EQ(s.round(0).size(), 3u);
    for (const Flow &f : s.round(0))
        EXPECT_DOUBLE_EQ(f.bytes, 1e6);
}

TEST(Collective, MulticastTreeDeduplicatesSharedPrefix)
{
    MeshTopology mesh(1, 5);
    Router router(mesh);
    // Root 0, leaves 3 and 4: routes share links 0->1->2->3.
    const MulticastTree tree = buildMulticastTree(router, 0, {3, 4});
    EXPECT_EQ(tree.links.size(), 4u);
    EXPECT_EQ(tree.depth, 4);
}

TEST(Collective, P2PSchedule)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    const CommSchedule s = sched.p2p(0, 3, 5e6, 42);
    ASSERT_EQ(s.roundCount(), 1);
    ASSERT_EQ(s.round(0).size(), 1u);
    EXPECT_EQ(s.round(0)[0].tag, 42);
    EXPECT_EQ(s.round(0)[0].route.hops(), 3);
}

TEST(Collective, DegenerateGroupsAreFree)
{
    MeshTopology mesh(2, 2);
    Router router(mesh);
    CollectiveScheduler sched(router);
    EXPECT_TRUE(sched.ringAllGather({0}, 1e6).empty());
    EXPECT_TRUE(sched.ringAllReduce({2}, 1e6).empty());
    EXPECT_TRUE(sched.p2p(1, 1, 1e6).empty());
}

TEST(Collective, LowerBoundFormulas)
{
    const double bw = 1e12;
    EXPECT_NEAR(collectiveLowerBoundTime(CollectiveKind::AllReduce, 4, 4e9,
                                         bw, 0.0),
                2.0 * 3.0 / 4.0 * 4e-3, 1e-12);
    EXPECT_NEAR(collectiveLowerBoundTime(CollectiveKind::AllGather, 4, 1e9,
                                         bw, 0.0),
                3e-3, 1e-12);
    EXPECT_DOUBLE_EQ(
        collectiveLowerBoundTime(CollectiveKind::AllReduce, 1, 1e9, bw, 0.0),
        0.0);
}

TEST(CommSchedule, OverlayMergesRounds)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    CommSchedule a = sched.p2p(0, 1, 1e6);
    const CommSchedule b = sched.p2p(2, 3, 1e6);
    a.overlay(b);
    ASSERT_EQ(a.roundCount(), 1);
    EXPECT_EQ(a.round(0).size(), 2u);
    EXPECT_DOUBLE_EQ(a.payload_bytes, 2e6);
}

TEST(CommSchedule, LinkBytesCountsHops)
{
    MeshTopology mesh(1, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    const CommSchedule s = sched.p2p(0, 3, 1e6);
    EXPECT_DOUBLE_EQ(s.linkBytes(), 3e6);
}


// --- run-length rounds: oracles over the expanded schedule -------------

/// Bit pattern of a double: "same bits", not "close".
std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectSameFlow(const Flow &got, const Flow &want)
{
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(bits(got.bytes), bits(want.bytes));
    EXPECT_EQ(got.tag, want.tag);
    ASSERT_EQ(got.route.valid(), want.route.valid());
    if (got.route.valid()) {
        EXPECT_EQ(got.route.links(), want.route.links());
    }
}

void
expectSameRound(std::span<const Flow> got, std::span<const Flow> want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t f = 0; f < got.size(); ++f)
        expectSameFlow(got[f], want[f]);
}

void
expectSameTiming(const PhaseTiming &got, const PhaseTiming &want)
{
    EXPECT_EQ(bits(got.time_s), bits(want.time_s));
    EXPECT_EQ(bits(got.serial_time_s), bits(want.serial_time_s));
    EXPECT_EQ(got.bottleneck_link, want.bottleneck_link);
    EXPECT_EQ(bits(got.bottleneck_bytes), bits(want.bottleneck_bytes));
    EXPECT_EQ(bits(got.total_bytes), bits(want.total_bytes));
    EXPECT_EQ(bits(got.link_bytes), bits(want.link_bytes));
    EXPECT_EQ(got.max_hops, want.max_hops);
    EXPECT_EQ(bits(got.bandwidth_utilization),
              bits(want.bandwidth_utilization));
}

/// The executed rounds as the former nested shape, one vector each.
std::vector<std::vector<Flow>>
expandRounds(const CommSchedule &s)
{
    std::vector<std::vector<Flow>> rounds;
    for (int r = 0; r < s.roundCount(); ++r)
        rounds.emplace_back(s.round(r).begin(), s.round(r).end());
    return rounds;
}

TEST(RunLength, RingLoweringStoresOneRun)
{
    // Every ring kind over 2..9 members is one stored run whose
    // executed rounds equal a hand-built per-round ring, with the same
    // payload and the same timing bits.
    MeshTopology mesh(3, 4);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 1e11, 50e-9);
    Rng rng(11);
    for (int n = 2; n <= 9; ++n) {
        std::vector<DieId> group(static_cast<std::size_t>(mesh.dieCount()));
        for (std::size_t d = 0; d < group.size(); ++d)
            group[d] = static_cast<DieId>(d);
        std::shuffle(group.begin(), group.end(), rng.engine());
        group.resize(static_cast<std::size_t>(n));
        const double tensor = 3e6 + 1e5 * n;
        struct Kind
        {
            CommSchedule lowered;
            double shard;
            int passes;
        };
        const Kind kinds[] = {
            {sched.ringAllGather(group, tensor, 5), tensor, 1},
            {sched.ringReduceScatter(group, tensor, 5), tensor / n, 1},
            {sched.ringAllReduce(group, tensor, 5), tensor / n, 2},
        };
        for (const Kind &k : kinds) {
            const CommSchedule &s = k.lowered;
            const int rounds = k.passes * (n - 1);
            ASSERT_EQ(s.runCount(), 1) << "n=" << n;
            EXPECT_EQ(s.repeat(0), static_cast<std::uint32_t>(rounds));
            EXPECT_EQ(s.flows().size(), static_cast<std::size_t>(n));
            ASSERT_EQ(s.roundCount(), rounds);

            CommSchedule hand;
            for (int r = 0; r < rounds; ++r) {
                for (int i = 0; i < n; ++i) {
                    Flow flow;
                    flow.src = group[i];
                    flow.dst = group[(i + 1) % n];
                    flow.bytes = k.shard;
                    flow.route = router.safeRouteRef(flow.src, flow.dst);
                    flow.tag = 5;
                    hand.addFlow(flow);
                }
                hand.sealRound();
            }
            ASSERT_EQ(hand.roundCount(), rounds);
            for (int r = 0; r < rounds; ++r)
                expectSameRound(s.round(r), hand.round(r));
            EXPECT_EQ(s.flowCount(), hand.flowCount());
            EXPECT_EQ(bits(s.linkBytes()), bits(hand.linkBytes()));
            expectSameTiming(model.evaluateSequence(s),
                             model.evaluateSequence(hand));
            // Payload is summed per pass; compare against the same
            // pass-wise sum rather than the per-flow one.
            double payload = 0.0;
            for (int p = 0; p < k.passes; ++p)
                payload += k.shard * n * (n - 1);
            EXPECT_EQ(bits(s.payload_bytes), bits(payload));
        }
    }
}

/// A random collective from the mixes the cost model overlays: rings of
/// 2..9 members (all three kinds), tree all-reduce, broadcast and p2p.
CommSchedule
randomPart(const CollectiveScheduler &sched, const MeshTopology &mesh,
           Rng &rng)
{
    std::vector<DieId> dies(static_cast<std::size_t>(mesh.dieCount()));
    for (std::size_t d = 0; d < dies.size(); ++d)
        dies[d] = static_cast<DieId>(d);
    std::shuffle(dies.begin(), dies.end(), rng.engine());
    const int n = rng.uniformInt(2, 9);
    const std::vector<DieId> group(dies.begin(), dies.begin() + n);
    const double bytes = 1e6 * rng.uniformInt(1, 64);
    const int tag = rng.uniformInt(0, 3);
    switch (rng.uniformInt(0, 5)) {
      case 0: return sched.ringAllGather(group, bytes, tag);
      case 1: return sched.ringReduceScatter(group, bytes, tag);
      case 2: return sched.ringAllReduce(group, bytes, tag);
      case 3: return sched.treeAllReduce(group, bytes, tag);
      case 4: return sched.broadcast(group, bytes, tag);
      default: return sched.p2p(group[0], group[1], bytes, tag);
    }
}

TEST(RunLength, CombineEqualsTheExpandedOverlay)
{
    // combine() cuts runs at the shortest active repeat; its executed
    // rounds, flow count, payload and feasibility equal the per-round
    // overlay of the parts' expanded rounds, and every consumer (AoS and
    // SoA evaluation, linkBytes) gives the nested oracle's bits.
    MeshTopology mesh(4, 5);
    Router router(mesh);
    CollectiveScheduler sched(router);
    ContentionModel model(mesh, 2e11, 80e-9);
    Rng rng(23);
    int compressed = 0;
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<CommSchedule> parts;
        const int count = rng.uniformInt(1, 6);
        for (int p = 0; p < count; ++p)
            parts.push_back(randomPart(sched, mesh, rng));
        std::vector<const CommSchedule *> ptrs;
        for (const CommSchedule &part : parts)
            ptrs.push_back(&part);
        CommSchedule combined = CommSchedule::combine(ptrs);

        // Hand-expanded overlay: round r concatenates every part's
        // executed round r, in part order.
        std::vector<std::vector<Flow>> oracle;
        double payload = 0.0;
        bool feasible = true;
        for (const CommSchedule &part : parts) {
            payload += part.payload_bytes;
            feasible = feasible && part.feasible;
            const auto rounds = expandRounds(part);
            if (oracle.size() < rounds.size())
                oracle.resize(rounds.size());
            for (std::size_t r = 0; r < rounds.size(); ++r)
                oracle[r].insert(oracle[r].end(), rounds[r].begin(),
                                 rounds[r].end());
        }
        std::size_t oracle_flows = 0;
        double oracle_link_bytes = 0.0;
        for (const auto &round : oracle)
            for (const Flow &flow : round) {
                ++oracle_flows;
                oracle_link_bytes += flow.bytes * flow.route.hops();
            }

        ASSERT_EQ(combined.roundCount(), static_cast<int>(oracle.size()))
            << "trial " << trial;
        for (int r = 0; r < combined.roundCount(); ++r)
            expectSameRound(combined.round(r), oracle[r]);
        EXPECT_EQ(combined.flowCount(), oracle_flows);
        EXPECT_EQ(bits(combined.payload_bytes), bits(payload));
        EXPECT_EQ(combined.feasible, feasible);
        EXPECT_EQ(bits(combined.linkBytes()), bits(oracle_link_bytes));
        compressed += combined.flows().size() < oracle_flows ? 1 : 0;

        const PhaseTiming nested = model.evaluateSequence(oracle);
        expectSameTiming(model.evaluateSequence(combined), nested);
        combined.finalize();
        expectSameTiming(model.evaluateSequence(combined), nested);
    }
    // Most mixes hold a ring, so storage really is run-length.
    EXPECT_GT(compressed, 30);
}

/// Every memoized lookup of `router` against the unmemoized routing it
/// serves: both policies of safeRouteRef(), candidateRouteRefs(), and
/// unreachable pairs reading as invalid refs and empty candidate lists.
void
expectLookupsMatchRouting(const Router &router)
{
    const int n = router.topology().dieCount();
    for (DieId src = 0; src < n; ++src) {
        for (DieId dst = 0; dst < n; ++dst) {
            for (RoutePolicy policy : {RoutePolicy::XY, RoutePolicy::YX}) {
                const std::optional<Route> want =
                    router.safeRoute(src, dst, policy);
                const RouteRef got = router.safeRouteRef(src, dst, policy);
                ASSERT_EQ(got.valid(), want.has_value()) << src << "->" << dst;
                if (want) {
                    EXPECT_EQ(got->src, src);
                    EXPECT_EQ(got->dst, dst);
                    EXPECT_EQ(got.links(), want->links);
                }
            }
            const std::vector<Route> want = router.candidateRoutes(src, dst);
            const std::span<const RouteRef> got =
                router.candidateRouteRefs(src, dst);
            ASSERT_EQ(got.size(), want.size()) << src << "->" << dst;
            for (std::size_t c = 0; c < want.size(); ++c)
                EXPECT_EQ(got[c].links(), want[c].links);
        }
    }
}

/// Cuts both directions of the link between two adjacent dies.
void
cutLink(hw::FaultMap &faults, const MeshTopology &mesh, DieId a, DieId b)
{
    faults.failLink(mesh.linkId(a, b));
    faults.failLink(mesh.linkId(b, a));
}

TEST(RouteTable, LookupsMatchRoutingForBothPoliciesAndUnreachablePairs)
{
    // Die (0,0) is cut off from the rest, and two interior cuts force
    // detours, so every kind of slot gets filled: direct routes, the
    // other dimension order, BFS detours and unreachable pairs.
    MeshTopology mesh(4, 8);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    cutLink(faults, mesh, mesh.dieAt(0, 0), mesh.dieAt(0, 1));
    cutLink(faults, mesh, mesh.dieAt(0, 0), mesh.dieAt(1, 0));
    cutLink(faults, mesh, mesh.dieAt(1, 3), mesh.dieAt(1, 4));
    cutLink(faults, mesh, mesh.dieAt(2, 5), mesh.dieAt(3, 5));
    const Router router(mesh, &faults);
    const long keys = 3L * mesh.dieCount() * mesh.dieCount();

    expectLookupsMatchRouting(router);
    common::CacheStats stats = router.poolStats();
    EXPECT_EQ(stats.misses, keys);
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(stats.entries, keys);
    EXPECT_GT(stats.bytes_est, 0);

    const DieId isolated = mesh.dieAt(0, 0);
    const DieId far = mesh.dieAt(3, 7);
    EXPECT_FALSE(router.safeRouteRef(isolated, far).valid());
    EXPECT_FALSE(router.safeRouteRef(far, isolated, RoutePolicy::YX).valid());
    EXPECT_TRUE(router.candidateRouteRefs(isolated, far).empty());
    EXPECT_TRUE(router.safeRouteRef(isolated, isolated).valid());

    // A second pass hits every slot and returns the stored routes.
    const RouteRef first = router.safeRouteRef(far, mesh.dieAt(1, 1));
    expectLookupsMatchRouting(router);
    EXPECT_EQ(&router.safeRouteRef(far, mesh.dieAt(1, 1)).get(), &first.get());
    stats = router.poolStats();
    EXPECT_EQ(stats.misses, keys);
    EXPECT_EQ(stats.hits, keys + 6);  // the six single lookups above
    EXPECT_EQ(stats.entries, keys);
}

TEST(RouteTable, NewEpochServesTheNewFaultMap)
{
    MeshTopology mesh(4, 8);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    const Router router(mesh, &faults);
    const DieId src = mesh.dieAt(1, 0);
    const DieId dst = mesh.dieAt(1, 6);
    const RouteRef before = router.safeRouteRef(src, dst);
    const std::vector<LinkId> old_links = before.links();
    ASSERT_EQ(old_links.size(), 6u);
    std::shared_ptr<const RouteEpoch> held = router.routeEpoch();

    // Cut the middle of the straight route; the owner starts a new
    // epoch, as the cost model's fault listener does.
    const hw::Link &cut = mesh.link(old_links[3]);
    cutLink(faults, mesh, cut.src, cut.dst);
    router.newEpoch();
    EXPECT_EQ(router.poolStats().entries, 0);

    expectLookupsMatchRouting(router);
    const RouteRef after = router.safeRouteRef(src, dst);
    ASSERT_TRUE(after.valid());
    EXPECT_NE(after.links(), old_links);
    for (LinkId link : after.links())
        EXPECT_FALSE(faults.linkFailed(link));
    // A ref of the old epoch still reads its route while its storage
    // is held, and the storage goes once nothing holds it.
    EXPECT_EQ(before.links(), old_links);
    EXPECT_EQ(router.liveEpochs(), 2);
    held.reset();
    EXPECT_EQ(router.liveEpochs(), 1);
}

TEST(RouteTable, SetFaultsReroutesTheCostModelsRouter)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    const cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const Router &router = model.router();
    const MeshTopology &mesh = router.topology();
    const DieId src = mesh.dieAt(2, 1);
    const DieId dst = mesh.dieAt(2, 5);
    const std::vector<LinkId> healthy = router.safeRouteRef(src, dst).links();

    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    const hw::Link &cut = mesh.link(healthy[1]);
    cutLink(faults, mesh, cut.src, cut.dst);
    wafer.setFaults(faults);

    expectLookupsMatchRouting(router);
    const RouteRef rerouted = router.safeRouteRef(src, dst);
    ASSERT_TRUE(rerouted.valid());
    EXPECT_NE(rerouted.links(), healthy);
    for (LinkId link : rerouted.links())
        EXPECT_FALSE(wafer.faults().linkFailed(link));
}

TEST(RouteTable, ConcurrentLookupsAgree)
{
    // Four threads race every lookup of a faulted mesh, each starting
    // at a different pair: all see the same stored routes (the first
    // store of a slot wins), and each key is stored once however many
    // racing misses computed it.
    MeshTopology mesh(4, 8);
    hw::FaultMap faults(mesh.dieCount(), mesh.linkCount());
    cutLink(faults, mesh, mesh.dieAt(0, 0), mesh.dieAt(0, 1));
    cutLink(faults, mesh, mesh.dieAt(0, 0), mesh.dieAt(1, 0));
    cutLink(faults, mesh, mesh.dieAt(2, 3), mesh.dieAt(2, 4));
    const Router router(mesh, &faults);
    const int n = mesh.dieCount();
    const std::size_t keys = static_cast<std::size_t>(n) * n;
    constexpr int kThreads = 4;

    struct Seen
    {
        std::vector<const Route *> xy, yx;
        std::vector<const RouteRef *> candidates;
    };
    std::vector<Seen> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Seen &mine = seen[static_cast<std::size_t>(t)];
            mine.xy.resize(keys);
            mine.yx.resize(keys);
            mine.candidates.resize(keys);
            for (std::size_t k = 0; k < keys; ++k) {
                const std::size_t key = (k + t * keys / kThreads) % keys;
                const DieId src = static_cast<DieId>(key / n);
                const DieId dst = static_cast<DieId>(key % n);
                const RouteRef xy = router.safeRouteRef(src, dst);
                const RouteRef yx =
                    router.safeRouteRef(src, dst, RoutePolicy::YX);
                mine.xy[key] = xy.valid() ? &xy.get() : nullptr;
                mine.yx[key] = yx.valid() ? &yx.get() : nullptr;
                mine.candidates[key] =
                    router.candidateRouteRefs(src, dst).data();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[t].xy, seen[0].xy);
        EXPECT_EQ(seen[t].yx, seen[0].yx);
        EXPECT_EQ(seen[t].candidates, seen[0].candidates);
    }
    const common::CacheStats stats = router.poolStats();
    EXPECT_EQ(stats.entries, static_cast<long>(3 * keys));
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<long>(3 * keys * kThreads));
    EXPECT_GE(stats.misses, static_cast<long>(3 * keys));
    expectLookupsMatchRouting(router);
}

}  // namespace
}  // namespace temp::net
