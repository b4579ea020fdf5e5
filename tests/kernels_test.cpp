/**
 * @file
 * Bit-exactness tests for the data-oriented kernels: every vector path
 * against its reference scalar twin on randomized inputs (ragged
 * routes, zero-byte flows, ties, dead links), the contention model's
 * SoA vs AoS walks, the LinkLoadMap O(active) stats against a dense
 * reference, and an end-to-end solve that must be bit-identical with
 * the SIMD paths forced on and off and across eval_threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/kernels.hpp"
#include "core/framework.hpp"
#include "cost/breakdown_reduce.hpp"
#include "hw/config.hpp"
#include "model/model_zoo.hpp"
#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp {
namespace {

using hw::DieId;
using hw::LinkId;
using hw::MeshTopology;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Field-wise MaxDrain comparison — memcmp over the struct would read
/// the padding holes after its int32 members.
void
expectSameDrain(const kernels::MaxDrain &s, const kernels::MaxDrain &v)
{
    ASSERT_EQ(s.dead_link, v.dead_link);
    if (s.dead_link >= 0)
        return;  // partial worst/link fields are never observed
    EXPECT_TRUE(bitEqual(s.worst, v.worst));
    EXPECT_EQ(s.link, v.link);
    EXPECT_TRUE(bitEqual(s.link_load, v.link_load));
}

TEST(MaxDrainKernel, MatchesScalarOnRandomInputs)
{
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> load(0.0, 1e9);
    std::uniform_real_distribution<double> bw(1e9, 4e9);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (const int n : {0, 1, 5, 15, 16, 17, 31, 64, 513}) {
        for (int trial = 0; trial < 50; ++trial) {
            const std::uint32_t epoch = 40 + trial;
            std::vector<double> loads(n), bandwidth(n);
            std::vector<std::uint32_t> stamps(n);
            for (int i = 0; i < n; ++i) {
                stamps[i] = unit(rng) < 0.6 ? epoch : epoch - 1;
                loads[i] = unit(rng) < 0.1 ? 0.0 : load(rng);
                bandwidth[i] = bw(rng);
            }
            const kernels::MaxDrain s = kernels::maxDrainArgmaxScalar(
                loads.data(), stamps.data(), epoch, bandwidth.data(), n);
            const kernels::MaxDrain v = kernels::maxDrainArgmaxSimd(
                loads.data(), stamps.data(), epoch, bandwidth.data(), n);
            expectSameDrain(s, v);
        }
    }
}

TEST(MaxDrainKernel, FirstOfTiedMaximaWins)
{
    // Two exactly equal drains: both paths must report the first.
    const int n = 40;
    std::vector<double> loads(n, 1.0), bandwidth(n, 8.0);
    std::vector<std::uint32_t> stamps(n, 5);
    loads[9] = 4.0;
    loads[30] = 4.0;  // same bits, later index
    const kernels::MaxDrain s = kernels::maxDrainArgmaxScalar(
        loads.data(), stamps.data(), 5, bandwidth.data(), n);
    const kernels::MaxDrain v = kernels::maxDrainArgmaxSimd(
        loads.data(), stamps.data(), 5, bandwidth.data(), n);
    EXPECT_EQ(s.link, 9);
    expectSameDrain(s, v);
}

TEST(MaxDrainKernel, UntouchedDeadLinksAreIgnored)
{
    // Zero bandwidth on links whose stamp is stale must not trip the
    // dead-link detector or poison the max (the blend substitutes
    // 0.0 / 1.0 for untouched lanes).
    const int n = 48;
    std::vector<double> loads(n, 2.0), bandwidth(n, 0.0);
    std::vector<std::uint32_t> stamps(n, 1);
    for (int i = 0; i < n; i += 3) {
        stamps[i] = 2;  // touched
        bandwidth[i] = 4.0;
    }
    const kernels::MaxDrain s = kernels::maxDrainArgmaxScalar(
        loads.data(), stamps.data(), 2, bandwidth.data(), n);
    const kernels::MaxDrain v = kernels::maxDrainArgmaxSimd(
        loads.data(), stamps.data(), 2, bandwidth.data(), n);
    EXPECT_EQ(s.dead_link, -1);
    expectSameDrain(s, v);
}

TEST(MaxDrainKernel, ReportsFirstTouchedDeadLink)
{
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (const int dead_at : {0, 3, 16, 20, 47, 63}) {
        const int n = 64;
        std::vector<double> loads(n, 1.0), bandwidth(n, 2.0);
        std::vector<std::uint32_t> stamps(n);
        for (int i = 0; i < n; ++i)
            stamps[i] = unit(rng) < 0.7 ? 9u : 8u;
        stamps[dead_at] = 9;
        bandwidth[dead_at] = 0.0;
        // A second dead link later must not shadow the first.
        if (dead_at + 7 < n) {
            stamps[dead_at + 7] = 9;
            bandwidth[dead_at + 7] = 0.0;
        }
        const kernels::MaxDrain s = kernels::maxDrainArgmaxScalar(
            loads.data(), stamps.data(), 9, bandwidth.data(), n);
        const kernels::MaxDrain v = kernels::maxDrainArgmaxSimd(
            loads.data(), stamps.data(), 9, bandwidth.data(), n);
        EXPECT_EQ(s.dead_link, dead_at);
        EXPECT_EQ(v.dead_link, dead_at);
    }
}

TEST(MinPlusKernel, MatchesScalarWithInfsAndTies)
{
    std::mt19937_64 rng(13);
    std::uniform_real_distribution<double> v(0.0, 1e3);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (const int n : {0, 1, 7, 16, 33, 256, 511}) {
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<double> prev(n), trans(n);
            for (int i = 0; i < n; ++i) {
                prev[i] = unit(rng) < 0.15 ? kInf : v(rng);
                trans[i] = v(rng);
            }
            if (n > 2) {
                prev[n / 2] = prev[0];  // manufacture potential ties
                trans[n / 2] = trans[0];
            }
            const double c = v(rng);
            const kernels::MinPlus s =
                kernels::minPlusArgminScalar(prev.data(), trans.data(), c, n);
            const kernels::MinPlus p =
                kernels::minPlusArgminSimd(prev.data(), trans.data(), c, n);
            EXPECT_TRUE(bitEqual(s.value, p.value));
            EXPECT_EQ(s.index, p.index);
        }
    }
}

TEST(MinPlusKernel, AllInfeasibleYieldsNoIndex)
{
    const int n = 37;
    std::vector<double> prev(n, kInf), trans(n, 1.0);
    const kernels::MinPlus s =
        kernels::minPlusArgminScalar(prev.data(), trans.data(), 0.5, n);
    const kernels::MinPlus p =
        kernels::minPlusArgminSimd(prev.data(), trans.data(), 0.5, n);
    EXPECT_EQ(s.index, -1);
    EXPECT_EQ(p.index, -1);
    EXPECT_TRUE(bitEqual(s.value, kInf));
    EXPECT_TRUE(bitEqual(p.value, kInf));
}

std::vector<cost::OpCostBreakdown>
randomCells(int n, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> v(0.0, 1.0);
    std::vector<cost::OpCostBreakdown> cells(n);
    for (cost::OpCostBreakdown &c : cells) {
        c.fwd_time = v(rng);
        c.bwd_time = v(rng);
        c.comp_time = v(rng);
        c.collective_time = v(rng);
        c.stream_comm_time = v(rng);
        c.step_comm_time = v(rng);
        c.exposed_comm = v(rng);
        c.tail_latency = v(rng);
        c.flops = v(rng) * 1e12;
        c.dram_bytes = v(rng) * 1e9;
        c.d2d_link_bytes = v(rng) < 0.75 ? v(rng) * 1e9 : 0.0;
        c.bw_utilization = v(rng) < 0.9 ? v(rng) : 0.0;
        c.feasible = v(rng) < 0.9;
    }
    return cells;
}

TEST(BreakdownReduce, SumsAndTotalsMatchScalar)
{
    std::mt19937_64 rng(17);
    for (const int n : {0, 1, 3, 64, 1000, 4096}) {
        const std::vector<cost::OpCostBreakdown> cells = randomCells(n, rng);
        const cost::BreakdownSums s = cost::reduceBreakdownsScalar(cells);
        const cost::BreakdownSums v = cost::reduceBreakdownsSimd(cells);
        // BreakdownSums is all-double, memcmp-safe.
        EXPECT_EQ(std::memcmp(&s, &v, sizeof s), 0);

        std::vector<double> ta(n), tb(n);
        cost::breakdownTotalsScalar(cells, ta.data());
        cost::breakdownTotalsSimd(cells, tb.data());
        for (int i = 0; i < n; ++i) {
            EXPECT_TRUE(bitEqual(ta[i], tb[i]));
            EXPECT_TRUE(bitEqual(
                ta[i], cells[i].feasible ? cells[i].total() : kInf));
        }
    }
}

/// PhaseTiming comparison, field-wise and bit-exact.
void
expectSameTiming(const net::PhaseTiming &a, const net::PhaseTiming &b)
{
    EXPECT_TRUE(bitEqual(a.time_s, b.time_s));
    EXPECT_TRUE(bitEqual(a.serial_time_s, b.serial_time_s));
    EXPECT_EQ(a.bottleneck_link, b.bottleneck_link);
    EXPECT_TRUE(bitEqual(a.bottleneck_bytes, b.bottleneck_bytes));
    EXPECT_TRUE(bitEqual(a.total_bytes, b.total_bytes));
    EXPECT_TRUE(bitEqual(a.link_bytes, b.link_bytes));
    EXPECT_EQ(a.max_hops, b.max_hops);
    EXPECT_TRUE(bitEqual(a.bandwidth_utilization, b.bandwidth_utilization));
}

class SimdToggleGuard
{
  public:
    ~SimdToggleGuard() { kernels::setSimdActive(true); }
};

TEST(ContentionSoa, FinalizedSoaMatchesAosAndScalarPath)
{
    // A ring all-gather over a boustrophedon ring produces ragged,
    // partially overlapping routes; the schedule walked through its
    // finalized SoA view, the per-flow AoS view, and with the SIMD
    // dispatch forced off must all time bit-identically.
    SimdToggleGuard guard;
    MeshTopology mesh(2, 4);
    net::Router router(mesh);
    net::CollectiveScheduler sched(router);
    std::vector<DieId> ring{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                            mesh.dieAt(0, 2), mesh.dieAt(0, 3),
                            mesh.dieAt(1, 3), mesh.dieAt(1, 2),
                            mesh.dieAt(1, 1), mesh.dieAt(1, 0)};
    net::ContentionModel model(mesh, 4e12, 200e-9);
    net::CommSchedule s = sched.ringAllGather(ring, 8e6);

    const net::PhaseTiming aos = model.evaluateSequence(s);
    s.finalize();
    const net::PhaseTiming soa = model.evaluateSequence(s);
    expectSameTiming(aos, soa);

    kernels::setSimdActive(false);
    const net::PhaseTiming scalar_soa = model.evaluateSequence(s);
    kernels::setSimdActive(true);
    expectSameTiming(aos, scalar_soa);
}

TEST(ContentionSoa, ZeroByteFlowsAreExact)
{
    SimdToggleGuard guard;
    MeshTopology mesh(2, 3);
    net::Router router(mesh);
    net::CommSchedule s;
    const auto add = [&](DieId src, DieId dst, double bytes) {
        net::Flow f;
        f.src = src;
        f.dst = dst;
        f.bytes = bytes;
        f.route = router.intern(router.route(src, dst));
        s.addFlow(f);
    };
    add(0, 5, 0.0);  // zero-byte flow still occupies its route
    add(1, 4, 3e6);
    s.sealRound();
    add(2, 3, 0.0);
    s.sealRound();

    net::ContentionModel model(mesh, 1e12, 100e-9);
    const net::PhaseTiming aos = model.evaluateSequence(s);
    s.finalize();
    const net::PhaseTiming soa = model.evaluateSequence(s);
    expectSameTiming(aos, soa);

    kernels::setSimdActive(false);
    const net::PhaseTiming scalar_soa = model.evaluateSequence(s);
    kernels::setSimdActive(true);
    expectSameTiming(aos, scalar_soa);
}

using ContentionSoaDeathTest = ::testing::Test;

TEST(ContentionSoaDeathTest, DeadLinkPanicsInBothModes)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MeshTopology mesh(1, 2);
    net::Router router(mesh);
    net::Flow f;
    f.src = 0;
    f.dst = 1;
    f.bytes = 1e6;
    f.route = router.intern(router.route(0, 1));
    net::CommSchedule s;
    s.addFlow(f);
    s.sealRound();
    s.finalize();
    // Zero link bandwidth: every touched link is dead.
    net::ContentionModel model(mesh, 0.0, 0.0);
    EXPECT_DEATH(model.evaluateSequence(s), "dead link");
    kernels::setSimdActive(false);
    EXPECT_DEATH(model.evaluateSequence(s), "dead link");
    kernels::setSimdActive(true);
}

TEST(LinkLoadMapStats, MatchDenseReferenceUnderChurn)
{
    std::mt19937_64 rng(23);
    MeshTopology mesh(3, 3);
    net::Router router(mesh);
    net::LinkLoadMap map(mesh.linkCount());
    std::vector<double> dense(mesh.linkCount(), 0.0);
    std::uniform_int_distribution<DieId> die(0, mesh.dieCount() - 1);
    std::uniform_real_distribution<double> bytes(1e3, 1e6);

    const auto checkAgainstDense = [&] {
        double max_load = 0.0;
        double total = 0.0;
        int active = 0;
        LinkId max_link = -1;
        double best = -1.0;
        for (LinkId l = 0; l < map.linkCount(); ++l) {
            total += dense[l];
            max_load = std::max(max_load, dense[l]);
            active += dense[l] > 0.0 ? 1 : 0;
            if (dense[l] > best) {
                best = dense[l];
                max_link = l;
            }
        }
        if (best <= 0.0)
            max_link = map.linkCount() > 0 ? 0 : -1;
        EXPECT_EQ(map.maxLoadLink(), max_link);
        EXPECT_TRUE(bitEqual(map.maxLoad(), max_load));
        EXPECT_TRUE(bitEqual(map.totalLoad(), total));
        EXPECT_EQ(map.activeLinkCount(), active);
    };

    checkAgainstDense();  // all-zero map: dense-scan semantics (link 0)

    struct Added
    {
        net::RouteRef route;
        double bytes;
    };
    std::vector<Added> live;
    for (int step = 0; step < 200; ++step) {
        const bool remove = !live.empty() && step % 3 == 2;
        if (remove) {
            const Added a = live.back();
            live.pop_back();
            map.remove(a.route, a.bytes);
            for (LinkId l : a.route.links())
                dense[l] = std::max(0.0, dense[l] - a.bytes);
        } else {
            const DieId src = die(rng);
            DieId dst = die(rng);
            if (dst == src)
                dst = (dst + 1) % mesh.dieCount();
            Added a{router.intern(router.route(src, dst)), bytes(rng)};
            map.add(a.route, a.bytes);
            for (LinkId l : a.route.links())
                dense[l] += a.bytes;
            live.push_back(a);
        }
        checkAgainstDense();
    }
    // Drain everything. Interleaved add/remove can leave floating-point
    // residue on a link ((a + b) - b need not equal a), so the test
    // asserts map == dense rather than a residue-free map; removed-to-
    // zero links must stay counted as touched either way.
    while (!live.empty()) {
        const Added a = live.back();
        live.pop_back();
        map.remove(a.route, a.bytes);
        for (LinkId l : a.route.links())
            dense[l] = std::max(0.0, dense[l] - a.bytes);
    }
    checkAgainstDense();
    EXPECT_GT(map.touchedLinkCount(), 0);
    EXPECT_EQ(map.activeLinkCount(),
              static_cast<int>(std::count_if(
                  dense.begin(), dense.end(),
                  [](double load) { return load > 0.0; })));
}

TEST(EndToEnd, SolveBitIdenticalAcrossSimdAndEvalThreads)
{
    // The full search must not observe the kernel dispatch or the
    // evaluator's thread count: identical per-op specs and bit-exact
    // step time for SIMD on/off and 1 vs 2 eval threads.
    SimdToggleGuard guard;
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    core::FrameworkOptions opts;
    opts.eval_threads = 1;
    opts.solver.ga_population = 8;
    opts.solver.ga_generations = 4;
    core::FrameworkOptions wide = opts;
    wide.eval_threads = 2;

    const auto solve = [&](const core::FrameworkOptions &o) {
        const core::TempFramework f(hw::WaferConfig::paperDefault(), o);
        return f.optimize(model);
    };
    const solver::SolverResult simd_on = solve(opts);
    kernels::setSimdActive(false);
    const solver::SolverResult simd_off = solve(opts);
    kernels::setSimdActive(true);
    const solver::SolverResult threaded = solve(wide);

    ASSERT_TRUE(simd_on.feasible);
    EXPECT_EQ(simd_on.per_op_specs, simd_off.per_op_specs);
    EXPECT_EQ(simd_on.per_op_specs, threaded.per_op_specs);
    EXPECT_TRUE(bitEqual(simd_on.step_time_s, simd_off.step_time_s));
    EXPECT_TRUE(bitEqual(simd_on.step_time_s, threaded.step_time_s));
}

}  // namespace
}  // namespace temp
