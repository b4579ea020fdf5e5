/**
 * @file
 * Unit and property tests for the TATP module: the bidirectional
 * orchestrator (reconstructed Alg. 1), chain mapping, and the stream
 * executor's timing model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "hw/topology.hpp"
#include "net/route.hpp"
#include "tatp/chain_mapper.hpp"
#include "tatp/executor.hpp"
#include "tatp/orchestrator.hpp"

namespace temp::tatp {
namespace {

using hw::DieId;
using hw::MeshTopology;

// ---------------------------------------------------------------------
// Orchestrator: property tests across degrees (the paper's Alg. 1).
// ---------------------------------------------------------------------

class OrchestratorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OrchestratorProperty, ScheduleIsFeasible)
{
    const int n = GetParam();
    BidirectionalOrchestrator orch(n);
    const ValidationResult result = orch.validate();
    EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(OrchestratorProperty, EveryTransferIsOneHop)
{
    const int n = GetParam();
    BidirectionalOrchestrator orch(n);
    for (const RoundSchedule &round : orch.rounds())
        for (const TransferTask &x : round.transfers)
            EXPECT_EQ(std::abs(x.from_slot - x.to_slot), 1);
}

TEST_P(OrchestratorProperty, OneComputePerSlotPerRound)
{
    const int n = GetParam();
    BidirectionalOrchestrator orch(n);
    for (const RoundSchedule &round : orch.rounds()) {
        std::set<int> slots;
        for (const ComputeTask &c : round.computes)
            EXPECT_TRUE(slots.insert(c.slot).second);
        EXPECT_EQ(static_cast<int>(slots.size()), n);
    }
}

TEST_P(OrchestratorProperty, PerLinkPerRoundLoadIsOneSubtensor)
{
    // Each directed chain link carries at most one sub-tensor per round:
    // the stream saturates but never oversubscribes the fabric.
    const int n = GetParam();
    BidirectionalOrchestrator orch(n);
    for (const RoundSchedule &round : orch.rounds()) {
        std::set<std::pair<int, int>> used;
        for (const TransferTask &x : round.transfers)
            EXPECT_TRUE(used.insert({x.from_slot, x.to_slot}).second)
                << "link " << x.from_slot << "->" << x.to_slot
                << " carries two sub-tensors in one round";
    }
}

TEST_P(OrchestratorProperty, AllOutputsComputedExactlyOnce)
{
    const int n = GetParam();
    BidirectionalOrchestrator orch(n);
    for (int s = 0; s < n; ++s) {
        std::set<int> subs;
        for (const RoundSchedule &round : orch.rounds())
            for (const ComputeTask &c : round.computes)
                if (c.slot == s)
                    EXPECT_TRUE(subs.insert(c.subtensor).second);
        EXPECT_EQ(static_cast<int>(subs.size()), n);
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, OrchestratorProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 12, 16, 32));

TEST(Orchestrator, MatchesPaperN4Example)
{
    // Fig. 8(c): in round 0 Die 3 sends W3 to Die 2; Die 2 computes O21
    // in round 1 (uses subT[1]); Die 1 computes O13 in round 2.
    BidirectionalOrchestrator orch(4);
    const auto &round0 = orch.rounds()[0];
    bool die3_sends_w3_down = false;
    for (const TransferTask &x : round0.transfers)
        if (x.from_slot == 3 && x.to_slot == 2 && x.subtensor == 3)
            die3_sends_w3_down = true;
    EXPECT_TRUE(die3_sends_w3_down);

    EXPECT_EQ(BidirectionalOrchestrator::computeSubtensor(4, 2, 1), 1);
    EXPECT_EQ(BidirectionalOrchestrator::computeSubtensor(4, 1, 2), 3);
    // Die 3 computes O33, O32, O31, O30 in that order.
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(BidirectionalOrchestrator::computeSubtensor(4, 3, t),
                  (3 - t + 4) % 4);
}

TEST(Orchestrator, PeakBuffersGrowLinearly)
{
    // The bidirectional relay holds ~N/2 sub-tensors on the worst slot
    // (wrap-need holding); this is what the partitioner's comm-buffer
    // model charges.
    EXPECT_EQ(BidirectionalOrchestrator::peakBuffersForDegree(1), 1);
    EXPECT_LE(BidirectionalOrchestrator::peakBuffersForDegree(4), 4);
    const int p16 = BidirectionalOrchestrator::peakBuffersForDegree(16);
    EXPECT_GE(p16, 4);
    EXPECT_LE(p16, 10);  // ~N/2 + in-flight
}

TEST(Orchestrator, PeakBuffersMatchPartitionerFormula)
{
    // The partitioner charges (floor(N/2 - 1) + 2) sub-tensor buffers
    // per die for the bidirectional relay; the buffer-accurate
    // orchestrator simulation must stay within one double-buffer slot
    // of that for every degree.
    for (int n : {2, 4, 8, 16, 32}) {
        const int measured =
            BidirectionalOrchestrator::peakBuffersForDegree(n);
        const int charged =
            static_cast<int>(std::floor(n / 2.0 - 1.0)) + 2;
        EXPECT_LE(measured, charged + 1) << "degree " << n;
        EXPECT_GE(measured, charged - 2) << "degree " << n;
    }
}

TEST(Orchestrator, NaiveRingRotatesSubtensors)
{
    NaiveRingOrchestrator orch(4);
    ASSERT_EQ(orch.rounds().size(), 4u);
    // Round 0: slot s computes its own sub-tensor.
    for (const ComputeTask &c : orch.rounds()[0].computes)
        EXPECT_EQ(c.subtensor, c.slot);
    // Wrap transfer present: slot 3 -> slot 0.
    bool wrap = false;
    for (const TransferTask &x : orch.rounds()[0].transfers)
        if (x.from_slot == 3 && x.to_slot == 0)
            wrap = true;
    EXPECT_TRUE(wrap);
    // Every slot computes all sub-tensors across rounds.
    for (int s = 0; s < 4; ++s) {
        std::set<int> subs;
        for (const auto &round : orch.rounds())
            for (const ComputeTask &c : round.computes)
                if (c.slot == s)
                    subs.insert(c.subtensor);
        EXPECT_EQ(subs.size(), 4u);
    }
}

// ---------------------------------------------------------------------
// Chain mapper.
// ---------------------------------------------------------------------

TEST(ChainMapper, ContiguousSnakeChain)
{
    MeshTopology mesh(4, 8);
    ChainMapper mapper(mesh);
    std::vector<DieId> chain{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                             mesh.dieAt(1, 1), mesh.dieAt(1, 0)};
    const ChainInfo info = mapper.analyzeChain(chain);
    EXPECT_TRUE(info.contiguous);
    EXPECT_EQ(info.max_hop, 1);
    EXPECT_EQ(info.total_hops, 3);
}

TEST(ChainMapper, TetrisGroupIsNonContiguous)
{
    // Fig. 7(a): a group whose members are not chain-adjacent.
    MeshTopology mesh(4, 8);
    ChainMapper mapper(mesh);
    std::vector<DieId> chain{mesh.dieAt(0, 0), mesh.dieAt(0, 2),
                             mesh.dieAt(2, 2), mesh.dieAt(2, 0)};
    const ChainInfo info = mapper.analyzeChain(chain);
    EXPECT_FALSE(info.contiguous);
    EXPECT_EQ(info.max_hop, 2);
}

TEST(ChainMapper, LinearChainRingHasLongWrap)
{
    // Fig. 5(a): dies 0..7 in a row; the logical ring's wrap transfer
    // needs 7 physical hops while neighbours need 1.
    MeshTopology mesh(1, 8);
    ChainMapper mapper(mesh);
    std::vector<DieId> ring{0, 1, 2, 3, 4, 5, 6, 7};
    const RingInfo info = mapper.analyzeRing(ring);
    EXPECT_TRUE(info.chain.contiguous);
    EXPECT_EQ(info.wrap_hops, 7);
    EXPECT_FALSE(info.physical_ring);
    EXPECT_EQ(info.max_hop, 7);
}

TEST(ChainMapper, BoustrophedonRingOnEvenGridIsPhysical)
{
    MeshTopology mesh(2, 4);
    ChainMapper mapper(mesh);
    std::vector<DieId> ring{mesh.dieAt(0, 0), mesh.dieAt(0, 1),
                            mesh.dieAt(0, 2), mesh.dieAt(0, 3),
                            mesh.dieAt(1, 3), mesh.dieAt(1, 2),
                            mesh.dieAt(1, 1), mesh.dieAt(1, 0)};
    const RingInfo info = mapper.analyzeRing(ring);
    EXPECT_TRUE(info.physical_ring);
    EXPECT_EQ(info.max_hop, 1);
}

TEST(ChainMapper, OrderAsChainRecoversSnakeOnBlock)
{
    MeshTopology mesh(4, 8);
    ChainMapper mapper(mesh);
    // A scrambled 2x4 block.
    std::vector<DieId> dies{mesh.dieAt(1, 2), mesh.dieAt(0, 0),
                            mesh.dieAt(1, 0), mesh.dieAt(0, 3),
                            mesh.dieAt(1, 3), mesh.dieAt(0, 1),
                            mesh.dieAt(1, 1), mesh.dieAt(0, 2)};
    const auto ordered = mapper.orderAsChain(dies);
    const ChainInfo info = mapper.analyzeChain(ordered);
    EXPECT_TRUE(info.contiguous) << "total hops " << info.total_hops;
}

TEST(ChainMapper, OrderAsChainImprovesScatteredGroups)
{
    MeshTopology mesh(4, 8);
    ChainMapper mapper(mesh);
    std::vector<DieId> scattered{mesh.dieAt(0, 0), mesh.dieAt(3, 7),
                                 mesh.dieAt(0, 1), mesh.dieAt(3, 6)};
    const ChainInfo naive = mapper.analyzeChain(scattered);
    const ChainInfo opt = mapper.analyzeChain(mapper.orderAsChain(scattered));
    EXPECT_LT(opt.total_hops, naive.total_hops);
}

/**
 * The former orderAsChain, kept as the oracle for the boundary-edge
 * 2-opt: the same greedy construction, then a 2-opt that copies the
 * chain for every candidate reversal and re-sums both paths.
 */
std::vector<DieId>
orderAsChainOracle(const MeshTopology &mesh, std::vector<DieId> dies)
{
    if (dies.size() <= 2)
        return dies;
    auto in_set_degree = [&](DieId die) {
        int deg = 0;
        for (DieId other : dies)
            if (other != die && mesh.hopDistance(die, other) == 1)
                ++deg;
        return deg;
    };
    std::size_t start = 0;
    for (std::size_t i = 1; i < dies.size(); ++i)
        if (in_set_degree(dies[i]) < in_set_degree(dies[start]))
            start = i;
    std::vector<DieId> chain;
    std::vector<bool> used(dies.size(), false);
    chain.push_back(dies[start]);
    used[start] = true;
    while (chain.size() < dies.size()) {
        const DieId cur = chain.back();
        int best = -1;
        int best_dist = 0;
        for (std::size_t i = 0; i < dies.size(); ++i) {
            if (used[i])
                continue;
            const int dist = mesh.hopDistance(cur, dies[i]);
            if (best < 0 || dist < best_dist) {
                best = static_cast<int>(i);
                best_dist = dist;
            }
        }
        chain.push_back(dies[best]);
        used[best] = true;
    }
    auto seg_cost = [&](const std::vector<DieId> &c) {
        int cost = 0;
        for (std::size_t i = 0; i + 1 < c.size(); ++i)
            cost += mesh.hopDistance(c[i], c[i + 1]);
        return cost;
    };
    bool improved = true;
    int guard = 0;
    while (improved && guard++ < 64) {
        improved = false;
        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            for (std::size_t j = i + 1; j < chain.size(); ++j) {
                std::vector<DieId> candidate = chain;
                std::reverse(candidate.begin() + i,
                             candidate.begin() + j + 1);
                if (seg_cost(candidate) < seg_cost(chain)) {
                    chain = std::move(candidate);
                    improved = true;
                }
            }
        }
    }
    return chain;
}

TEST(ChainMapper, OrderAsChainMatchesCopyAndResumOracle)
{
    Rng rng(2024);
    for (bool torus : {false, true}) {
        const MeshTopology mesh(6, 8, torus);
        const ChainMapper mapper(mesh);
        std::vector<DieId> all(static_cast<std::size_t>(mesh.dieCount()));
        for (std::size_t d = 0; d < all.size(); ++d)
            all[d] = static_cast<DieId>(d);
        for (int trial = 0; trial < 60; ++trial) {
            // Random: any die subset in any order.
            std::vector<DieId> pool = all;
            std::shuffle(pool.begin(), pool.end(), rng.engine());
            const int n = rng.uniformInt(1, 16);
            std::vector<DieId> random(pool.begin(), pool.begin() + n);
            // Scattered: a random subset of two far-apart blocks.
            std::vector<DieId> scattered;
            for (int r = 0; r < 2; ++r)
                for (int c = 0; c < 3; ++c) {
                    scattered.push_back(mesh.dieAt(r, c));
                    scattered.push_back(mesh.dieAt(5 - r, 7 - c));
                }
            std::shuffle(scattered.begin(), scattered.end(), rng.engine());
            scattered.resize(static_cast<std::size_t>(rng.uniformInt(3, 12)));
            // Fault-pruned: consecutive snake slots after killing dies,
            // the groups a degraded layout hands the stream.
            std::vector<DieId> snake;
            for (int r = 0; r < mesh.rows(); ++r)
                for (int c = 0; c < mesh.cols(); ++c)
                    snake.push_back(
                        mesh.dieAt(r, r % 2 == 0 ? c : mesh.cols() - 1 - c));
            for (int k = 0; k < 6; ++k)
                std::erase(snake, static_cast<DieId>(
                                      rng.uniformInt(0, mesh.dieCount() - 1)));
            const int len = rng.uniformInt(2, 16);
            const int at = rng.uniformInt(
                0, static_cast<int>(snake.size()) - len);
            std::vector<DieId> pruned(snake.begin() + at,
                                      snake.begin() + at + len);

            for (const std::vector<DieId> &dies : {random, scattered, pruned})
                EXPECT_EQ(mapper.orderAsChain(dies),
                          orderAsChainOracle(mesh, dies))
                    << "torus " << torus << " trial " << trial << " n "
                    << dies.size();
        }
    }
}

TEST(ChainMapper, PhysicalRingExistence)
{
    EXPECT_FALSE(ChainMapper::physicalRingExists(1, 8));
    EXPECT_TRUE(ChainMapper::physicalRingExists(2, 4));
    EXPECT_TRUE(ChainMapper::physicalRingExists(4, 8));
    EXPECT_FALSE(ChainMapper::physicalRingExists(3, 3));  // odd cells
    EXPECT_TRUE(ChainMapper::physicalRingExists(3, 4));
}

// ---------------------------------------------------------------------
// Executor timing.
// ---------------------------------------------------------------------

class ExecutorTest : public ::testing::Test
{
  protected:
    ExecutorTest() : mesh_(4, 8), mapper_(mesh_), exec_(hw::D2dConfig{}) {}

    ChainInfo
    contiguousChain(int n)
    {
        parallel::ParallelSpec s;
        s.tatp = n;
        parallel::GroupLayout layout(mesh_, s);
        return mapper_.analyzeChain(layout.groups(parallel::Axis::TATP)[0]);
    }

    MeshTopology mesh_;
    ChainMapper mapper_;
    TatpExecutor exec_;
};

TEST_F(ExecutorTest, ComputeBoundPassHidesCommunication)
{
    const ChainInfo chain = contiguousChain(8);
    // Huge compute per round vs. tiny transfers.
    const TatpTiming t =
        exec_.timePass(1e12, 1e6, 8, chain, hw::DieConfig{}.peak_flops);
    // Only the one-time pipeline fill separates total from compute.
    EXPECT_NEAR(t.time_s, t.comp_time_s, 0.01 * t.comp_time_s);
    EXPECT_DOUBLE_EQ(t.exposed_comm_s, 0.0);
    EXPECT_NEAR(t.overlap_efficiency, 1.0, 0.01);
}

TEST_F(ExecutorTest, CommBoundPassExposesTransferTime)
{
    const ChainInfo chain = contiguousChain(8);
    const TatpTiming t =
        exec_.timePass(1e6, 256e6, 8, chain, hw::DieConfig{}.peak_flops);
    EXPECT_GT(t.exposed_comm_s, 0.0);
    // Total = per-round transfers plus the one-time fill.
    EXPECT_GE(t.time_s, t.comm_time_s);
    EXPECT_LE(t.time_s, 1.2 * t.comm_time_s);
    EXPECT_LT(t.overlap_efficiency, 0.1);
}

TEST_F(ExecutorTest, NonContiguousChainAddsTailLatency)
{
    MeshTopology mesh(4, 8);
    ChainMapper mapper(mesh);
    std::vector<DieId> tetris{mesh.dieAt(0, 0), mesh.dieAt(0, 2),
                              mesh.dieAt(2, 2), mesh.dieAt(2, 4),
                              mesh.dieAt(0, 4), mesh.dieAt(0, 6),
                              mesh.dieAt(2, 6), mesh.dieAt(3, 7)};
    const ChainInfo bad = mapper.analyzeChain(tetris);
    ASSERT_FALSE(bad.contiguous);
    const ChainInfo good = contiguousChain(8);

    const TatpTiming t_bad =
        exec_.timePass(1e6, 64e6, 8, bad, hw::DieConfig{}.peak_flops);
    const TatpTiming t_good =
        exec_.timePass(1e6, 64e6, 8, good, hw::DieConfig{}.peak_flops);
    EXPECT_GT(t_bad.time_s, t_good.time_s);
    EXPECT_GT(t_bad.tail_latency_s, 0.0);
    EXPECT_DOUBLE_EQ(t_good.tail_latency_s, 0.0);
}

TEST_F(ExecutorTest, NaiveRingWrapDominatesOnChain)
{
    // Comm-bound regime: the naive ring on a 1 x 8 chain pays ~7x the
    // per-round transfer time of the bidirectional orchestration.
    MeshTopology line(1, 8);
    ChainMapper mapper(line);
    std::vector<DieId> dies{0, 1, 2, 3, 4, 5, 6, 7};
    const RingInfo ring = mapper.analyzeRing(dies);
    const ChainInfo chain = mapper.analyzeChain(dies);

    const double flops = 1e6;  // negligible compute
    const TatpTiming naive = exec_.timeNaiveRingPass(
        flops, 64e6, 8, ring, hw::DieConfig{}.peak_flops);
    const TatpTiming tatp =
        exec_.timePass(flops, 64e6, 8, chain, hw::DieConfig{}.peak_flops);
    // Naive pays the 7-hop wrap store-and-forward every round; the
    // bidirectional relay streams 1-hop transfers (latency pipelined).
    EXPECT_GT(naive.time_s / tatp.time_s, 5.5);
    EXPECT_LT(naive.time_s / tatp.time_s, 8.0);
}

TEST_F(ExecutorTest, SmallMessagesLoseBandwidthEfficiency)
{
    // Sec. III-B: D2D links need tens-of-MB transfers for peak
    // efficiency; over-fragmented streams fall off the bandwidth curve.
    const double big = 64e6;
    const double small = 1e6;
    const double t_big = exec_.hopTransferTime(big, 1);
    const double t_small = exec_.hopTransferTime(small, 1);
    // Per-byte cost of the small message is several times worse than
    // the big one's: fragmentation wastes link efficiency.
    EXPECT_GT((t_small / small) / (t_big / big), 5.0);
}

TEST_F(ExecutorTest, StreamFlowsMatchOrchestratorSchedule)
{
    parallel::ParallelSpec s;
    s.tatp = 4;
    s.dp = 2;
    parallel::GroupLayout layout(mesh_, s);
    net::Router router(mesh_);

    parallel::TatpStream stream;
    stream.active = true;
    stream.degree = 4;
    stream.bytes_per_round = 1e6;

    std::vector<ChainInfo> chains;
    for (const auto &group : layout.groups(parallel::Axis::TATP))
        chains.push_back(mapper_.analyzeChain(group));

    const net::CommSchedule sched =
        exec_.streamFlows(stream, chains, router, false);
    ASSERT_EQ(sched.roundCount(), 4);
    // Each flow is 1 hop (contiguous chains from the layout).
    for (const net::Flow &f : sched.flows())
        EXPECT_EQ(f.route.hops(), 1);
    // Backward doubles per-round bytes.
    const net::CommSchedule bwd =
        exec_.streamFlows(stream, chains, router, true);
    EXPECT_DOUBLE_EQ(bwd.round(0)[0].bytes,
                     2.0 * sched.round(0)[0].bytes);
}

TEST_F(ExecutorTest, StreamPlanRoundZeroCarriesEveryRoundsPairs)
{
    // The stream plan routes round 0 only. That is exact because round 0
    // holds every chain-neighbour pair in both directions and later
    // rounds use subsets of them: the plan's flows equal streamFlows'
    // round 0, and its feasibility equals the all-rounds feasibility,
    // on healthy and faulted meshes alike.
    Rng rng(5);
    int infeasible = 0;
    for (int trial = 0; trial < 24; ++trial) {
        hw::FaultMap faults(mesh_.dieCount(), mesh_.linkCount());
        const int victim = rng.uniformInt(0, mesh_.dieCount() - 1);
        for (int other = 0; other < mesh_.dieCount(); ++other) {
            if (mesh_.hopDistance(victim, other) != 1)
                continue;
            // Some trials cut the victim off completely (infeasible).
            if (trial % 3 == 0 || rng.uniformInt(0, 1) == 0) {
                faults.failLink(mesh_.linkId(victim, other));
                faults.failLink(mesh_.linkId(other, victim));
            }
        }
        const net::Router router(mesh_, &faults);

        const int degree = rng.uniformInt(2, 8);
        std::vector<DieId> dies(static_cast<std::size_t>(mesh_.dieCount()));
        for (std::size_t d = 0; d < dies.size(); ++d)
            dies[d] = static_cast<DieId>(d);
        std::shuffle(dies.begin(), dies.end(), rng.engine());
        std::vector<ChainInfo> chains;
        for (int g = 0; g < 3; ++g)
            chains.push_back(mapper_.analyzeChain(mapper_.orderAsChain(
                std::vector<DieId>(dies.begin() + g * degree,
                                   dies.begin() + (g + 1) * degree))));

        parallel::TatpStream stream;
        stream.active = true;
        stream.degree = degree;
        stream.bytes_per_round = 1e6;
        const net::CommSchedule all =
            exec_.streamFlows(stream, chains, router, false);
        const StreamPlan plan = exec_.planStream(chains, degree, router);

        EXPECT_EQ(plan.feasible, all.feasible) << "trial " << trial;
        infeasible += plan.feasible ? 0 : 1;
        const auto round0 = all.round(0);
        ASSERT_EQ(plan.round0.size(), round0.size());
        std::set<std::pair<DieId, DieId>> pairs;
        for (std::size_t f = 0; f < round0.size(); ++f) {
            EXPECT_EQ(plan.round0[f].src, round0[f].src);
            EXPECT_EQ(plan.round0[f].dst, round0[f].dst);
            EXPECT_EQ(plan.round0[f].tag, round0[f].tag);
            EXPECT_EQ(plan.round0[f].route.valid(), round0[f].route.valid());
            if (round0[f].route.valid()) {
                EXPECT_EQ(plan.round0[f].route.links(),
                          round0[f].route.links());
            }
            pairs.insert({round0[f].src, round0[f].dst});
        }
        for (int r = 1; r < all.roundCount(); ++r)
            for (const net::Flow &flow : all.round(r))
                EXPECT_TRUE(pairs.count({flow.src, flow.dst}))
                    << "round " << r << " pair outside round 0";

        std::size_t worst = 0;
        for (std::size_t c = 0; c < chains.size(); ++c)
            if (chains[c].max_hop > chains[worst].max_hop)
                worst = c;
        EXPECT_EQ(plan.worst, worst);
    }
    // Both outcomes occur: some draws put the isolated die in a chain.
    EXPECT_GT(infeasible, 0);
    EXPECT_LT(infeasible, 24);
}

TEST_F(ExecutorTest, LinkBytesScaleQuadratically)
{
    // Relay waves move N(N-1) sub-tensors across the fabric.
    const ChainInfo c4 = contiguousChain(4);
    const ChainInfo c8 = contiguousChain(8);
    const TatpTiming t4 = exec_.timePass(1e9, 1e6, 4, c4, 1e15);
    const TatpTiming t8 = exec_.timePass(1e9, 1e6, 8, c8, 1e15);
    EXPECT_NEAR(t4.link_bytes, 1e6 * 4 * 3, 1.0);
    EXPECT_NEAR(t8.link_bytes, 1e6 * 8 * 7, 1.0);
}

}  // namespace
}  // namespace temp::tatp
