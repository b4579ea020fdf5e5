/**
 * @file
 * Tests for the simulation layer: single-wafer training steps (with
 * gradient accumulation and recompute fallbacks), multi-wafer pipeline
 * simulation, the GPU-cluster reference, and the cost model's cell
 * memo under the simulator (warm vs. fresh, fault changes, threads).
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"
#include "sim/gpu_cluster.hpp"
#include "sim/multi_wafer.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/strategy_space.hpp"

namespace temp::sim {
namespace {

using parallel::ParallelSpec;

ParallelSpec
spec(int dp, int tp, int sp, int tatp, int fsdp = 1, int cp = 1)
{
    ParallelSpec s;
    s.dp = dp;
    s.tp = tp;
    s.sp = sp;
    s.tatp = tatp;
    s.fsdp = fsdp;
    s.cp = cp;
    return s;
}

class TrainerSimTest : public ::testing::Test
{
  protected:
    TrainerSimTest()
        : wafer_(hw::WaferConfig::paperDefault()),
          sim_(wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::TCME})
    {
    }

    PerfReport
    run(const char *model, const ParallelSpec &s)
    {
        const auto graph =
            model::ComputeGraph::transformer(model::modelByName(model));
        return sim_.simulate(graph, s);
    }

    hw::Wafer wafer_;
    TrainingSimulator sim_;
};

TEST_F(TrainerSimTest, SmallModelPureDpIsComputeBound)
{
    const PerfReport r = run("GPT-3 6.7B", spec(32, 1, 1, 1));
    EXPECT_TRUE(r.feasible);
    EXPECT_FALSE(r.oom);
    EXPECT_GT(r.step_time, 0.0);
    // Compute dominates; exposed communication is a small fraction.
    EXPECT_LT(r.exposed_comm, 0.2 * r.step_time);
    EXPECT_GT(r.throughput_tokens_per_s, 0.0);
    EXPECT_GT(r.total_flops, 0.0);
}

TEST_F(TrainerSimTest, StepTimeDecomposesConsistently)
{
    const PerfReport r = run("GPT-3 6.7B", spec(4, 2, 1, 4));
    // Wall time is at least the compute time and at least the exposed
    // communication.
    EXPECT_GE(r.step_time, r.comp_time * 0.999);
    EXPECT_GE(r.step_time, r.exposed_comm * 0.999);
    EXPECT_GE(r.collective_time, r.grad_sync_time);
}

TEST_F(TrainerSimTest, GradAccumulationKicksInUnderMemoryPressure)
{
    // Full-batch activations cannot fit; accumulation must engage.
    const PerfReport r = run("Llama3 70B", spec(1, 1, 1, 32));
    EXPECT_TRUE(r.feasible);
    EXPECT_GT(r.grad_accum, 1);
    EXPECT_FALSE(r.oom);
}

TEST_F(TrainerSimTest, MemoryShrinksWithShardingDegree)
{
    const PerfReport wide = run("Llama2 7B", spec(1, 1, 1, 32));
    const PerfReport narrow = run("Llama2 7B", spec(32, 1, 1, 1));
    // Full replication (dp) holds the whole model per die; tatp shards.
    EXPECT_LT(wide.peak_footprint[mem::MemClass::Weights],
              narrow.peak_footprint[mem::MemClass::Weights]);
    // Gradients are not ZeRO-sharded across dp, so full replication
    // keeps the whole gradient buffer per die.
    EXPECT_LT(wide.peak_footprint[mem::MemClass::Gradients],
              narrow.peak_footprint[mem::MemClass::Gradients]);
}

TEST_F(TrainerSimTest, MegatronStyleOomsOnHugeModel)
{
    // TP capped at 8 leaves >= 1/8 of the 175B state per die: OOM even
    // with accumulation and recompute.
    parallel::TrainingOptions no_zero;
    no_zero.zero1_optimizer = false;
    TrainingSimulator mega_sim(
        wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::SMap},
        no_zero);
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 175B"));
    const PerfReport r = mega_sim.simulate(graph, spec(4, 8, 1, 1));
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.oom);
}

TEST_F(TrainerSimTest, InvalidSpecIsInfeasible)
{
    const PerfReport r = run("GPT-3 6.7B", spec(64, 2, 1, 1));  // 128 > 32
    EXPECT_FALSE(r.feasible);
}

TEST_F(TrainerSimTest, MixedPerOpSpecsPayResharding)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    std::vector<ParallelSpec> specs(graph.opCount(), spec(4, 1, 1, 8));
    specs[4] = spec(32, 1, 1, 1);
    const PerfReport mixed = sim_.simulate(graph, specs);
    EXPECT_TRUE(mixed.feasible);
    EXPECT_GT(mixed.reshard_time, 0.0);
    const PerfReport uniform = sim_.simulate(graph, spec(4, 1, 1, 8));
    EXPECT_DOUBLE_EQ(uniform.reshard_time, 0.0);
}

TEST_F(TrainerSimTest, EnergyBreakdownPopulated)
{
    const PerfReport r = run("GPT-3 6.7B", spec(2, 2, 1, 8));
    EXPECT_GT(r.energy.compute_j, 0.0);
    EXPECT_GT(r.energy.dram_j, 0.0);
    EXPECT_GT(r.energy.d2d_j, 0.0);
    EXPECT_GT(r.avg_power_w, 0.0);
    EXPECT_GT(r.power_efficiency, 0.0);
    // Compute should dominate total power (Sec. VIII-B: >50%).
    EXPECT_GT(r.energy.compute_j, 0.5 * r.energy.total());
}

TEST_F(TrainerSimTest, TatpSweetSpotBetweenExtremes)
{
    // Fig. 9: degree 8-16 beats both very low and very high degrees for
    // a big model (per-die memory pressure vs. fragmentation).
    const double t2 = run("GPT-3 175B", spec(2, 1, 1, 16)).step_time;
    const double t32 = run("GPT-3 175B", spec(1, 1, 1, 32)).step_time;
    const double t_tp = run("GPT-3 175B", spec(1, 8, 1, 4)).step_time;
    EXPECT_LT(t2, t_tp);
    (void)t32;
}

class MultiWaferTest : public ::testing::Test
{
  protected:
    hw::MultiWaferConfig
    config(int wafers)
    {
        hw::MultiWaferConfig cfg;
        cfg.wafer = hw::WaferConfig::paperDefault();
        cfg.wafer_count = wafers;
        return cfg;
    }
};

TEST_F(MultiWaferTest, StageFabricGeometry)
{
    MultiWaferSimulator sim(config(4),
                            tcme::MappingPolicy{
                                tcme::MappingEngineKind::TCME});
    // pp == wafers: one wafer per stage.
    EXPECT_EQ(sim.stageFabric(4).dieCount(), 32);
    // pp < wafers: stages span several wafers.
    EXPECT_EQ(sim.stageFabric(2).dieCount(), 64);
    // pp > wafers: wafer column-split into slices.
    EXPECT_EQ(sim.stageFabric(8).dieCount(), 16);
}

TEST_F(MultiWaferTest, BubbleShrinksWithMicrobatches)
{
    MultiWaferSimulator sim(config(2),
                            tcme::MappingPolicy{
                                tcme::MappingEngineKind::TCME});
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 175B"));
    const PerfReport few = sim.simulate(graph, spec(1, 1, 1, 16, 1, 1),
                                        /*pp=*/2, /*microbatches=*/4);
    const PerfReport many = sim.simulate(graph, spec(1, 1, 1, 16, 1, 1),
                                         /*pp=*/2, /*microbatches=*/16);
    ASSERT_TRUE(few.feasible);
    ASSERT_TRUE(many.feasible);
    // Bubble fraction (pp-1)/(m+pp-1) shrinks with m.
    EXPECT_GT(few.bubble_time / few.step_time,
              many.bubble_time / many.step_time);
}

TEST_F(MultiWaferTest, HigherPpMeansMoreBubbleTime)
{
    MultiWaferSimulator sim(config(4),
                            tcme::MappingPolicy{
                                tcme::MappingEngineKind::TCME});
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("Llama3 405B"));
    // Llama3 405B has 126 layers; neither 4 nor 8 divide it. Use the
    // 124-layer GPT-3 504B for the pp sweep instead.
    const auto graph2 = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 504B"));
    (void)graph;
    const PerfReport low = sim.simulate(graph2, spec(1, 1, 1, 8, 1, 1),
                                        /*pp=*/4, /*microbatches=*/8);
    ASSERT_TRUE(low.feasible);
    EXPECT_GT(low.bubble_time, 0.0);
    EXPECT_LT(low.bubble_time, low.step_time);
}

TEST_F(MultiWaferTest, RejectsIncompatiblePp)
{
    MultiWaferSimulator sim(config(4),
                            tcme::MappingPolicy{
                                tcme::MappingEngineKind::TCME});
    EXPECT_EQ(sim.stageFabric(1).dieCount(), 4 * 32);
}

TEST(GpuCluster, MatchesWaferAggregateCompute)
{
    // Sec. VIII-B: 32 x 312 TFLOPS A100s vs 32-die WSC comparison setup.
    const hw::GpuClusterConfig cfg = hw::GpuClusterConfig::a100Default();
    EXPECT_EQ(cfg.gpu_count, 32);
    EXPECT_DOUBLE_EQ(cfg.peak_flops, 312e12);
}

TEST(GpuCluster, SimulatesMegatronStyleTraining)
{
    GpuClusterSimulator sim(hw::GpuClusterConfig::a100Default());
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B").withSeqBatch(2048, 8));
    const PerfReport r = sim.simulate(graph, spec(4, 8, 1, 1));
    EXPECT_TRUE(r.feasible);
    EXPECT_GT(r.step_time, 0.0);
    EXPECT_GT(r.collective_time, 0.0);
}

TEST(GpuCluster, NicBandwidthMakesCollectivesExpensive)
{
    // The same collective volume is far more expensive on 600 GB/s NICs
    // than on 4 TB/s D2D links — the Fig. 15 contrast.
    GpuClusterSimulator gpu(hw::GpuClusterConfig::a100Default());
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    TrainingSimulator wsc(wafer,
                          tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B").withSeqBatch(2048, 8));
    const PerfReport g = gpu.simulate(graph, spec(4, 8, 1, 1));
    const PerfReport w = wsc.simulate(graph, spec(4, 8, 1, 1));
    ASSERT_TRUE(g.feasible);
    ASSERT_TRUE(w.feasible);
    EXPECT_GT(g.collective_time, w.collective_time);
}

// ---------------------------------------------------------------------
// The cell memo: a warm simulator answers exactly like a fresh one.
// ---------------------------------------------------------------------

void
expectSameReport(const PerfReport &a, const PerfReport &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.step_time, b.step_time);
    EXPECT_EQ(a.comp_time, b.comp_time);
    EXPECT_EQ(a.collective_time, b.collective_time);
    EXPECT_EQ(a.stream_comm_time, b.stream_comm_time);
    EXPECT_EQ(a.exposed_comm, b.exposed_comm);
    EXPECT_EQ(a.reshard_time, b.reshard_time);
    EXPECT_EQ(a.bubble_time, b.bubble_time);
    EXPECT_EQ(a.grad_sync_time, b.grad_sync_time);
    EXPECT_EQ(a.grad_sync_collective_time, b.grad_sync_collective_time);
    EXPECT_EQ(a.grad_sync_link_bytes, b.grad_sync_link_bytes);
    EXPECT_EQ(a.grad_accum, b.grad_accum);
    EXPECT_EQ(a.recompute, b.recompute);
    EXPECT_EQ(a.tail_latency, b.tail_latency);
    EXPECT_EQ(a.peak_mem_bytes, b.peak_mem_bytes);
    EXPECT_EQ(a.peak_footprint.bytes, b.peak_footprint.bytes);
    EXPECT_EQ(a.energy.compute_j, b.energy.compute_j);
    EXPECT_EQ(a.energy.dram_j, b.energy.dram_j);
    EXPECT_EQ(a.energy.d2d_j, b.energy.d2d_j);
    EXPECT_EQ(a.energy.static_j, b.energy.static_j);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.power_efficiency, b.power_efficiency);
    EXPECT_EQ(a.bw_utilization, b.bw_utilization);
    EXPECT_EQ(a.total_flops, b.total_flops);
    EXPECT_EQ(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    EXPECT_EQ(a.strategy_desc, b.strategy_desc);
}

class CellMemoTest : public ::testing::Test
{
  protected:
    CellMemoTest()
        : wafer_(hw::WaferConfig::paperDefault()),
          policy_{tcme::MappingEngineKind::TCME}
    {
    }

    /// Random per-op plans over a small pool of one model's specs, so
    /// plans share cells; every plan is drawn twice.
    std::vector<std::vector<ParallelSpec>>
    randomPlans(const model::ModelConfig &model, int count,
                std::uint64_t seed) const
    {
        solver::StrategySpaceOptions options;
        options.allow_fsdp = true;
        const std::vector<ParallelSpec> candidates =
            solver::enumerateStrategies(wafer_.dieCount(), model, options);
        const model::ComputeGraph graph =
            model::ComputeGraph::transformer(model);
        Rng rng(seed);
        std::vector<ParallelSpec> pool;
        for (int k = 0; k < 6; ++k)
            pool.push_back(candidates[rng.index(candidates.size())]);
        std::vector<std::vector<ParallelSpec>> plans;
        for (int p = 0; p < count; ++p) {
            std::vector<ParallelSpec> plan(
                static_cast<std::size_t>(graph.opCount()));
            for (ParallelSpec &spec : plan)
                spec = pool[rng.index(pool.size())];
            plans.push_back(plan);
            plans.push_back(plan);
        }
        return plans;
    }

    PerfReport
    fresh(const model::ComputeGraph &graph,
          const std::vector<ParallelSpec> &plan) const
    {
        const TrainingSimulator sim(wafer_, policy_);
        return sim.simulate(graph, plan);
    }

    hw::Wafer wafer_;
    tcme::MappingPolicy policy_;
};

TEST_F(CellMemoTest, WarmSimulatorMatchesFreshOnRandomPlans)
{
    const TrainingSimulator warm(wafer_, policy_);
    int accumulated = 0;
    int recomputed = 0;
    for (const char *name : {"GPT-3 6.7B", "GPT-3 175B"}) {
        const model::ModelConfig model = model::modelByName(name);
        const model::ComputeGraph graph =
            model::ComputeGraph::transformer(model);
        const std::vector<std::vector<ParallelSpec>> plans =
            randomPlans(model, 12, 7);
        for (std::size_t p = 0; p < plans.size(); ++p) {
            const PerfReport expected = fresh(graph, plans[p]);
            const long lowered =
                warm.costModel().scheduleStats().lowerings;
            const PerfReport got = warm.simulate(graph, plans[p]);
            expectSameReport(got, expected);
            // A repeated plan is served whole: it lowers nothing.
            if (p % 2 == 1) {
                EXPECT_EQ(warm.costModel().scheduleStats().lowerings,
                          lowered)
                    << "plan " << p;
            }
            accumulated += got.grad_accum > 1 ? 1 : 0;
            recomputed += got.recompute ? 1 : 0;
        }
    }
    // The draw reaches both fallbacks.
    EXPECT_GT(accumulated, 0);
    EXPECT_GT(recomputed, 0);
    EXPECT_GT(warm.costModel().cellMemoStats().hits, 0);
    EXPECT_GT(warm.costModel().phaseMemoStats().hits, 0);
}

TEST_F(CellMemoTest, FaultChangeDropsCachedFeasibleCells)
{
    // tp = 32 across a wafer cut in two: feasible on the healthy wafer,
    // unroutable once the cut lands.
    const model::ComputeGraph graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    const std::vector<ParallelSpec> plan(
        static_cast<std::size_t>(graph.opCount()), spec(1, 32, 1, 1));
    const TrainingSimulator warm(wafer_, policy_);

    const PerfReport healthy = warm.simulate(graph, plan);
    ASSERT_TRUE(healthy.feasible);
    expectSameReport(warm.simulate(graph, plan), healthy);
    EXPECT_GT(warm.costModel().cellMemoStats().entries, 0);

    const hw::FaultMap clean(wafer_.dieCount(),
                             wafer_.topology().linkCount());
    hw::FaultMap cut = clean;
    const hw::MeshTopology &mesh = wafer_.topology();
    for (int r = 0; r < mesh.rows(); ++r) {
        cut.failLink(mesh.linkId(mesh.dieAt(r, 3), mesh.dieAt(r, 4)));
        cut.failLink(mesh.linkId(mesh.dieAt(r, 4), mesh.dieAt(r, 3)));
    }
    wafer_.setFaults(cut);
    // The fault listener cleared every memo before any lookup.
    EXPECT_EQ(warm.costModel().cellMemoStats().entries, 0);
    EXPECT_EQ(warm.costModel().phaseMemoStats().entries, 0);
    EXPECT_EQ(warm.costModel().streamPlanStats().entries, 0);

    const PerfReport faulted = warm.simulate(graph, plan);
    EXPECT_FALSE(faulted.feasible);
    expectSameReport(faulted, fresh(graph, plan));

    wafer_.setFaults(clean);
    expectSameReport(warm.simulate(graph, plan), healthy);
}

TEST_F(CellMemoTest, KilledDiesNeverServeStaleLayouts)
{
    // setFaults() clears the layout memo: a warm simulator must not
    // place a spec on dies that have since died (that layout once
    // reached ComputeModel::opTime with a zero derate and aborted).
    const model::ComputeGraph graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    const ParallelSpec dp3_tatp8 = spec(3, 1, 1, 8);
    const TrainingSimulator warm(wafer_, policy_);
    ASSERT_TRUE(warm.simulate(graph, dp3_tatp8).feasible);

    hw::FaultMap killed(wafer_.dieCount(), wafer_.topology().linkCount());
    const hw::MeshTopology &mesh = wafer_.topology();
    killed.setCoreFaultFraction(mesh.dieAt(0, 0), 1.0);
    killed.setCoreFaultFraction(mesh.dieAt(1, 1), 1.0);
    wafer_.setFaults(killed);

    const PerfReport faulted = warm.simulate(graph, dp3_tatp8);
    EXPECT_TRUE(faulted.feasible);
    const std::vector<ParallelSpec> plan(
        static_cast<std::size_t>(graph.opCount()), dp3_tatp8);
    expectSameReport(faulted, fresh(graph, plan));
}

TEST_F(CellMemoTest, ConcurrentSimulationsMatchSerialAnswers)
{
    const model::ModelConfig model = model::modelByName("Llama2 7B");
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    const std::vector<std::vector<ParallelSpec>> plans =
        randomPlans(model, 10, 11);
    std::vector<PerfReport> expected;
    for (const std::vector<ParallelSpec> &plan : plans)
        expected.push_back(fresh(graph, plan));

    const TrainingSimulator shared(wafer_, policy_);
    constexpr int kThreads = 4;
    std::vector<std::vector<PerfReport>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the plans from a different offset, so
            // the same cells are missed and filled concurrently.
            for (std::size_t k = 0; k < plans.size(); ++k) {
                const std::size_t i = (k + 5 * t) % plans.size();
                got[t].push_back(shared.simulate(graph, plans[i]));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        for (std::size_t k = 0; k < plans.size(); ++k) {
            const std::size_t i = (k + 5 * t) % plans.size();
            expectSameReport(got[t][k], expected[i]);
        }
}

}  // namespace
}  // namespace temp::sim
