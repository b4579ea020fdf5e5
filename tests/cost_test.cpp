/**
 * @file
 * Unit tests for the cost module: compute roofline, power model, the
 * wafer cost model (Eqs. 2-4) and the learned surrogates.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "cost/cost_model.hpp"
#include "cost/mlp.hpp"
#include "cost/power_model.hpp"
#include "cost/surrogate.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"

namespace temp::cost {
namespace {

using parallel::ParallelSpec;

ParallelSpec
spec(int dp, int tp, int sp, int tatp)
{
    ParallelSpec s;
    s.dp = dp;
    s.tp = tp;
    s.sp = sp;
    s.tatp = tatp;
    return s;
}

const model::Operator &
findOp(const model::ComputeGraph &graph, const std::string &name)
{
    for (const model::Operator &op : graph.ops())
        if (op.name == name)
            return op;
    ADD_FAILURE() << "op not found: " << name;
    static model::Operator dummy;
    return dummy;
}

TEST(ComputeModel, GemmEfficiencyRampsWithSize)
{
    ComputeModel cm(hw::DieConfig{}, hw::HbmConfig{});
    EXPECT_LT(cm.gemmEfficiency(1e9), cm.gemmEfficiency(1e12));
    EXPECT_DOUBLE_EQ(cm.gemmEfficiency(1e15),
                     ComputeModel::kMaxGemmEfficiency);
    EXPECT_GE(cm.gemmEfficiency(1.0), ComputeModel::kMinGemmEfficiency);
}

TEST(ComputeModel, RooflineSwitchesBetweenComputeAndMemory)
{
    ComputeModel cm(hw::DieConfig{}, hw::HbmConfig{});
    // Compute-bound: huge FLOPs, tiny bytes.
    const double t1 = cm.opTime(1e15, 1e3, true);
    EXPECT_GT(t1, 0.5);
    // Memory-bound: tiny FLOPs, huge bytes (2 TB at ~1.84 TB/s).
    const double t2 = cm.opTime(1e6, 2e12, false);
    EXPECT_GT(t2, 1.0);
}

TEST(ComputeModel, DerateSlowsCompute)
{
    ComputeModel cm(hw::DieConfig{}, hw::HbmConfig{});
    const double full = cm.opTime(1e15, 1e3, true, 1.0);
    const double half = cm.opTime(1e15, 1e3, true, 0.5);
    EXPECT_NEAR(half / full, 2.0, 1e-9);
}

TEST(PowerModel, EnergyFollowsTableOneRatings)
{
    PowerModel pm(hw::WaferConfig::paperDefault());
    const EnergyBreakdown e = pm.stepEnergy(1e15, 1e12, 1e12);
    EXPECT_NEAR(e.compute_j, 1e15 * 0.5e-12, 1.0);  // 0.5 pJ/FLOP
    EXPECT_NEAR(e.dram_j, 1e12 * 48e-12, 1e-3);     // 6 pJ/bit
    EXPECT_NEAR(e.d2d_j, 1e12 * 40e-12, 1e-3);      // 5 pJ/bit
    EXPECT_NEAR(e.total(), e.compute_j + e.dram_j + e.d2d_j, 1e-9);
}

TEST(PowerModel, PowerEfficiencyMonotoneInEnergy)
{
    PowerModel pm(hw::WaferConfig::paperDefault());
    const EnergyBreakdown cheap = pm.stepEnergy(1e15, 1e10, 1e10);
    const EnergyBreakdown pricey = pm.stepEnergy(1e15, 1e13, 1e13);
    EXPECT_GT(pm.powerEfficiency(1e15, cheap),
              pm.powerEfficiency(1e15, pricey));
}

class CostModelTest : public ::testing::Test
{
  protected:
    CostModelTest()
        : wafer_(hw::WaferConfig::paperDefault()),
          graph_(model::ComputeGraph::transformer(
              model::modelByName("GPT-3 6.7B")))
    {
    }

    OpCostBreakdown
    cost(const std::string &op, const ParallelSpec &s,
         tcme::MappingEngineKind kind = tcme::MappingEngineKind::TCME)
    {
        WaferCostModel model(wafer_, tcme::MappingPolicy{kind});
        const parallel::GroupLayout layout = model.buildLayout(graph_, s);
        return model.opCost(findOp(graph_, op), layout);
    }

    hw::Wafer wafer_;
    model::ComputeGraph graph_;
};

TEST_F(CostModelTest, SerialOpIsPureCompute)
{
    const OpCostBreakdown c = cost("qkv", ParallelSpec::serial());
    EXPECT_TRUE(c.feasible);
    EXPECT_GT(c.comp_time, 0.0);
    EXPECT_DOUBLE_EQ(c.collective_time, 0.0);
    EXPECT_DOUBLE_EQ(c.exposed_comm, 0.0);
    EXPECT_NEAR(c.total(), c.comp_time, 1e-12);
}

TEST_F(CostModelTest, TpPaysExposedCollectives)
{
    const OpCostBreakdown c = cost("proj", spec(1, 8, 1, 1));
    EXPECT_GT(c.collective_time, 0.0);
    EXPECT_GT(c.exposed_comm, 0.0);
    EXPECT_GT(c.total(), c.comp_time);
}

TEST_F(CostModelTest, TatpOverlapsStreamWithCompute)
{
    // For a large GEMM the per-round compute dominates the one-hop
    // stream transfer: communication fully hidden (Sec. V's promise).
    const OpCostBreakdown c = cost("fc1", spec(1, 1, 1, 8));
    EXPECT_TRUE(c.feasible);
    EXPECT_GT(c.stream_comm_time, 0.0);
    EXPECT_DOUBLE_EQ(c.collective_time, 0.0);
    EXPECT_NEAR(c.exposed_comm, 0.0, 1e-9);
    EXPECT_NEAR(c.total(), c.comp_time, c.comp_time * 0.01);
}

TEST_F(CostModelTest, TatpBeatsTpOnSameDegree)
{
    // Headline comparison: same 8-way parallelism of a row-parallel
    // GEMM, TATP hides the transfer, TP exposes an all-reduce.
    const OpCostBreakdown tatp = cost("proj", spec(1, 1, 1, 8));
    const OpCostBreakdown tp = cost("proj", spec(1, 8, 1, 1));
    EXPECT_LT(tatp.total(), tp.total());
}

TEST_F(CostModelTest, SMapScattersTatpChains)
{
    // Under SMap TATP groups land outermost (strided), so stream steps
    // span multiple hops: the per-round stream communication inflates.
    const OpCostBreakdown tcme = cost("fc1", spec(2, 2, 1, 8),
                                      tcme::MappingEngineKind::TCME);
    const OpCostBreakdown smap = cost("fc1", spec(2, 2, 1, 8),
                                      tcme::MappingEngineKind::SMap);
    EXPECT_GT(smap.stream_comm_time, 1.5 * tcme.stream_comm_time);
    EXPECT_GE(smap.tail_latency, tcme.tail_latency);
}

TEST_F(CostModelTest, StepCommPartiallyOverlapped)
{
    const OpCostBreakdown c = cost("fc1", spec(4, 8, 1, 1));
    EXPECT_GT(c.step_comm_time, 0.0);
    // Exposed share is (1 - overlap) of the raw collective time.
    EXPECT_LT(WaferCostModel::kGradSyncOverlap, 1.0);
}

TEST_F(CostModelTest, EnergyCountersPopulated)
{
    const OpCostBreakdown c = cost("fc1", spec(2, 2, 1, 8));
    EXPECT_GT(c.flops, 0.0);
    EXPECT_GT(c.dram_bytes, 0.0);
    EXPECT_GT(c.d2d_link_bytes, 0.0);
}

TEST_F(CostModelTest, InterOpReshardingCost)
{
    WaferCostModel model(wafer_,
                         tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const model::Operator &op = findOp(graph_, "qkv");
    EXPECT_DOUBLE_EQ(
        model.interOpTime(op, spec(2, 2, 1, 8), spec(2, 2, 1, 8)), 0.0);
    EXPECT_GT(model.interOpTime(op, spec(8, 1, 1, 1), spec(1, 8, 1, 1)),
              0.0);
}

TEST_F(CostModelTest, FaultPartitionMakesOpsInfeasible)
{
    // Cut the wafer into two halves: collectives spanning the cut can't
    // route and the op becomes infeasible.
    hw::WaferConfig config = hw::WaferConfig::paperDefault();
    hw::Wafer broken(config);
    hw::FaultMap faults(broken.dieCount(),
                        broken.topology().linkCount());
    const auto &mesh = broken.topology();
    for (int r = 0; r < mesh.rows(); ++r) {
        faults.failLink(mesh.linkId(mesh.dieAt(r, 3), mesh.dieAt(r, 4)));
        faults.failLink(mesh.linkId(mesh.dieAt(r, 4), mesh.dieAt(r, 3)));
    }
    broken.setFaults(faults);

    WaferCostModel model(broken,
                         tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const parallel::GroupLayout layout =
        model.buildLayout(graph_, spec(1, 32, 1, 1));
    const OpCostBreakdown c = model.opCost(findOp(graph_, "proj"), layout);
    EXPECT_FALSE(c.feasible);
}

// ---------------------------------------------------------------------
// The cost model's memos: stream plans and timed collective phases.
// ---------------------------------------------------------------------

void
expectSameBreakdown(const OpCostBreakdown &a, const OpCostBreakdown &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.fwd_time, b.fwd_time);
    EXPECT_EQ(a.bwd_time, b.bwd_time);
    EXPECT_EQ(a.step_comm_time, b.step_comm_time);
    EXPECT_EQ(a.comp_time, b.comp_time);
    EXPECT_EQ(a.collective_time, b.collective_time);
    EXPECT_EQ(a.stream_comm_time, b.stream_comm_time);
    EXPECT_EQ(a.exposed_comm, b.exposed_comm);
    EXPECT_EQ(a.tail_latency, b.tail_latency);
    EXPECT_EQ(a.d2d_link_bytes, b.d2d_link_bytes);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.bw_utilization, b.bw_utilization);
}

/// Specs covering every axis mix the memos key on, TATP included.
std::vector<ParallelSpec>
memoSpecs()
{
    return {spec(1, 1, 1, 8),  spec(2, 2, 1, 8),  spec(2, 1, 1, 16),
            spec(1, 8, 1, 1),  spec(8, 1, 1, 4),  spec(2, 4, 2, 2),
            spec(1, 1, 1, 32), spec(32, 1, 1, 1), spec(2, 4, 1, 4)};
}

TEST_F(CostModelTest, MemoizedCostsMatchAFreshModel)
{
    for (tcme::MappingEngineKind kind :
         {tcme::MappingEngineKind::TCME, tcme::MappingEngineKind::SMap}) {
        const WaferCostModel warm(wafer_, tcme::MappingPolicy{kind});
        for (int pass = 0; pass < 2; ++pass) {
            for (const ParallelSpec &s : memoSpecs()) {
                const WaferCostModel fresh(wafer_,
                                           tcme::MappingPolicy{kind});
                const parallel::GroupLayout layout =
                    fresh.buildLayout(graph_, s);
                for (const model::Operator &op : graph_.ops())
                    for (bool step : {true, false})
                        expectSameBreakdown(warm.opCost(op, layout, step),
                                            fresh.opCost(op, layout, step));
            }
        }
        // The second pass was served: plans and phases were reused.
        EXPECT_GT(warm.streamPlanStats().hits, 0);
        EXPECT_GT(warm.phaseMemoStats().hits, 0);
    }
}

TEST_F(CostModelTest, PhaseMemoHitSkipsTheScheduleCache)
{
    const WaferCostModel model(
        wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    // A multi-task phase, so the memo covers the combine path.
    std::vector<net::CollectiveTask> tasks;
    for (const ParallelSpec &s : memoSpecs()) {
        const parallel::GroupLayout layout = model.buildLayout(graph_, s);
        for (const model::Operator &op : graph_.ops()) {
            const parallel::OpExecution exec =
                model.partitioner().analyze(op, layout);
            for (const auto *phase :
                 {&exec.fwd_collectives, &exec.bwd_collectives,
                  &exec.step_collectives})
                if (tasks.empty() && phase->size() >= 2)
                    tasks = *phase;
        }
    }
    ASSERT_GE(tasks.size(), 2u);
    const long n = static_cast<long>(tasks.size());

    double cold_bytes = 0.0;
    const net::ScheduleCacheStats cold_before = model.scheduleStats();
    const net::PhaseTiming cold =
        model.timeCollectiveTasks(tasks, &cold_bytes);
    const net::ScheduleCacheStats cold_stats =
        model.scheduleStats() - cold_before;
    EXPECT_EQ(cold_stats.lowerings + cold_stats.hits, n);
    EXPECT_GT(cold_stats.lowerings, 0);

    double warm_bytes = 0.0;
    const net::ScheduleCacheStats cache_before = model.scheduleStats();
    const net::PhaseTiming warm =
        model.timeCollectiveTasks(tasks, &warm_bytes);
    // Served whole: nothing re-lowers, and the schedule cache itself
    // was not even consulted.
    EXPECT_EQ(model.scheduleStats().lowerings, cache_before.lowerings);
    EXPECT_EQ(model.scheduleStats().hits, cache_before.hits);
    EXPECT_EQ(warm.time_s, cold.time_s);
    EXPECT_EQ(warm.bandwidth_utilization, cold.bandwidth_utilization);
    EXPECT_EQ(warm.total_bytes, cold.total_bytes);
    EXPECT_EQ(warm_bytes, cold_bytes);
    EXPECT_EQ(model.phaseMemoStats().hits, 1);
    EXPECT_EQ(model.phaseMemoStats().misses, 1);
}

TEST_F(CostModelTest, ConcurrentCostQueriesMatchSerialAnswers)
{
    const WaferCostModel reference(
        wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const std::vector<ParallelSpec> specs = memoSpecs();
    std::vector<parallel::GroupLayout> layouts;
    std::vector<OpCostBreakdown> expected;
    for (const ParallelSpec &s : specs) {
        layouts.push_back(reference.buildLayout(graph_, s));
        for (const model::Operator &op : graph_.ops())
            expected.push_back(reference.opCost(op, layouts.back()));
    }

    const WaferCostModel shared(
        wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    constexpr int kThreads = 4;
    std::vector<std::vector<OpCostBreakdown>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Every thread costs every cell, starting at a different
            // spec, so memo misses and fills overlap across threads.
            for (std::size_t k = 0; k < layouts.size(); ++k) {
                const std::size_t l = (k + 2 * t) % layouts.size();
                for (const model::Operator &op : graph_.ops())
                    got[t].push_back(shared.opCost(op, layouts[l]));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const std::size_t ops = static_cast<std::size_t>(graph_.opCount());
    for (int t = 0; t < kThreads; ++t)
        for (std::size_t k = 0; k < layouts.size(); ++k) {
            const std::size_t l = (k + 2 * t) % layouts.size();
            for (std::size_t o = 0; o < ops; ++o)
                expectSameBreakdown(got[t][k * ops + o],
                                    expected[l * ops + o]);
        }
}

TEST_F(CostModelTest, AxisVolumeEstimatesDriveOrdering)
{
    WaferCostModel model(wafer_,
                         tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const tcme::AxisVolumes volumes =
        model.estimateAxisVolumes(graph_, spec(2, 2, 1, 8));
    EXPECT_GT(volumes[static_cast<std::size_t>(parallel::Axis::TP)], 0.0);
    EXPECT_GT(volumes[static_cast<std::size_t>(parallel::Axis::TATP)], 0.0);
    EXPECT_GT(volumes[static_cast<std::size_t>(parallel::Axis::DP)], 0.0);
    EXPECT_DOUBLE_EQ(volumes[static_cast<std::size_t>(parallel::Axis::CP)],
                     0.0);
}

TEST(Mlp, LearnsLinearFunction)
{
    Rng rng(3);
    Mlp mlp({2, 16, 1}, rng);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 64; ++i) {
        const double a = rng.uniformReal(-1, 1);
        const double b = rng.uniformReal(-1, 1);
        xs.push_back({a, b});
        ys.push_back(3.0 * a - 2.0 * b + 0.5);
    }
    const double mse = mlp.train(xs, ys, 800, 1e-2);
    EXPECT_LT(mse, 1e-3);
    EXPECT_NEAR(mlp.predictScalar({0.5, 0.5}), 1.0, 0.1);
}

TEST(Mlp, LearnsNonlinearFunction)
{
    Rng rng(5);
    Mlp mlp({1, 24, 24, 1}, rng);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniformReal(-2, 2);
        xs.push_back({x});
        ys.push_back(x * x);
    }
    mlp.train(xs, ys, 1500, 1e-2);
    EXPECT_NEAR(mlp.predictScalar({1.0}), 1.0, 0.2);
    EXPECT_NEAR(mlp.predictScalar({-1.5}), 2.25, 0.4);
}

TEST(Surrogate, DatasetGeneratorProducesFiniteSamples)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    CostDatasetGenerator gen(wafer);
    Rng rng(11);
    for (CostTargetKind kind :
         {CostTargetKind::Computation, CostTargetKind::Communication,
          CostTargetKind::Overlap}) {
        const auto samples = gen.generate(kind, 50, rng);
        ASSERT_EQ(samples.size(), 50u);
        for (const CostSample &s : samples) {
            EXPECT_TRUE(std::isfinite(s.latency_s));
            EXPECT_GT(s.latency_s, 0.0);
            EXPECT_FALSE(s.features.empty());
        }
    }
}

TEST(Surrogate, DnnBeatsLinearBaseline)
{
    // The Fig. 21 shape: DNN correlation > linear, DNN error < linear.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    CostDatasetGenerator gen(wafer);
    Rng rng(13);
    const auto train = gen.generate(CostTargetKind::Computation, 200, rng);
    const auto test = gen.generate(CostTargetKind::Computation, 80, rng);

    DnnCostModel dnn(17);
    dnn.epochs = 800;  // shortened for test runtime
    dnn.fit(train);
    LinearCostModel linear;
    linear.fit(train);

    const FidelityReport dnn_report = evaluatePredictor(dnn, test);
    const FidelityReport lin_report = evaluatePredictor(linear, test);
    EXPECT_GT(dnn_report.correlation, 0.95);
    EXPECT_LT(dnn_report.mape, lin_report.mape);
}

}  // namespace
}  // namespace temp::cost
