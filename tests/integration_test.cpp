/**
 * @file
 * Cross-module integration and property tests: conservation laws that
 * must hold for every spec (work, parameters), simulator monotonicity,
 * baseline-family structure, fault-aware layout, and answers that do
 * not depend on the evaluation width.
 */
#include <gtest/gtest.h>

#include "api/serialize.hpp"
#include "baselines/strategies.hpp"
#include "core/framework.hpp"

namespace temp {
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

/// Representative spec sweep used by the property tests.
std::vector<ParallelSpec>
specSweep()
{
    return {
        spec(32, 1, 1, 1), spec(1, 1, 1, 32), spec(4, 1, 1, 8),
        spec(1, 8, 1, 4),  spec(2, 2, 2, 4),  spec(1, 1, 1, 4, 8),
        spec(2, 1, 1, 8, 1, 2),
    };
}

// ---------------------------------------------------------------------
// Conservation properties of the unified representation.
// ---------------------------------------------------------------------

sim::PerfReport
simResult(const sim::TrainingSimulator &sim, const ParallelSpec &s)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    return sim.simulate(graph, s);
}

class ConservationTest : public ::testing::TestWithParam<int>
{
  protected:
    ConservationTest()
        : mesh_(4, 8),
          graph_(model::ComputeGraph::transformer(
              model::modelByName("GPT-3 6.7B")))
    {
    }

    hw::MeshTopology mesh_;
    model::ComputeGraph graph_;
};

TEST_P(ConservationTest, GemmWorkIsConservedAcrossDies)
{
    // Sum of per-die FLOPs over all active dies equals the operator's
    // total FLOPs for GEMM-family ops (no work is lost or duplicated),
    // for every parallel spec.
    const ParallelSpec s = specSweep()[GetParam()];
    parallel::GroupLayout layout(mesh_, s);
    parallel::Partitioner part;
    for (const model::Operator &op : graph_.ops()) {
        if (!op.isGemm())
            continue;
        const parallel::OpExecution exec = part.analyze(op, layout);
        EXPECT_NEAR(exec.fwd_flops_per_die * layout.usedDies(),
                    op.forwardFlops(), op.forwardFlops() * 1e-9)
            << op.name << " under " << s.str();
    }
}

TEST_P(ConservationTest, ParameterStateIsNeverLost)
{
    // Per-die weight bytes x weight shards == full weights: sharding
    // partitions, replication multiplies, but nothing disappears.
    const ParallelSpec s = specSweep()[GetParam()];
    parallel::GroupLayout layout(mesh_, s);
    parallel::Partitioner part;
    const double shards = s.tp * s.tatp * s.fsdp;
    for (const model::Operator &op : graph_.ops()) {
        if (!op.has_weight)
            continue;
        const parallel::OpExecution exec = part.analyze(op, layout);
        EXPECT_NEAR(exec.weight_bytes * shards, op.weightBytes(),
                    op.weightBytes() * 1e-9)
            << op.name << " under " << s.str();
    }
}

TEST_P(ConservationTest, SimulatedFlopsMatchModelTotals)
{
    // The simulator's reported useful FLOPs equal the graph's training
    // FLOPs (x accumulation handled internally, recompute adds more).
    const ParallelSpec s = specSweep()[GetParam()];
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    sim::TrainingSimulator sim(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const sim::PerfReport r = simResult(sim, s);
    if (!r.feasible)
        GTEST_SKIP();
    const double expected = graph_.totalTrainingFlops();
    const double factor = r.recompute ? 4.0 / 3.0 : 1.0;
    EXPECT_NEAR(r.total_flops, expected * factor, expected * 0.02)
        << s.str();
}

INSTANTIATE_TEST_SUITE_P(Specs, ConservationTest,
                         ::testing::Range(0, 7));

// ---------------------------------------------------------------------
// Simulator monotonicity.
// ---------------------------------------------------------------------

TEST(SimulatorProperty, MoreLayersCostMoreTime)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    sim::TrainingSimulator sim(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    auto small_cfg = model::modelByName("GPT-3 6.7B");
    auto big_cfg = small_cfg;
    big_cfg.layers *= 2;
    const auto s = spec(4, 1, 1, 8);
    const auto small = sim.simulate(
        model::ComputeGraph::transformer(small_cfg), s);
    const auto big =
        sim.simulate(model::ComputeGraph::transformer(big_cfg), s);
    EXPECT_NEAR(big.step_time / small.step_time, 2.0, 0.1);
}

TEST(SimulatorProperty, BiggerBatchCostsMoreTime)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    sim::TrainingSimulator sim(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const auto base = model::modelByName("GPT-3 6.7B");
    const auto s = spec(4, 1, 1, 8);
    const auto b64 = sim.simulate(
        model::ComputeGraph::transformer(base.withSeqBatch(2048, 64)), s);
    const auto b128 = sim.simulate(
        model::ComputeGraph::transformer(base.withSeqBatch(2048, 128)),
        s);
    EXPECT_GT(b128.step_time, b64.step_time);
    // Throughput (tokens/s) should not degrade with batch.
    EXPECT_GE(b128.throughput_tokens_per_s,
              0.9 * b64.throughput_tokens_per_s);
}

TEST(SimulatorProperty, FasterLinksNeverHurt)
{
    hw::WaferConfig slow_cfg = hw::WaferConfig::paperDefault();
    slow_cfg.d2d.bandwidth_bytes_per_s /= 8.0;
    hw::Wafer fast(hw::WaferConfig::paperDefault());
    hw::Wafer slow(slow_cfg);
    sim::TrainingSimulator fast_sim(
        fast, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    sim::TrainingSimulator slow_sim(
        slow, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    for (const auto &s : {spec(1, 8, 1, 4), spec(1, 1, 1, 32)}) {
        const auto f = fast_sim.simulate(graph, s);
        const auto sl = slow_sim.simulate(graph, s);
        EXPECT_LE(f.step_time, sl.step_time * 1.0001) << s.str();
    }
}

// ---------------------------------------------------------------------
// Baseline families.
// ---------------------------------------------------------------------

TEST(Baselines, FamilyStructuresMatchTheirPapers)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    sim::TrainingSimulator sim(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::SMap});
    baselines::BaselineGenerator gen(sim);
    const auto model = model::modelByName("GPT-3 175B");

    for (const auto &s : gen.candidateFamily(
             baselines::BaselineKind::Megatron1, model)) {
        EXPECT_EQ(s.tatp, 1);
        EXPECT_EQ(s.sp, 1);
        EXPECT_EQ(s.cp, 1);
        EXPECT_EQ(s.fsdp, 1);
        EXPECT_LE(s.tp, 8);  // NVLink-era cap
    }
    for (const auto &s : gen.candidateFamily(
             baselines::BaselineKind::MegatronSP, model)) {
        EXPECT_EQ(s.tatp, 1);
        EXPECT_EQ(s.coupled_sp, s.tp > 1);
        EXPECT_LE(s.tp, 32);
    }
    for (const auto &s :
         gen.candidateFamily(baselines::BaselineKind::Fsdp, model)) {
        EXPECT_EQ(s.tatp, 1);
        EXPECT_EQ(s.tp, 1);
        EXPECT_EQ(s.dp, 1);
        EXPECT_GE(s.fsdp, 1);
    }
}

TEST(Baselines, Names)
{
    EXPECT_STREQ(baselines::baselineName(
                     baselines::BaselineKind::Megatron1),
                 "Mega");
    EXPECT_STREQ(baselines::baselineName(
                     baselines::BaselineKind::MegatronSP),
                 "MeSP");
    EXPECT_STREQ(baselines::baselineName(baselines::BaselineKind::Fsdp),
                 "FSDP");
}

// ---------------------------------------------------------------------
// Fault-aware layout and solving.
// ---------------------------------------------------------------------

TEST(FaultAware, UsableDiesExcludesStrandedComponent)
{
    hw::WaferConfig config = hw::WaferConfig::paperDefault();
    hw::FaultMap faults(32, 0);
    hw::Wafer probe(config);
    const auto &mesh = probe.topology();
    // Cut off the left 4x2 block.
    for (int r = 0; r < 4; ++r) {
        faults.failLink(mesh.linkId(mesh.dieAt(r, 1), mesh.dieAt(r, 2)));
        faults.failLink(mesh.linkId(mesh.dieAt(r, 2), mesh.dieAt(r, 1)));
    }
    hw::Wafer wafer(config, faults);
    EXPECT_EQ(wafer.usableDieCount(), 24);
    for (hw::DieId die : wafer.usableDies())
        EXPECT_GE(mesh.coordOf(die).col, 2);
}

TEST(FaultAware, DeadDiesExcluded)
{
    hw::WaferConfig config = hw::WaferConfig::paperDefault();
    hw::FaultMap faults(32, 0);
    faults.setCoreFaultFraction(5, 1.0);  // fully dead die
    hw::Wafer wafer(config, faults);
    EXPECT_EQ(wafer.usableDieCount(), 31);
}

TEST(FaultAware, SolverCoversSurvivingDies)
{
    hw::FaultMap faults(32, 0);
    faults.setCoreFaultFraction(31, 1.0);
    core::TempFramework fw(hw::WaferConfig::paperDefault());
    const auto result = fw.optimizeWithFaults(
        model::modelByName("GPT-3 6.7B"), faults);
    ASSERT_TRUE(result.feasible);
    // With 31 usable dies, dense-DP enumeration still covers > half.
    for (const auto &s : result.per_op_specs)
        EXPECT_GT(s.totalDegree(), 15);
}

TEST(EvalWidth, TableTwoAnswersAreBitIdenticalAcrossEvalThreads)
{
    // Every Table II model under every level-2 engine, solved cold on
    // a fresh framework at 1, 2 and 4 eval threads: the plan, the
    // exact step time, the full report, the work counters and the
    // whole EvalStats (layout hits and schedule lowerings included)
    // must not see the width.
    for (const model::ModelConfig &model : model::evaluationModels()) {
        for (solver::SearchEngineKind engine :
             {solver::SearchEngineKind::NoRefine,
              solver::SearchEngineKind::Genetic,
              solver::SearchEngineKind::BeamTabu}) {
            std::vector<solver::SolverResult> results;
            std::vector<std::string> eval_stats;
            for (int threads : {1, 2, 4}) {
                core::FrameworkOptions options;
                options.eval_threads = threads;
                options.solver.engine = engine;
                const core::TempFramework framework(
                    hw::WaferConfig::paperDefault(), options);
                results.push_back(framework.optimize(model));
                eval_stats.push_back(
                    api::toJson(framework.evaluatorStats()));
            }
            const std::string label =
                model.name + " / " + solver::searchEngineName(engine);
            ASSERT_TRUE(results[0].feasible) << label;
            for (std::size_t r = 1; r < results.size(); ++r) {
                EXPECT_EQ(results[r].per_op_specs, results[0].per_op_specs)
                    << label;
                EXPECT_EQ(results[r].step_time_s, results[0].step_time_s)
                    << label;
                EXPECT_EQ(api::toJson(results[r].report),
                          api::toJson(results[0].report))
                    << label;
                EXPECT_EQ(results[r].step_sims, results[0].step_sims)
                    << label;
                EXPECT_EQ(results[r].quanta_used, results[0].quanta_used)
                    << label;
                EXPECT_EQ(results[r].evaluations, results[0].evaluations)
                    << label;
                EXPECT_EQ(results[r].matrix_measurements,
                          results[0].matrix_measurements)
                    << label;
                EXPECT_EQ(results[r].schedule_lowerings,
                          results[0].schedule_lowerings)
                    << label;
                EXPECT_EQ(eval_stats[r], eval_stats[0]) << label;
            }
        }
    }
}

}  // namespace
}  // namespace temp
