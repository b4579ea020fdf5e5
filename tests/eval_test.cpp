/**
 * @file
 * Tests for the unified cost-evaluation layer: the thread pool, memo
 * correctness (cached == recomputed, bit-exact), parallel batch
 * determinism across thread counts, honest measurement/hit accounting,
 * the op-cell memo the matrix shares with the simulator, the step-report
 * memo cleared by setFaults(), and solver invariance under evaluator
 * sharing.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "common/thread_pool.hpp"
#include "eval/cost_evaluator.hpp"
#include "eval/step_evaluator.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/dls_solver.hpp"
#include "solver/strategy_space.hpp"

namespace temp::eval {
namespace {

using parallel::ParallelSpec;

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::vector<std::atomic<int>> visits(1000);
    pool.parallelFor(visits.size(),
                     [&](std::size_t i) { ++visits[i]; });
    for (const std::atomic<int> &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(StepKey, SpellsEveryDegreeAsToStringDoes)
{
    // The key is persisted (snapshot STEP entries), so its spelling is
    // pinned against a std::to_string reference, one- to three-digit
    // degrees and both coupling flags included.
    const auto reference = [](std::uint64_t fp,
                              const std::vector<ParallelSpec> &specs) {
        std::string key = std::to_string(fp);
        for (const ParallelSpec &s : specs) {
            key += '|';
            for (int degree : {s.dp, s.fsdp, s.tp, s.sp, s.cp, s.tatp, s.pp})
                key += std::to_string(degree) + ',';
            key += s.coupled_sp ? 'c' : 'n';
        }
        return key;
    };
    ParallelSpec wide;
    wide.dp = 128;
    wide.fsdp = 16;
    wide.tp = 9;
    wide.sp = 10;
    wide.tatp = 32;
    wide.coupled_sp = true;
    ParallelSpec narrow;
    narrow.tp = 8;
    const std::vector<ParallelSpec> specs{wide, narrow, wide};
    for (std::uint64_t fp : {std::uint64_t{0}, std::uint64_t{7},
                             std::uint64_t{18446744073709551615u}}) {
        EXPECT_EQ(stepKey(fp, specs), reference(fp, specs));
        EXPECT_EQ(stepKey(fp, {}), reference(fp, {}));
    }
    // Longer than the on-stack buffer: the heap path.
    const std::vector<ParallelSpec> many(100, wide);
    EXPECT_EQ(stepKey(3, many), reference(3, many));
}

TEST(ThreadPool, ReusableAcrossJobsAndPropagatesExceptions)
{
    ThreadPool pool(3);
    long sum = 0;
    std::mutex m;
    for (int round = 0; round < 5; ++round) {
        pool.parallelFor(100, [&](std::size_t i) {
            std::lock_guard<std::mutex> lock(m);
            sum += static_cast<long>(i);
        });
    }
    EXPECT_EQ(sum, 5 * (99 * 100 / 2));
    EXPECT_THROW(pool.parallelFor(10,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // Pool still functional after the throwing job.
    std::atomic<int> count{0};
    pool.parallelFor(50, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 50);
}

class EvalTest : public ::testing::Test
{
  protected:
    EvalTest()
        : wafer_(hw::WaferConfig::paperDefault()),
          sim_(wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::TCME}),
          graph_(model::ComputeGraph::transformer(
              model::modelByName("GPT-3 6.7B")))
    {
        solver::StrategySpaceOptions space;
        space.allow_sp = false;  // keep the matrix small and fast
        candidates_ = solver::enumerateStrategies(wafer_.dieCount(),
                                                  graph_.config(), space);
    }

    std::vector<EvalRequest>
    fullMatrix() const
    {
        std::vector<EvalRequest> requests;
        for (int i = 0; i < graph_.opCount(); ++i)
            for (const ParallelSpec &spec : candidates_)
                requests.push_back({i, spec, true});
        return requests;
    }

    static void
    expectBitExact(const cost::OpCostBreakdown &a,
                   const cost::OpCostBreakdown &b)
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

    hw::Wafer wafer_;
    sim::TrainingSimulator sim_;
    model::ComputeGraph graph_;
    std::vector<ParallelSpec> candidates_;
};

TEST_F(EvalTest, CachedBreakdownEqualsRecomputedBitExact)
{
    ASSERT_FALSE(candidates_.empty());
    ExactEvaluator cached(sim_.costModel());
    const EvalRequest request{3, candidates_[candidates_.size() / 2],
                              true};
    const cost::OpCostBreakdown first = cached.evaluate(graph_, request);
    const cost::OpCostBreakdown hit = cached.evaluate(graph_, request);
    // A matrix entry is the cell composed with its step phase, which
    // is exactly opCost(..., include_step=true) on a fresh cost model.
    const sim::TrainingSimulator fresh(wafer_, sim_.costModel().policy());
    const cost::OpCostBreakdown recomputed = fresh.costModel().opCost(
        graph_.op(request.op_id),
        fresh.costModel().buildLayout(graph_, request.spec), true);
    expectBitExact(first, hit);
    expectBitExact(first, recomputed);
    EXPECT_EQ(cached.stats().measurements, 1);
    EXPECT_EQ(cached.stats().cache_hits, 1);
}

TEST_F(EvalTest, BatchDeterministicAcrossThreadCounts)
{
    // Each width fills its own cost model's cell memo from cold.
    const std::vector<EvalRequest> requests = fullMatrix();
    std::vector<std::vector<cost::OpCostBreakdown>> runs;
    for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const sim::TrainingSimulator sim(wafer_, sim_.costModel().policy());
        ExactEvaluator evaluator(sim.costModel(), &pool);
        runs.push_back(evaluator.evaluateBatch(graph_, requests));
        // The memos take their lock shards from the pool's width: one
        // inline shard for a serial pool, 16 otherwise.
        EXPECT_EQ(sim.costModel().memoShardCount(), threads > 1 ? 16u : 1u);
        EXPECT_EQ(evaluator.stats().measurements,
                  static_cast<long>(requests.size()));
        EXPECT_EQ(evaluator.stats().layouts_built,
                  static_cast<long>(candidates_.size()));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            expectBitExact(runs[0][i], runs[r][i]);
    }
}

TEST_F(EvalTest, BatchMatchesSingleEvaluate)
{
    ThreadPool pool(2);
    ExactEvaluator batched(sim_.costModel(), &pool);
    const sim::TrainingSimulator other(wafer_, sim_.costModel().policy());
    ExactEvaluator single(other.costModel());
    const std::vector<EvalRequest> requests = fullMatrix();
    const std::vector<cost::OpCostBreakdown> batch =
        batched.evaluateBatch(graph_, requests);
    for (std::size_t i = 0; i < requests.size(); i += 37)
        expectBitExact(batch[i], single.evaluate(graph_, requests[i]));
}

TEST_F(EvalTest, StatsCountUniqueMeasurementsOnceAndHitsSeparately)
{
    ExactEvaluator caching(sim_.costModel());
    const std::vector<EvalRequest> requests = fullMatrix();
    const long n = static_cast<long>(requests.size());

    caching.evaluateBatch(graph_, requests);
    EXPECT_EQ(caching.stats().measurements, n);
    EXPECT_EQ(caching.stats().cache_hits, 0);

    // A second identical batch is served entirely from the memo.
    caching.evaluateBatch(graph_, requests);
    EXPECT_EQ(caching.stats().measurements, n);
    EXPECT_EQ(caching.stats().cache_hits, n);

    // Layouts were built once per candidate, not once per cell.
    EXPECT_EQ(caching.stats().layouts_built,
              static_cast<long>(candidates_.size()));

    // The matrix's totals form counts alike and reduces each entry to
    // feasible ? total() : +inf, with and without the step phase.
    const std::vector<EvalRequest> bare = [&] {
        std::vector<EvalRequest> out = requests;
        for (EvalRequest &request : out)
            request.include_step = false;
        return out;
    }();
    for (const std::vector<EvalRequest> *batch : {&requests, &bare}) {
        const std::vector<double> totals =
            caching.evaluateTotals(graph_, *batch);
        const std::vector<cost::OpCostBreakdown> entries =
            caching.evaluateBatch(graph_, *batch);
        ASSERT_EQ(totals.size(), entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            EXPECT_EQ(totals[i],
                      entries[i].feasible
                          ? entries[i].total()
                          : std::numeric_limits<double>::infinity());
        }
    }
    EXPECT_EQ(caching.stats().measurements, n);
    EXPECT_EQ(caching.stats().cache_hits, 5 * n);
}

TEST_F(EvalTest, DuplicateRequestsWithinOneBatchMeasureOnce)
{
    ExactEvaluator evaluator(sim_.costModel());
    std::vector<EvalRequest> requests;
    for (int rep = 0; rep < 5; ++rep)
        requests.push_back({0, candidates_[0], true});
    const auto results = evaluator.evaluateBatch(graph_, requests);
    for (int rep = 1; rep < 5; ++rep)
        expectBitExact(results[0], results[rep]);
    EXPECT_EQ(evaluator.stats().measurements, 1);
    EXPECT_EQ(evaluator.stats().cache_hits, 4);
}

TEST_F(EvalTest, MatrixFillServesEveryUniformSimulation)
{
    // The DP matrix and the simulator read one op-cell memo: once the
    // matrix is filled, simulating any uniform candidate on the full
    // graph costs no new cell and places no new layout. Only the
    // micro-batch graphs of candidates that fall back to gradient
    // accumulation are new to the memo, because no matrix costs them.
    ThreadPool pool(2);
    ExactEvaluator evaluator(sim_.costModel(), &pool);
    evaluator.evaluateBatch(graph_, fullMatrix());
    const cost::WaferCostModel &model = sim_.costModel();
    int served = 0;
    for (const ParallelSpec &spec : candidates_) {
        const long cell_misses = model.cellMemoStats().misses;
        const long layouts = model.layoutBuilds();
        const sim::PerfReport report = sim_.simulate(graph_, spec);
        if (report.grad_accum > 1 || report.recompute)
            continue;
        ++served;
        EXPECT_EQ(model.cellMemoStats().misses, cell_misses) << spec.str();
        EXPECT_EQ(model.layoutBuilds(), layouts) << spec.str();
    }
    EXPECT_GT(served, static_cast<int>(candidates_.size()) / 2);
}

TEST_F(EvalTest, DistinctGraphsDoNotCollideInTheCache)
{
    ExactEvaluator evaluator(sim_.costModel());
    const model::ComputeGraph half = model::ComputeGraph::transformer(
        graph_.config().withSeqBatch(graph_.config().seq,
                                     graph_.config().batch / 2));
    const EvalRequest request{1, candidates_[0], true};
    const cost::OpCostBreakdown full_batch =
        evaluator.evaluate(graph_, request);
    const cost::OpCostBreakdown half_batch =
        evaluator.evaluate(half, request);
    EXPECT_EQ(evaluator.stats().measurements, 2);
    EXPECT_NE(full_batch.flops, half_batch.flops);
}

// ---------------------------------------------------------------------
// Step evaluator (full-step simulation memo).
// ---------------------------------------------------------------------

namespace {

void
expectReportBitExact(const sim::PerfReport &a, const sim::PerfReport &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.step_time, b.step_time);
    EXPECT_EQ(a.comp_time, b.comp_time);
    EXPECT_EQ(a.collective_time, b.collective_time);
    EXPECT_EQ(a.exposed_comm, b.exposed_comm);
    EXPECT_EQ(a.reshard_time, b.reshard_time);
    EXPECT_EQ(a.grad_sync_time, b.grad_sync_time);
    EXPECT_EQ(a.grad_accum, b.grad_accum);
    EXPECT_EQ(a.recompute, b.recompute);
    EXPECT_EQ(a.peak_mem_bytes, b.peak_mem_bytes);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.total_flops, b.total_flops);
    EXPECT_EQ(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    EXPECT_EQ(a.strategy_desc, b.strategy_desc);
}

}  // namespace

TEST_F(EvalTest, StepEvaluatorCachedReportEqualsDirectSimulation)
{
    ASSERT_GE(candidates_.size(), 2u);
    StepEvaluator steps(sim_);
    std::vector<ParallelSpec> mixed(
        static_cast<std::size_t>(graph_.opCount()), candidates_[0]);
    for (std::size_t i = 0; i < mixed.size(); i += 2)
        mixed[i] = candidates_[1];

    const sim::PerfReport first = steps.evaluate(graph_, mixed);
    const sim::PerfReport hit = steps.evaluate(graph_, mixed);
    const sim::PerfReport direct = sim_.simulate(graph_, mixed);
    expectReportBitExact(first, hit);
    expectReportBitExact(first, direct);
    EXPECT_EQ(steps.stats().sims, 1);
    EXPECT_EQ(steps.stats().cache_hits, 1);
}

TEST_F(EvalTest, StepEvaluatorUniformOverloadSharesBroadcastKey)
{
    StepEvaluator steps(sim_);
    const sim::PerfReport uniform =
        steps.evaluate(graph_, candidates_[0]);
    const sim::PerfReport broadcast = steps.evaluate(
        graph_, std::vector<ParallelSpec>(
                    static_cast<std::size_t>(graph_.opCount()),
                    candidates_[0]));
    expectReportBitExact(uniform, broadcast);
    EXPECT_EQ(steps.stats().sims, 1);
    EXPECT_EQ(steps.stats().cache_hits, 1);
}

TEST_F(EvalTest, StepEvaluatorNeverServesAReportAcrossSetFaults)
{
    // Reports derive from the fault state: after setFaults() on the
    // simulator's wafer the memo must answer like a fresh simulator on
    // a wafer built with those faults, not serve the healthy report.
    ParallelSpec tatp;
    for (const ParallelSpec &spec : solver::enumerateStrategies(
             wafer_.dieCount(), graph_.config(),
             solver::StrategySpaceOptions{}))
        if (spec.tatp > 1) {
            tatp = spec;
            break;
        }
    ASSERT_EQ(tatp.dp, 1);
    ASSERT_EQ(tatp.tp, 1);
    ASSERT_EQ(tatp.sp, 1);
    ASSERT_EQ(tatp.tatp, 32);

    StepEvaluator steps(sim_);
    const sim::PerfReport healthy = steps.evaluate(graph_, tatp);

    hw::FaultMap faults(wafer_.dieCount(), wafer_.topology().linkCount());
    for (hw::LinkId link = 0; link < wafer_.topology().linkCount();
         link += 7)
        faults.failLink(link);
    faults.setCoreFaultFraction(0, 0.5);
    wafer_.setFaults(faults);

    const hw::Wafer degraded(wafer_.config(), faults);
    const sim::TrainingSimulator fresh(
        degraded, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const sim::PerfReport expected = fresh.simulate(graph_, tatp);
    EXPECT_NE(expected.step_time, healthy.step_time);
    expectReportBitExact(steps.evaluate(graph_, tatp), expected);
    EXPECT_EQ(steps.stats().sims, 2);
}

TEST_F(EvalTest, StepBatchDeterministicAcrossThreadCountsAndDedups)
{
    // A generation-sized batch with recurring genomes: results must be
    // bit-exact for any pool width, and duplicates simulate once.
    std::vector<std::vector<ParallelSpec>> generation;
    const std::size_t n_ops =
        static_cast<std::size_t>(graph_.opCount());
    for (std::size_t g = 0; g < 24; ++g) {
        std::vector<ParallelSpec> genome(
            n_ops, candidates_[g % candidates_.size()]);
        genome[g % n_ops] = candidates_[(g / 2) % candidates_.size()];
        generation.push_back(std::move(genome));
    }
    generation.push_back(generation[0]);  // in-batch duplicate
    generation.push_back(generation[5]);

    std::set<std::string> unique_keys;
    for (const std::vector<ParallelSpec> &genome : generation)
        unique_keys.insert(stepKey(graphFingerprint(graph_), genome));
    const long unique = static_cast<long>(unique_keys.size());
    const long total = static_cast<long>(generation.size());
    ASSERT_LT(unique, total);  // the duplicates really are duplicates

    std::vector<std::vector<sim::PerfReport>> runs;
    for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const sim::TrainingSimulator sim(wafer_, sim_.costModel().policy());
        StepEvaluator steps(sim, &pool);
        runs.push_back(steps.evaluateBatch(graph_, generation));
        EXPECT_EQ(sim.costModel().memoShardCount(), threads > 1 ? 16u : 1u);
        EXPECT_EQ(steps.stats().sims, unique);
        EXPECT_EQ(steps.stats().cache_hits, total - unique);
        // The memo files each report under its stepKey (snapshots
        // persist these keys).
        std::set<std::string> cached;
        steps.forEachCached(
            [&](const std::string &key, const sim::PerfReport &) {
                cached.insert(key);
            });
        EXPECT_EQ(cached, unique_keys);

        // A repeat batch is served entirely from the memo.
        steps.evaluateBatch(graph_, generation);
        EXPECT_EQ(steps.stats().sims, unique);
        EXPECT_EQ(steps.stats().cache_hits, (total - unique) + total);
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            expectReportBitExact(runs[0][i], runs[r][i]);
    }
    // Duplicates carry the same bits as their originals.
    expectReportBitExact(runs[0][generation.size() - 2], runs[0][0]);
    expectReportBitExact(runs[0][generation.size() - 1], runs[0][5]);
}

// ---------------------------------------------------------------------
// Solver integration: evaluator sharing must not change results.
// ---------------------------------------------------------------------

TEST_F(EvalTest, SolverIdenticalWithOwnedAndSharedEvaluator)
{
    solver::DlsSolver owned(sim_);
    const solver::SolverResult a = owned.solve(graph_);

    // A second simulator, so the injected solve starts from a cold
    // cell memo.
    const sim::TrainingSimulator sim(wafer_, sim_.costModel().policy());
    ThreadPool pool(2);
    ExactEvaluator shared(sim.costModel(), &pool);
    solver::DlsSolver injected(sim, solver::SolverConfig{}, &shared);
    const solver::SolverResult b = injected.solve(graph_);

    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    ASSERT_EQ(a.per_op_specs.size(), b.per_op_specs.size());
    for (std::size_t i = 0; i < a.per_op_specs.size(); ++i)
        EXPECT_TRUE(a.per_op_specs[i] == b.per_op_specs[i]);
    EXPECT_DOUBLE_EQ(a.step_time_s, b.step_time_s);

    // First solve measured every cell once...
    EXPECT_GT(b.matrix_measurements, 0);
    EXPECT_EQ(b.cache_hits, 0);

    // ...a repeat solve through the shared evaluator re-measures none.
    const solver::SolverResult c = injected.solve(graph_);
    ASSERT_TRUE(c.feasible);
    EXPECT_EQ(c.matrix_measurements, 0);
    EXPECT_GT(c.cache_hits, 0);
    EXPECT_EQ(c.cache_hits, b.matrix_measurements);
    for (std::size_t i = 0; i < a.per_op_specs.size(); ++i)
        EXPECT_TRUE(c.per_op_specs[i] == a.per_op_specs[i]);
}

}  // namespace
}  // namespace temp::eval
