/**
 * @file
 * Tests for the Dual-Level Wafer Solver: strategy enumeration, the DP +
 * GA search, and the exhaustive (ILP-substitute) baseline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "eval/cost_evaluator.hpp"
#include "eval/step_evaluator.hpp"
#include "hw/fault.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/dls_solver.hpp"
#include "solver/search_engine.hpp"
#include "solver/solve_budget.hpp"
#include "solver/strategy_space.hpp"

namespace temp::solver {
namespace {

using parallel::ParallelSpec;

TEST(StrategySpace, FullOccupancyProductsMatchDieCount)
{
    const auto model = model::modelByName("GPT-3 6.7B");
    StrategySpaceOptions options;
    const auto specs = enumerateStrategies(32, model, options);
    ASSERT_FALSE(specs.empty());
    for (const ParallelSpec &s : specs) {
        EXPECT_EQ(s.totalDegree(), 32);
        EXPECT_TRUE(s.valid());
    }
}

TEST(StrategySpace, AxisGatingWorks)
{
    const auto model = model::modelByName("GPT-3 6.7B");
    StrategySpaceOptions options;
    options.allow_tatp = false;
    options.allow_sp = false;
    for (const ParallelSpec &s : enumerateStrategies(32, model, options)) {
        EXPECT_EQ(s.tatp, 1);
        EXPECT_EQ(s.sp, 1);
    }
}

TEST(StrategySpace, TpCapHonoursModelHeadsAndOption)
{
    auto model = model::modelByName("GPT-3 6.7B");
    StrategySpaceOptions options;
    options.max_tp = 8;
    for (const ParallelSpec &s : enumerateStrategies(32, model, options))
        EXPECT_LE(s.tp, 8);
    model.heads = 4;
    options.max_tp = 1 << 20;
    for (const ParallelSpec &s : enumerateStrategies(32, model, options))
        EXPECT_LE(s.tp, 4);
}

TEST(StrategySpace, DpBoundedByBatch)
{
    auto model = model::modelByName("GPT-3 6.7B");
    model.batch = 8;
    StrategySpaceOptions options;
    for (const ParallelSpec &s : enumerateStrategies(32, model, options))
        EXPECT_LE(s.dp, 8);
}

TEST(StrategySpace, PartialOccupancyWhenAllowed)
{
    const auto model = model::modelByName("GPT-3 6.7B");
    StrategySpaceOptions options;
    options.full_occupancy = false;
    bool found_partial = false;
    for (const ParallelSpec &s : enumerateStrategies(32, model, options))
        found_partial = found_partial || s.totalDegree() < 32;
    EXPECT_TRUE(found_partial);
}

class SolverTest : public ::testing::Test
{
  protected:
    SolverTest()
        : wafer_(hw::WaferConfig::paperDefault()),
          sim_(wafer_, tcme::MappingPolicy{tcme::MappingEngineKind::TCME})
    {
    }

    hw::Wafer wafer_;
    sim::TrainingSimulator sim_;
};

TEST_F(SolverTest, FindsFeasibleStrategyForSmallModel)
{
    DlsSolver solver(sim_);
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    const SolverResult result = solver.solve(graph);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(static_cast<int>(result.per_op_specs.size()),
              graph.opCount());
    EXPECT_GT(result.step_time_s, 0.0);
    EXPECT_FALSE(result.report.oom);
    EXPECT_GT(result.candidate_count, 10);
}

TEST_F(SolverTest, BeatsEveryUniformCandidateOrTies)
{
    DlsSolver solver(sim_);
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("Llama2 7B"));
    const SolverResult result = solver.solve(graph);
    ASSERT_TRUE(result.feasible);

    StrategySpaceOptions space;
    for (const ParallelSpec &s :
         enumerateStrategies(32, graph.config(), space)) {
        const sim::PerfReport r = sim_.simulate(graph, s);
        if (!r.feasible || r.oom)
            continue;
        EXPECT_LE(result.step_time_s, r.step_time * 1.0001)
            << "uniform " << s.str() << " beats the solver";
    }
}

TEST_F(SolverTest, MemoryFeasibleOnLargeModel)
{
    DlsSolver solver(sim_);
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 175B"));
    const SolverResult result = solver.solve(graph);
    ASSERT_TRUE(result.feasible);
    EXPECT_FALSE(result.report.oom)
        << "best plan must fit memory: " << result.report.peak_mem_bytes;
    // Parameter-state sharding must come from the weighted ops.
    for (int i = 0; i < graph.opCount(); ++i) {
        if (graph.op(i).has_weight) {
            const ParallelSpec &s = result.per_op_specs[i];
            EXPECT_GE(s.tatp * s.tp * s.fsdp, 8)
                << "weighted op " << graph.op(i).name << " under-sharded";
        }
    }
}

TEST_F(SolverTest, TatpAppearsInOptimalPlans)
{
    // The headline claim: the TATP-extended space beats TATP-free plans.
    DlsSolver with_tatp(sim_);
    SolverConfig no_tatp_cfg;
    no_tatp_cfg.space.allow_tatp = false;
    DlsSolver without_tatp(sim_, no_tatp_cfg);

    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("Llama3 70B"));
    const SolverResult with = with_tatp.solve(graph);
    const SolverResult without = without_tatp.solve(graph);
    ASSERT_TRUE(with.feasible);
    ASSERT_TRUE(without.feasible);
    EXPECT_LE(with.step_time_s, without.step_time_s);
    bool uses_tatp = false;
    for (const ParallelSpec &s : with.per_op_specs)
        uses_tatp = uses_tatp || s.tatp > 1;
    EXPECT_TRUE(uses_tatp);
}

TEST_F(SolverTest, DeterministicUnderFixedSeed)
{
    DlsSolver solver(sim_);
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    const SolverResult a = solver.solve(graph);
    const SolverResult b = solver.solve(graph);
    ASSERT_TRUE(a.feasible);
    EXPECT_EQ(a.per_op_specs.size(), b.per_op_specs.size());
    for (std::size_t i = 0; i < a.per_op_specs.size(); ++i)
        EXPECT_TRUE(a.per_op_specs[i] == b.per_op_specs[i]);
    EXPECT_DOUBLE_EQ(a.step_time_s, b.step_time_s);
}

TEST_F(SolverTest, GaRefinesOrMatchesDp)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 175B"));
    SolverConfig no_ga;
    no_ga.engine = SearchEngineKind::NoRefine;
    const SolverResult dp_only = DlsSolver(sim_, no_ga).solve(graph);
    const SolverResult full = DlsSolver(sim_).solve(graph);
    ASSERT_TRUE(dp_only.feasible);
    ASSERT_TRUE(full.feasible);
    EXPECT_LE(full.step_time_s, dp_only.step_time_s * 1.0001);
}

TEST_F(SolverTest, BeamTabuEngineRefinesOrMatchesDpAndIsDeterministic)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("Llama2 7B"));
    SolverConfig dp_cfg;
    dp_cfg.engine = SearchEngineKind::NoRefine;
    SolverConfig beam_cfg;
    beam_cfg.engine = SearchEngineKind::BeamTabu;
    beam_cfg.ga_generations = 6;

    const SolverResult dp_only = DlsSolver(sim_, dp_cfg).solve(graph);
    const SolverResult beam = DlsSolver(sim_, beam_cfg).solve(graph);
    ASSERT_TRUE(dp_only.feasible);
    ASSERT_TRUE(beam.feasible);
    // The engine keeps the DP incumbent, so it can never end up worse.
    EXPECT_LE(beam.step_time_s, dp_only.step_time_s * 1.0001);
    // The beam queried full-step fitness beyond the DP-only floor.
    EXPECT_GT(beam.step_sims + beam.step_cache_hits,
              dp_only.step_sims + dp_only.step_cache_hits);

    const SolverResult repeat = DlsSolver(sim_, beam_cfg).solve(graph);
    ASSERT_TRUE(repeat.feasible);
    EXPECT_EQ(repeat.per_op_specs, beam.per_op_specs);
    EXPECT_DOUBLE_EQ(repeat.step_time_s, beam.step_time_s);
}

TEST_F(SolverTest, InfeasibleSolveStillReportsSearchTime)
{
    // With every parallel axis disabled no strategy covers the wafer's
    // dies, so the solve returns infeasible before any search — yet
    // the time it spent is still reported.
    SolverConfig cfg;
    cfg.space.allow_dp = false;
    cfg.space.allow_fsdp = false;
    cfg.space.allow_tp = false;
    cfg.space.allow_sp = false;
    cfg.space.allow_cp = false;
    cfg.space.allow_tatp = false;
    const SolverResult result = DlsSolver(sim_, cfg).solve(
        model::ComputeGraph::transformer(model::modelByName("GPT-3 6.7B")));
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.candidate_count, 0);
    EXPECT_GT(result.search_time_s, 0.0);
}

TEST_F(SolverTest, RefinerDeterministicAcrossEvalThreads)
{
    // The refiner's batched fitness must be bit-exact for any pool
    // width: same plan, same step time, same accounting.
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    std::vector<SolverResult> results;
    for (int threads : {1, 2, 4}) {
        SolverConfig cfg;
        cfg.eval_threads = threads;
        results.push_back(DlsSolver(sim_, cfg).solve(graph));
        ASSERT_TRUE(results.back().feasible);
    }
    for (std::size_t r = 1; r < results.size(); ++r) {
        EXPECT_EQ(results[r].per_op_specs, results[0].per_op_specs);
        EXPECT_DOUBLE_EQ(results[r].step_time_s,
                         results[0].step_time_s);
        EXPECT_EQ(results[r].evaluations, results[0].evaluations);
        EXPECT_EQ(results[r].step_sims, results[0].step_sims);
        EXPECT_EQ(results[r].step_cache_hits,
                  results[0].step_cache_hits);
    }
}

TEST_F(SolverTest, StepAccountingIsHonest)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    DlsSolver solver(sim_);
    const SolverResult result = solver.solve(graph);
    ASSERT_TRUE(result.feasible);

    // The refiner's full-step queries are visible: unique simulations
    // plus memo hits, both non-zero for a GA run on a fresh solver
    // (the seed pool recurs, the final report is a hit).
    EXPECT_GT(result.step_sims, 0);
    EXPECT_GT(result.step_cache_hits, 0);
    // Every step query is also counted in `evaluations`, alongside the
    // matrix queries — the work the algorithm asked for includes the
    // full-step fitness the GA used to be silent about.
    EXPECT_GE(result.evaluations,
              result.step_sims + result.step_cache_hits);
    EXPECT_GE(result.evaluations,
              result.matrix_measurements + result.cache_hits +
                  result.step_sims + result.step_cache_hits);

    // A repeat solve on the same solver re-simulates nothing: the step
    // memo serves every query, and the answer is unchanged.
    const SolverResult repeat = solver.solve(graph);
    ASSERT_TRUE(repeat.feasible);
    EXPECT_EQ(repeat.step_sims, 0);
    EXPECT_EQ(repeat.step_cache_hits,
              result.step_sims + result.step_cache_hits);
    EXPECT_EQ(repeat.per_op_specs, result.per_op_specs);
    EXPECT_EQ(repeat.evaluations, result.evaluations);
}

TEST_F(SolverTest, ExhaustiveAgreesWithDpOnAdditiveObjective)
{
    // On a small instance the branch-and-bound enumeration and the DP
    // optimise the same additive objective; the DP must not be worse.
    StrategySpaceOptions space;
    space.allow_sp = false;
    space.allow_cp = false;
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));

    ExhaustiveSolver exhaustive(sim_, space);
    const SolverResult ex = exhaustive.solve(graph, /*op_limit=*/4,
                                             /*time_budget_s=*/60.0);
    ASSERT_TRUE(ex.feasible);
    EXPECT_GT(ex.evaluations, 0);
    EXPECT_GT(ex.search_time_s, 0.0);
}

TEST_F(SolverTest, DlsOrdersOfMagnitudeFasterThanExhaustive)
{
    // Sec. VIII-H: DLS explores the same space in polynomial time while
    // the exhaustive baseline grows exponentially in operator count.
    StrategySpaceOptions space;
    space.allow_sp = false;
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));

    SolverConfig dls_cfg;
    dls_cfg.space = space;
    dls_cfg.engine = SearchEngineKind::NoRefine;  // isolate the DP level
    DlsSolver dls(sim_, dls_cfg);
    const SolverResult fast = dls.solve(graph);

    ExhaustiveSolver exhaustive(sim_, space);
    const SolverResult slow = exhaustive.solve(graph, /*op_limit=*/5,
                                               /*time_budget_s=*/120.0);
    ASSERT_TRUE(fast.feasible);
    ASSERT_TRUE(slow.feasible);
    // The exhaustive pass covered 5 of 12 ops yet did far more work.
    EXPECT_GT(slow.evaluations, 4 * fast.evaluations);
}

/**
 * Builds a RefineContext the way the solver's level 1 does — uniform
 * reports, OOM-penalised ordering, a uniform DP plan — but over a
 * trimmed candidate set so the engine-level budget tests stay fast.
 */
class RefineHarness
{
  public:
    explicit RefineHarness(const sim::TrainingSimulator &sim)
        : graph_(model::ComputeGraph::transformer(
              model::modelByName("GPT-3 6.7B"))),
          pool_(2), steps_(sim, &pool_)
    {
        StrategySpaceOptions space;
        candidates_ = enumerateStrategies(32, graph_.config(), space);
        if (candidates_.size() > 10)
            candidates_.resize(10);
        boundaries_ = {0, graph_.opCount()};

        std::vector<std::vector<ParallelSpec>> uniform;
        for (const ParallelSpec &spec : candidates_)
            uniform.emplace_back(
                static_cast<std::size_t>(graph_.opCount()), spec);
        uniform_reports_ = steps_.evaluateBatch(graph_, uniform);
        for (std::size_t s = 0; s < candidates_.size(); ++s)
            if (uniform_reports_[s].feasible)
                uniform_order_.push_back(s);
        std::sort(uniform_order_.begin(), uniform_order_.end(),
                  [&](std::size_t a, std::size_t b) {
                      const auto &ra = uniform_reports_[a];
                      const auto &rb = uniform_reports_[b];
                      const double fa =
                          ra.step_time * (ra.oom ? 1e3 : 1.0);
                      const double fb =
                          rb.step_time * (rb.oom ? 1e3 : 1.0);
                      return fa < fb;
                  });

        dp_assignment_.assign(
            static_cast<std::size_t>(graph_.opCount()),
            static_cast<int>(uniform_order_.front()));
        dp_fitness_ = stepFitness(
            uniform_reports_[uniform_order_.front()]);
    }

    RefineContext ctx() const
    {
        return {graph_,          candidates_,    boundaries_,
                uniform_reports_, uniform_order_, dp_assignment_,
                dp_fitness_};
    }

    eval::StepEvaluator &steps() { return steps_; }

  private:
    model::ComputeGraph graph_;
    ThreadPool pool_;
    eval::StepEvaluator steps_;
    std::vector<ParallelSpec> candidates_;
    std::vector<int> boundaries_;
    std::vector<sim::PerfReport> uniform_reports_;
    std::vector<std::size_t> uniform_order_;
    std::vector<int> dp_assignment_;
    double dp_fitness_ = 0.0;
};

// ---------------------------------------------------------------------
// SolveBudget: quantum caps and prefix identity.
// ---------------------------------------------------------------------

TEST_F(SolverTest, BudgetedRefineIsBitExactPrefixOfUnbudgeted)
{
    RefineHarness harness(sim_);
    const GeneticRefiner engine(/*population=*/8, /*generations=*/6,
                                /*mutation_rate=*/0.15, /*seed=*/42);

    const RefineOutcome full = engine.refine(harness.ctx(), harness.steps());
    EXPECT_FALSE(full.budget_exhausted);
    EXPECT_EQ(full.steps, 6);

    // A quantum cap that trips mid-run: the driver stops at the next
    // slice boundary and returns the best-so-far prefix, flagged.
    SolveBudget budget;
    budget.max_quanta = full.fitness_queries / 2;
    common::BudgetGauge gauge = budget.gauge();
    RefineContext capped = harness.ctx();
    capped.gauge = &gauge;
    const RefineOutcome truncated =
        engine.refine(capped, harness.steps());
    EXPECT_TRUE(truncated.budget_exhausted);
    const int k = truncated.steps;
    EXPECT_LT(k, full.steps);
    EXPECT_GE(gauge.used(), budget.max_quanta);

    // The truncated run is bit-identical to an unbudgeted run advanced
    // by exactly k slices — same incumbent, fitness and accounting.
    const std::unique_ptr<RefineRun> run =
        engine.begin(harness.ctx(), harness.steps());
    for (int i = 0; i < k; ++i)
        run->step();
    const RefineOutcome prefix = run->outcome();
    EXPECT_EQ(prefix.steps, k);
    EXPECT_EQ(truncated.assignment, prefix.assignment);
    EXPECT_DOUBLE_EQ(truncated.fitness, prefix.fitness);
    EXPECT_EQ(truncated.fitness_queries, prefix.fitness_queries);

    // And the trip point is deterministic: a repeat under the same
    // quantum budget stops at the same boundary with the same plan.
    common::BudgetGauge again_gauge = budget.gauge();
    RefineContext again_ctx = harness.ctx();
    again_ctx.gauge = &again_gauge;
    const RefineOutcome again = engine.refine(again_ctx, harness.steps());
    EXPECT_EQ(again.assignment, truncated.assignment);
    EXPECT_EQ(again.fitness_queries, truncated.fitness_queries);
    EXPECT_EQ(again.steps, k);
}

TEST_F(SolverTest, SolverQuantumBudgetReturnsDeterministicBestSoFar)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    SolverConfig cfg;
    cfg.ga_generations = 8;
    const SolverResult full = DlsSolver(sim_, cfg).solve(graph);
    ASSERT_TRUE(full.feasible);
    EXPECT_FALSE(full.budget_exhausted);
    ASSERT_GT(full.quanta_used, 0);

    // A budget of exactly the full run's quanta never trips between
    // slices: the solve is bit-identical and unflagged.
    SolverConfig enough = cfg;
    enough.deadline.max_quanta = full.quanta_used;
    const SolverResult same = DlsSolver(sim_, enough).solve(graph);
    ASSERT_TRUE(same.feasible);
    EXPECT_FALSE(same.budget_exhausted);
    EXPECT_EQ(same.per_op_specs, full.per_op_specs);
    EXPECT_DOUBLE_EQ(same.step_time_s, full.step_time_s);
    EXPECT_EQ(same.quanta_used, full.quanta_used);

    // A tight cap truncates: still feasible (the preamble always
    // completes), flagged, cheaper than the full run, and bit-identical
    // across repeats — the budget is part of the result identity.
    SolverConfig tight = cfg;
    tight.deadline.max_quanta = full.quanta_used / 2;
    const SolverResult a = DlsSolver(sim_, tight).solve(graph);
    const SolverResult b = DlsSolver(sim_, tight).solve(graph);
    ASSERT_TRUE(a.feasible);
    EXPECT_TRUE(a.budget_exhausted);
    EXPECT_GE(a.quanta_used, tight.deadline.max_quanta);
    EXPECT_LT(a.quanta_used, full.quanta_used);
    // The prefix can only be as good as the full search.
    EXPECT_LE(full.step_time_s, a.step_time_s * 1.0001);
    EXPECT_EQ(a.per_op_specs, b.per_op_specs);
    EXPECT_DOUBLE_EQ(a.step_time_s, b.step_time_s);
    EXPECT_EQ(a.quanta_used, b.quanta_used);
    EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
}

TEST_F(SolverTest, BeamTabuDeterministicAcrossEvalThreadsUnderBudget)
{
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    SolverConfig cfg;
    cfg.engine = SearchEngineKind::BeamTabu;
    cfg.ga_generations = 6;
    const SolverResult free_run = DlsSolver(sim_, cfg).solve(graph);
    ASSERT_TRUE(free_run.feasible);
    ASSERT_GT(free_run.quanta_used, 0);

    // Run the beam under a binding quantum budget at three pool
    // widths: the truncated search must be bit-identical everywhere.
    std::vector<SolverResult> results;
    for (int threads : {1, 2, 4}) {
        SolverConfig capped = cfg;
        capped.eval_threads = threads;
        capped.deadline.max_quanta = free_run.quanta_used * 2 / 3;
        results.push_back(DlsSolver(sim_, capped).solve(graph));
        ASSERT_TRUE(results.back().feasible);
    }
    const SolverResult &first = results.front();
    EXPECT_TRUE(first.budget_exhausted);
    EXPECT_LT(first.quanta_used, free_run.quanta_used);
    for (std::size_t r = 1; r < results.size(); ++r) {
        const SolverResult &other = results[r];
        EXPECT_EQ(other.per_op_specs, first.per_op_specs);
        EXPECT_DOUBLE_EQ(other.step_time_s, first.step_time_s);
        EXPECT_EQ(other.quanta_used, first.quanta_used);
        EXPECT_EQ(other.evaluations, first.evaluations);
        EXPECT_EQ(other.budget_exhausted, first.budget_exhausted);
    }
}

/// The level-1 DP as it was before the degree table: one interOpTime
/// call per (producer, predecessor, state) triple.
std::vector<int>
referenceChainDp(const cost::WaferCostModel &model,
                 const model::ComputeGraph &graph, int begin, int end,
                 const std::vector<ParallelSpec> &candidates,
                 const std::vector<std::vector<double>> &op_cost,
                 long *evaluations)
{
    const int n_ops = end - begin;
    const int n_cand = static_cast<int>(candidates.size());
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dp_prev(op_cost[begin]), dp_cur(n_cand, inf);
    std::vector<int> back(static_cast<std::size_t>(n_ops) * n_cand, -1);
    std::vector<double> trans_row(n_cand);
    for (int i = 1; i < n_ops; ++i) {
        const model::Operator &producer = graph.op(begin + i - 1);
        long finite_prev = 0;
        for (int p = 0; p < n_cand; ++p)
            finite_prev += std::isinf(dp_prev[p]) ? 0 : 1;
        for (int s = 0; s < n_cand; ++s) {
            const double c = op_cost[begin + i][s];
            if (std::isinf(c)) {
                dp_cur[s] = inf;
                continue;
            }
            for (int p = 0; p < n_cand; ++p)
                trans_row[p] = p != s ? model.interOpTime(producer,
                                                          candidates[p],
                                                          candidates[s])
                                      : 0.0;
            *evaluations += finite_prev;
            const kernels::MinPlus r = kernels::minPlusArgmin(
                dp_prev.data(), trans_row.data(), c, n_cand);
            dp_cur[s] = r.value;
            back[static_cast<std::size_t>(i) * n_cand + s] = r.index;
        }
        std::swap(dp_prev, dp_cur);
    }
    int best = 0;
    for (int s = 1; s < n_cand; ++s)
        if (dp_prev[s] < dp_prev[best])
            best = s;
    std::vector<int> assignment(n_ops, 0);
    for (int i = n_ops - 1, cur = best; i >= 0; --i) {
        assignment[i] = cur;
        cur = i > 0 ? back[static_cast<std::size_t>(i) * n_cand + cur] : cur;
    }
    return assignment;
}

TEST(ChainDp, DegreeTableMatchesNestedInterOpTime)
{
    // On a healthy wafer every candidate has one total degree; on a
    // degraded one (dead dies, a partitioning link storm) occupancy is
    // relaxed and candidates of several degrees meet in one DP. The
    // tabled DP must pick the reference's assignment and count the
    // reference's evaluations, on the real cost matrix and on one
    // with random infeasible cells and jittered costs.
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("GPT-3 6.7B"));
    const hw::WaferConfig config = hw::WaferConfig::paperDefault();
    const hw::MeshTopology mesh(config.rows, config.cols);
    Rng fault_rng(5);
    std::vector<std::pair<std::string, hw::FaultMap>> wafers;
    wafers.emplace_back("healthy", hw::FaultMap());
    wafers.emplace_back("link", hw::FaultMap::randomLinkFaults(mesh, 0.2,
                                                               fault_rng));
    wafers.emplace_back("core", hw::FaultMap::randomCoreFaults(mesh, 0.3,
                                                               fault_rng));
    hw::FaultMap dead(mesh.dieCount(), mesh.linkCount());
    for (hw::DieId die : {3, 12, 21})
        dead.setCoreFaultFraction(die, 1.0);
    wafers.emplace_back("die", dead);

    int degraded_with_mixed_degrees = 0;
    for (const auto &[name, faults] : wafers) {
        SCOPED_TRACE(name);
        const hw::Wafer wafer(config, faults);
        const sim::TrainingSimulator sim(
            wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
        // The candidate space DlsSolver::solve searches on this wafer.
        const int budget = wafer.usableDieCount();
        StrategySpaceOptions space;
        space.full_occupancy = budget == wafer.dieCount();
        std::vector<ParallelSpec> candidates =
            enumerateStrategies(budget, graph.config(), space);
        if (!space.full_occupancy)
            std::erase_if(candidates, [&](const ParallelSpec &c) {
                return c.totalDegree() <= budget / 2;
            });
        ASSERT_GT(candidates.size(), 1u);
        std::set<int> degrees;
        for (const ParallelSpec &c : candidates)
            degrees.insert(c.totalDegree());
        if (degrees.size() > 1)
            ++degraded_with_mixed_degrees;

        eval::ExactEvaluator evaluator(sim.costModel());
        std::vector<eval::EvalRequest> requests;
        for (int i = 0; i < graph.opCount(); ++i)
            for (const ParallelSpec &c : candidates)
                requests.push_back({i, c, true});
        const std::vector<cost::OpCostBreakdown> cells =
            evaluator.evaluateBatch(graph, requests);
        std::vector<std::vector<double>> real(
            static_cast<std::size_t>(graph.opCount()));
        for (int i = 0; i < graph.opCount(); ++i)
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                const cost::OpCostBreakdown &cell =
                    cells[static_cast<std::size_t>(i) * candidates.size() +
                          c];
                real[i].push_back(cell.feasible
                                      ? cell.total()
                                      : std::numeric_limits<double>::
                                            infinity());
            }
        std::vector<std::vector<double>> jittered = real;
        Rng rng(11);
        for (auto &row : jittered)
            for (double &cost : row)
                cost = rng.uniformReal(0.0, 1.0) < 0.2
                           ? std::numeric_limits<double>::infinity()
                           : cost * rng.uniformReal(0.5, 1.5);

        for (const auto *op_cost : {&real, &jittered}) {
            for (const auto &[begin, end] :
                 {std::pair{0, graph.opCount()}, std::pair{2, 7}}) {
                long got_evals = 0;
                long want_evals = 0;
                const std::vector<int> got =
                    solveChainDp(sim.costModel(), graph, begin, end,
                                 candidates, *op_cost, &got_evals);
                const std::vector<int> want =
                    referenceChainDp(sim.costModel(), graph, begin, end,
                                     candidates, *op_cost, &want_evals);
                EXPECT_EQ(got, want) << begin << ".." << end;
                EXPECT_EQ(got_evals, want_evals) << begin << ".." << end;
                EXPECT_GT(want_evals, 0);
            }
        }
    }
    // The degraded wafers must actually mix degrees in one DP.
    EXPECT_GE(degraded_with_mixed_degrees, 2);
}

}  // namespace
}  // namespace temp::solver
