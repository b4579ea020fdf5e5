/**
 * @file
 * The Dual-Level Search (DLS) algorithm of the Dual-Level Wafer Solver
 * (Sec. VII-B, Fig. 12b).
 *
 * Level structure:
 *  - graph partition: the operator chain is cut at residual-free
 *    boundaries into sub-graphs, shrinking the per-instance space;
 *  - level 1, dynamic programming: per sub-chain, an exact DP over
 *    (operator, strategy) states with inter-operator resharding
 *    transition costs (Eq. 3) localises decisions;
 *  - level 2, pluggable refinement (solver/search_engine.hpp): genomes
 *    encode the per-operator strategy choices; fitness is the *full*
 *    training-step simulation (which captures cross-operator effects
 *    the additive DP model cannot: merged gradient-sync bucketing,
 *    contention, memory), memoized and batch-parallel behind the
 *    shared eval::StepEvaluator. The default engine is the paper's
 *    genetic refinement; beam-tabu and DP-only engines plug into the
 *    same seam.
 */
#pragma once

#include <memory>

#include "eval/cost_evaluator.hpp"
#include "eval/step_evaluator.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/search_engine.hpp"
#include "solver/solve_budget.hpp"
#include "solver/strategy_space.hpp"

namespace temp::solver {

/// Tuning of the dual-level search.
struct SolverConfig
{
    StrategySpaceOptions space;
    /// Which level-2 refinement runs after the DP.
    SearchEngineKind engine = SearchEngineKind::Genetic;
    int ga_population = 16;
    int ga_generations = 20;
    double ga_mutation_rate = 0.25;
    std::uint64_t seed = 1;
    /**
     * Threads for the evaluator's batch matrix fill when the solver
     * owns its evaluator (an injected evaluator brings its own pool).
     * 0 means hardware concurrency. Results are bit-exact across
     * thread counts.
     */
    int eval_threads = 0;
    /**
     * The solve budget (solver.deadline.* config keys). The quantum
     * cap is part of the result-determining configuration — two solves
     * with equal quantum budgets return bit-identical results on any
     * machine — while the wall-clock cap and cancel token only ever
     * round a run *down* to a quantum boundary. Zero caps and an
     * unarmed token mean unbudgeted (the default).
     */
    SolveBudget deadline;
};

/**
 * Warm-start hints for an incremental re-solve — the scenario engine's
 * post-fault recovery path. A hinted solve differs from a cold solve
 * in two deterministic ways: the previous winning plan is injected
 * into the level-2 seed pool, and the uniform-seeding batch is capped
 * to the additive matrix's top-K candidates instead of full-step
 * simulating every candidate. Both are pure functions of (graph,
 * hints, config, seed), so a hinted solve replays bit-identically.
 */
struct SolveHints
{
    /**
     * The previous winning per-op specs, injected into the level-2
     * seed pool as a genome. Ops whose old spec is no longer in the
     * candidate set (the degraded wafer changed the space) fall back
     * to the fresh DP choice for that op; an empty or length-mismatched
     * vector injects nothing.
     */
    std::vector<parallel::ParallelSpec> seed_specs;
    /**
     * Cap on the uniform-seeding batch: only the top-K candidates
     * ranked by the already-filled additive cost matrix are full-step
     * simulated (<= 0 simulates every candidate, the cold behaviour).
     * The cap is what makes a warm re-solve run strictly fewer step
     * sims than a cold solve of the same event whenever the candidate
     * set is larger than K.
     */
    int uniform_top_k = 8;
};

/// Outcome of a search.
struct SolverResult
{
    bool feasible = false;
    std::vector<parallel::ParallelSpec> per_op_specs;
    /// Simulated step time of the best strategy.
    double step_time_s = 0.0;
    /// Full report of the best strategy.
    sim::PerfReport report;
    /// Wall-clock search time (set on every return path, infeasible
    /// solves included).
    double search_time_s = 0.0;
    /**
     * Total (op, strategy) cost queries the search issued: matrix
     * cells (measured or cached), DP transition
     * evaluations and uniform-candidate simulations. The work the
     * *algorithm* asked for, independent of caching.
     */
    long evaluations = 0;
    /**
     * Unique exact measurements of (op, strategy) matrix cells — cache
     * misses only, counted once (what the shared evaluator cache
     * reduces). `evaluations - cache served` accounting stays honest:
     * matrix_measurements + cache_hits add up to the matrix queries
     * issued.
     */
    long matrix_measurements = 0;
    /// Matrix queries served from the evaluator cache.
    long cache_hits = 0;
    /**
     * Unique full-step simulations this solve ran (uniform seeding,
     * refiner fitness, the final report) — the full-step mirror of
     * matrix_measurements. step_sims + step_cache_hits equals the
     * step queries issued, and every one of them is also counted in
     * `evaluations`; a repeat solve on a shared StepEvaluator reports
     * step_sims == 0.
     */
    long step_sims = 0;
    /// Step queries served from the StepEvaluator memo.
    long step_cache_hits = 0;
    /**
     * Collective tasks lowered during this solve — the network-layer
     * mirror of matrix_measurements/step_sims: the tasks of every
     * collective phase the cost model's phase memo inserted, read as
     * the delta of WaferCostModel::scheduleLowerings() across the
     * solve. Racing duplicate misses count once, so the count is
     * exact at any eval_threads; a repeat solve on a warm framework
     * reports 0.
     */
    long schedule_lowerings = 0;
    /// Retired: always 0 since lowered schedules stopped being cached.
    /// Kept (with its JSON key) until the benchmark stops reading it.
    long schedule_cache_hits = 0;
    /**
     * Memo entries (cells, layouts, step reports) evicted during
     * this solve to honour a finite cache budget. Zero under the
     * default unbounded budgets. Nonzero eviction with bit-identical
     * results is bounded mode working as designed; the re-measurement
     * cost it induces shows up honestly in matrix_measurements /
     * step_sims instead of being hidden.
     */
    long cache_evictions = 0;
    /// Number of candidate specs per operator.
    int candidate_count = 0;
    /**
     * True when the solve budget tripped before the search completed:
     * the result is the best-feasible-so-far at the quantum boundary
     * where the budget latched (never a torn mid-batch state). The
     * mandatory preamble — matrix fill, uniform seeding, DP, DP-plan
     * simulation — always runs, so even an exhausted solve returns a
     * fully simulated plan.
     */
    bool budget_exhausted = false;
    /// Budget quanta (full-step fitness queries) this solve charged.
    long quanta_used = 0;
};

/// The DLS solver.
class DlsSolver
{
  public:
    /**
     * @param simulator Full-step simulator (refiner fitness, final
     *        report).
     * @param config Search tuning.
     * @param evaluator Optional shared evaluation backend; when null
     *        the solver owns an exact evaluator over the
     *        simulator's cost model (config.eval_threads wide).
     * @param steps Optional shared full-step evaluator (uniform
     *        seeding, refiner fitness, final report); when null the
     *        solver owns one over `simulator` (config.eval_threads
     *        wide). Sharing it across solves is what makes repeat
     *        optimisations re-simulate nothing.
     */
    DlsSolver(const sim::TrainingSimulator &simulator,
              SolverConfig config = SolverConfig{},
              eval::CostEvaluator *evaluator = nullptr,
              eval::StepEvaluator *steps = nullptr);

    /// Finds the best per-operator strategy assignment for the graph.
    SolverResult solve(const model::ComputeGraph &graph) const
    {
        return solve(graph, nullptr);
    }

    /**
     * Finds the best assignment, warm-started from @p hints (see
     * SolveHints; null hints is exactly the cold solve).
     */
    SolverResult solve(const model::ComputeGraph &graph,
                       const SolveHints *hints) const
    {
        return solve(graph, hints, SolveBudget{});
    }

    /**
     * Finds the best assignment under the tighter of @p budget and the
     * configured deadline (the serving layer passes a request's
     * remaining deadline and cancel token here). Budget checks happen
     * only at quantum boundaries, so a budgeted solve returns the
     * bit-exact prefix of the unbudgeted one, flagged via
     * SolverResult::budget_exhausted.
     */
    SolverResult solve(const model::ComputeGraph &graph,
                       const SolveHints *hints,
                       const SolveBudget &budget) const;

    const SolverConfig &config() const { return config_; }

    /// The evaluation backend this solver queries.
    eval::CostEvaluator &evaluator() const { return *eval_; }

    /// The full-step evaluation backend this solver queries.
    eval::StepEvaluator &stepEvaluator() const { return *steps_; }

  private:
    /// DP over one sub-chain [begin, end); returns per-op candidate ids.
    std::vector<int> solveChainDp(
        const model::ComputeGraph &graph, int begin, int end,
        const std::vector<parallel::ParallelSpec> &candidates,
        const std::vector<std::vector<double>> &op_cost,
        long *evaluations) const;

    const sim::TrainingSimulator &sim_;
    SolverConfig config_;
    /// Owned backends when none are injected.
    std::unique_ptr<ThreadPool> owned_pool_;
    std::unique_ptr<eval::ExactEvaluator> owned_eval_;
    std::unique_ptr<eval::StepEvaluator> owned_steps_;
    eval::CostEvaluator *eval_ = nullptr;
    eval::StepEvaluator *steps_ = nullptr;
    /// The level-2 refinement engine config_ selects.
    std::unique_ptr<SearchEngine> engine_;
};

/**
 * The ILP-substitute baseline for the Sec. VIII-H search-time
 * comparison: branch-and-bound exhaustive enumeration over the same
 * additive objective the DP optimises. Exponential in operator count.
 */
class ExhaustiveSolver
{
  public:
    /// @param evaluator Optional shared backend (as in DlsSolver).
    ExhaustiveSolver(const sim::TrainingSimulator &simulator,
                     StrategySpaceOptions space,
                     eval::CostEvaluator *evaluator = nullptr);

    /**
     * Solves by full enumeration.
     *
     * @param op_limit Optional cap on the number of leading operators
     *        considered (<=0 means all); keeps bench runtimes sane.
     * @param time_budget_s Abort (marking infeasible) past this budget.
     */
    SolverResult solve(const model::ComputeGraph &graph, int op_limit = 0,
                       double time_budget_s = 300.0) const;

  private:
    const sim::TrainingSimulator &sim_;
    StrategySpaceOptions space_;
    std::unique_ptr<eval::ExactEvaluator> owned_eval_;
    eval::CostEvaluator *eval_ = nullptr;
};

}  // namespace temp::solver
