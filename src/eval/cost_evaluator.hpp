/**
 * @file
 * The unified cost-evaluation layer.
 *
 * Every search phase of the Dual-Level Wafer Solver — the DP matrix
 * fill and the exhaustive baseline — reduces to the same primitive:
 * (operator, strategy) -> OpCostBreakdown. This layer owns that
 * primitive so callers stop hand-rolling buildLayout + opCost loops.
 *
 * ExactEvaluator reads every entry from the cost model's op-cell memo
 * (WaferCostModel::findCell/addCell), the one op-level memo the training
 * simulator shares: a matrix entry is its cell plus the cell's step
 * phase (OpCell::withStep). evaluateBatch deduplicates the batch, costs
 * the missing cells over a ThreadPool, and places results
 * deterministically.
 */
#pragma once

#include <atomic>
#include <vector>

#include "common/budget.hpp"
#include "common/thread_pool.hpp"
#include "cost/cost_model.hpp"

namespace temp::eval {

/// One (operator, strategy) evaluation request.
struct EvalRequest
{
    int op_id = 0;
    parallel::ParallelSpec spec;
    /// Include per-step gradient-sync collectives (the additive matrix
    /// wants them; the simulator merges them across the layer instead).
    bool include_step = true;
};

/// Evaluation-layer counters. Honest accounting: a cell is *measured*
/// exactly once; every further request for it is a cache hit.
struct EvalStats
{
    long measurements = 0;   ///< unique cells costed by this evaluator
    long cache_hits = 0;     ///< requests served from the cell memo
    long layouts_built = 0;  ///< unique layouts the cost model built
    long layout_hits = 0;    ///< layout lookups served from its memo
    /// The cost model's schedule-cache counters (model-wide, like
    /// layouts_built): schedules lowered and lookups served.
    long schedule_lowerings = 0;
    long schedule_cache_hits = 0;
    /**
     * Entries the cost model's cell and layout memos dropped to honour
     * a cache budget. Zero under the default unbounded budgets;
     * nonzero eviction with unchanged results is the bounded mode
     * working as designed (evicted keys recount as misses).
     */
    long evictions = 0;

    EvalStats operator-(const EvalStats &other) const
    {
        return {measurements - other.measurements,
                cache_hits - other.cache_hits,
                layouts_built - other.layouts_built,
                layout_hits - other.layout_hits,
                schedule_lowerings - other.schedule_lowerings,
                schedule_cache_hits - other.schedule_cache_hits,
                evictions - other.evictions};
    }
};

/**
 * The evaluation interface. Kept virtual only because
 * perfbench/src/probes.cpp drives the solver through a CachingEvaluator;
 * it goes when that probe moves onto a public seam.
 */
class CostEvaluator
{
  public:
    virtual ~CostEvaluator() = default;

    /// Evaluates one request.
    virtual cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                           const EvalRequest &request) = 0;

    /**
     * Evaluates a batch; result[i] always corresponds to requests[i]
     * regardless of thread count (deterministic ordering — cells are
     * independent, so values are bit-exact across pool sizes).
     *
     * Solve-budget contract: a matrix batch is atomic — it always
     * completes (the DP needs the whole matrix, so the budgeted solve
     * path treats the fill as mandatory preamble) and charges no
     * quanta (quanta meter full-step fitness queries). The optional
     * @p gauge is polled once *after* the batch, so a wall-clock cap
     * or cancel token that expired during the fill latches at this
     * quantum boundary instead of one batch later.
     */
    virtual std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr) = 0;

    /// Cumulative counters.
    virtual EvalStats stats() const = 0;
};

/**
 * The exact backend: matrix entries from the cost model's op-cell memo,
 * parallel batch evaluation over an optional ThreadPool.
 */
class ExactEvaluator : public CostEvaluator
{
  public:
    /**
     * @param model The wafer cost model to read cells from.
     * @param pool Optional pool for evaluateBatch (nullptr = serial).
     * The trailing bool selects nothing; it is kept only so
     * perfbench/src/probes.cpp still compiles.
     */
    explicit ExactEvaluator(const cost::WaferCostModel &model,
                            ThreadPool *pool = nullptr, bool = true);

    cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                   const EvalRequest &request) override;

    std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr) override;

    EvalStats stats() const override;

  private:
    const cost::WaferCostModel &model_;
    ThreadPool serial_{1};
    ThreadPool &pool_;
    std::atomic<long> measurements_{0};
    std::atomic<long> cache_hits_{0};
};

/**
 * A memo-free forwarder to another evaluator, kept only because
 * perfbench/src/probes.cpp constructs one; it goes with the virtual
 * interface.
 */
class CachingEvaluator : public CostEvaluator
{
  public:
    explicit CachingEvaluator(CostEvaluator &inner) : inner_(inner) {}

    cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                   const EvalRequest &request) override
    {
        return inner_.evaluate(graph, request);
    }

    std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr) override
    {
        return inner_.evaluateBatch(graph, requests, gauge);
    }

    EvalStats stats() const override { return inner_.stats(); }

  private:
    CostEvaluator &inner_;
};

}  // namespace temp::eval
