/**
 * @file
 * The unified cost-evaluation layer.
 *
 * Every search phase of the Dual-Level Wafer Solver — the DP matrix
 * fill, GA fitness and the exhaustive baseline — reduces to the same
 * primitive: (operator, strategy) ->
 * OpCostBreakdown. This layer owns that primitive so callers stop
 * hand-rolling buildLayout + opCost loops:
 *
 *  - ExactEvaluator wraps WaferCostModel and memoizes both GroupLayout
 *    construction (per spec) and breakdowns (per op/spec/include_step)
 *    behind hash-keyed caches; evaluateBatch fans the misses out over a
 *    ThreadPool with deterministic result placement.
 *  - CachingEvaluator is a decorator adding the same memo over *any*
 *    backend, so one cache can be shared across solver phases (DP, GA,
 *    final simulation) and future backends (learned cost models, remote
 *    evaluation) plug in under it.
 *
 * Caches key on a content fingerprint of the graph (not its address),
 * so one evaluator safely serves many graphs/models.
 */
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bounded_cache.hpp"
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

/// Evaluation-layer counters. Honest accounting: a breakdown is
/// *measured* exactly once; every further request for it is a cache hit.
struct EvalStats
{
    long measurements = 0;   ///< unique breakdowns computed
    long cache_hits = 0;     ///< requests served from the memo
    long layouts_built = 0;  ///< unique GroupLayout constructions
    long layout_hits = 0;    ///< layout lookups served from the memo
    /**
     * Collective-schedule accounting one layer down: lowerings run vs.
     * served from the shared net::ScheduleCache across the breakdowns
     * this evaluator handled. A breakdown served from the breakdown
     * memo charges its schedule work as hits — recomputing it would
     * have hit the schedule cache on every lookup.
     */
    long schedule_lowerings = 0;
    long schedule_cache_hits = 0;
    /**
     * Entries the evaluator's own memos (breakdowns + layouts) dropped
     * to honour a cache budget. Zero under the default unbounded
     * budgets; nonzero eviction with unchanged results is the bounded
     * mode working as designed (evicted keys recount as misses).
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

/// Content fingerprint of a graph for cache keys (FNV-1a over the model
/// configuration and graph shape).
std::uint64_t graphFingerprint(const model::ComputeGraph &graph);

/// Cache key of one request under a graph fingerprint.
std::string evalKey(std::uint64_t graph_fp, const EvalRequest &request);

/// Cache key of one spec's layout under a graph fingerprint.
std::string layoutKey(std::uint64_t graph_fp,
                      const parallel::ParallelSpec &spec);

/// Appends one spec's content encoding to a cache key (shared by the
/// matrix, layout and full-step key builders).
void appendSpecKey(std::string &key, const parallel::ParallelSpec &spec);

/**
 * Thread-safe memo of (graph, spec) -> GroupLayout for one cost model.
 * Shared by the evaluators and the training simulator so a layout is
 * built once per solve instead of once per phase (the GA alone calls
 * the simulator hundreds of times with recurring specs).
 */
class LayoutCache
{
  public:
    explicit LayoutCache(const cost::WaferCostModel &model);

    /// Returns the (possibly cached) layout of a spec for a graph.
    std::shared_ptr<const parallel::GroupLayout> layoutFor(
        const model::ComputeGraph &graph,
        const parallel::ParallelSpec &spec);

    long builds() const { return builds_.load(); }
    long hits() const { return hits_.load(); }

    /// Entry budget (0 = unbounded). Evicted layouts rebuild (and
    /// recount as builds) on return; callers hold shared_ptrs, so
    /// in-flight layouts survive their own eviction.
    void setMaxEntries(long max_entries)
    {
        cache_.setCapacity(max_entries);
    }

    /// Byte budget over the layouts' honest heap estimates
    /// (0 = unbounded).
    void setMaxBytes(long max_bytes) { cache_.setMaxBytes(max_bytes); }

    /// Governance counters for CacheStatsRequest reporting.
    common::CacheStats cacheStats() const { return cache_.stats(); }

    const cost::WaferCostModel &costModel() const { return model_; }

  private:
    const cost::WaferCostModel &model_;
    common::BoundedCache<std::string,
                         std::shared_ptr<const parallel::GroupLayout>>
        cache_;
    std::atomic<long> builds_{0};
    std::atomic<long> hits_{0};
};

/// The evaluation interface every backend implements.
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
     * independent, so values are bit-exact across pool sizes). The
     * default implementation is the serial loop.
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
        common::BudgetGauge *gauge = nullptr);

    /// Cumulative counters (zero for stateless backends).
    virtual EvalStats stats() const { return {}; }
};

/**
 * The exact backend: WaferCostModel with memoized layouts and
 * breakdowns, parallel batch evaluation over an optional ThreadPool.
 */
class ExactEvaluator : public CostEvaluator
{
  public:
    /**
     * @param model The wafer cost model to wrap.
     * @param pool Optional pool for evaluateBatch (nullptr = serial).
     * @param memoize_breakdowns Disable when an outer CachingEvaluator
     *        already memoizes, so hits are counted exactly once.
     */
    explicit ExactEvaluator(const cost::WaferCostModel &model,
                            ThreadPool *pool = nullptr,
                            bool memoize_breakdowns = true);

    cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                   const EvalRequest &request) override;

    std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr) override;

    EvalStats stats() const override;

    /// Applies the evaluator-level budgets: breakdown memo
    /// (max_eval_entries) and layout memo (max_layout_entries).
    void setCacheBudget(const common::CacheBudget &budget);

    /// Governance counters of the breakdown memo.
    common::CacheStats breakdownCacheStats() const
    {
        return cache_.stats();
    }

    LayoutCache &layoutCache() { return layouts_; }
    const LayoutCache &layoutCache() const { return layouts_; }
    const cost::WaferCostModel &costModel() const { return model_; }

  private:
    /// Computes one breakdown (no breakdown-memo interaction).
    cost::OpCostBreakdown compute(const model::ComputeGraph &graph,
                                  const EvalRequest &request);

    const cost::WaferCostModel &model_;
    ThreadPool *pool_;
    bool memoize_;
    LayoutCache layouts_;
    common::BoundedCache<std::string, cost::OpCostBreakdown> cache_;
    std::atomic<long> measurements_{0};
    std::atomic<long> cache_hits_{0};
    std::atomic<long> schedule_lowerings_{0};
    std::atomic<long> schedule_cache_hits_{0};
};

/**
 * Memoizing decorator over any backend. The framework shares one
 * instance across all solver phases so the DP matrix, GA fitness
 * costing and the final simulation never re-measure a cell.
 */
class CachingEvaluator : public CostEvaluator
{
  public:
    explicit CachingEvaluator(CostEvaluator &inner);

    cost::OpCostBreakdown evaluate(const model::ComputeGraph &graph,
                                   const EvalRequest &request) override;

    std::vector<cost::OpCostBreakdown> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<EvalRequest> &requests,
        common::BudgetGauge *gauge = nullptr) override;

    /// Own hit/measure counters plus the inner backend's layout
    /// counters.
    EvalStats stats() const override;

    /// Entry budget of the shared breakdown memo (0 = unbounded).
    void setMaxEntries(long max_entries)
    {
        cache_.setCapacity(max_entries);
    }

    /// Byte budget of the shared breakdown memo (0 = unbounded).
    void setMaxBytes(long max_bytes) { cache_.setMaxBytes(max_bytes); }

    /// Governance counters of the shared breakdown memo.
    common::CacheStats cacheStats() const { return cache_.stats(); }

    /// Visits every resident (key, breakdown) pair — the persist
    /// layer's export hook. Keys are evalKey() content keys, so the
    /// visited pairs are valid in any process with the same options.
    template <typename Fn>
    void forEachCached(Fn &&fn) const
    {
        cache_.forEach(std::forward<Fn>(fn));
    }

    /**
     * Seeds the memo with one persisted entry (warm start). A resident
     * value wins over the import, so a live memo is never overwritten;
     * imports count as neither measurements nor hits — the honest
     * counters track only what *this* process computed or served.
     */
    void importCached(const std::string &key,
                      const cost::OpCostBreakdown &breakdown)
    {
        cache_.insert(key, breakdown);
    }

    CostEvaluator &inner() { return inner_; }
    const CostEvaluator &inner() const { return inner_; }

  private:
    CostEvaluator &inner_;
    common::BoundedCache<std::string, cost::OpCostBreakdown> cache_;
    std::atomic<long> measurements_{0};
    std::atomic<long> cache_hits_{0};
    std::atomic<long> schedule_lowerings_{0};
    std::atomic<long> schedule_cache_hits_{0};
};

/**
 * Rewrites a memo-served breakdown's schedule accounting: none of its
 * lowerings re-ran, so they all count as (would-be) schedule-cache
 * hits. Keeps "repeat solves report schedule_lowerings == 0" honest
 * all the way up to SolverResult.
 */
void markScheduleServed(cost::OpCostBreakdown &breakdown);

}  // namespace temp::eval
