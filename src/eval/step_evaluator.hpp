/**
 * @file
 * StepEvaluator: the full-step sibling of CostEvaluator.
 *
 * The level-2 refinement of the DLS (and anything else that scores a
 * complete per-operator assignment) reduces to one primitive:
 * (graph, per-op assignment) -> PerfReport via the *full* training-step
 * simulation. That call captures cross-operator effects the additive
 * (op, strategy) matrix cannot — merged gradient-sync bucketing,
 * contention, memory pressure — and is therefore the hottest loop of
 * the whole search. This layer owns the primitive:
 *
 *  - reports are memoized behind a content key (graph fingerprint +
 *    the exact per-op spec sequence), so recurring genomes across GA
 *    generations, beam proposals and repeat optimize() calls on a
 *    shared framework simulate once and hit the memo after;
 *  - evaluateBatch deduplicates a whole generation of assignments and
 *    fans the misses out over a ThreadPool with deterministic result
 *    placement — simulations are independent, so results are bit-exact
 *    across thread counts (same contract as CostEvaluator's
 *    evaluateBatch);
 *  - StepStats carries the honest accounting: a report is *simulated*
 *    exactly once, every further request for it is a cache hit;
 *  - reports derive from the wafer's fault state, so a setFaults() on
 *    the simulator's wafer clears the memo (a fault listener, like the
 *    cost model's).
 */
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bounded_cache.hpp"
#include "common/budget.hpp"
#include "common/thread_pool.hpp"
#include "sim/trainer_sim.hpp"

namespace temp::eval {

/// Full-step simulation counters. sims + cache_hits equals the queries
/// issued through the evaluator.
struct StepStats
{
    long sims = 0;        ///< unique full-step simulations run
    long cache_hits = 0;  ///< queries served from the memo
    /// Entries the report memo dropped to honour a budget (0 under the
    /// default unbounded budgets; evicted genomes re-simulate and
    /// recount as sims on return). The cell and layout memos a
    /// simulation reads are counted by EvalStats.
    long evictions = 0;

    StepStats operator-(const StepStats &other) const
    {
        return {sims - other.sims, cache_hits - other.cache_hits,
                evictions - other.evictions};
    }
};

/// Cache key of one per-op assignment under a graph fingerprint.
std::string stepKey(std::uint64_t graph_fp,
                    const std::vector<parallel::ParallelSpec> &specs);

/// Transparent hash of the report memo's keys, so a batch probes it
/// with views and builds a key string only to insert.
struct StepKeyHash
{
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const
    {
        return std::hash<std::string_view>{}(key);
    }
};

/**
 * Memoizing, batch-parallel front end over TrainingSimulator::simulate.
 * Thread-safe; one instance can be shared by every search phase (GA
 * fitness, beam proposals, uniform seeding, the final report) and
 * across repeated solves on a long-lived framework.
 */
class StepEvaluator
{
  public:
    /**
     * @param simulator The full-step simulator to wrap.
     * @param pool Optional pool for evaluateBatch (nullptr = serial).
     */
    explicit StepEvaluator(const sim::TrainingSimulator &simulator,
                           ThreadPool *pool = nullptr);

    /// Unregisters the fault listener (see constructor).
    ~StepEvaluator();

    StepEvaluator(const StepEvaluator &) = delete;
    StepEvaluator &operator=(const StepEvaluator &) = delete;

    /**
     * Simulates (or serves from the memo) one per-op assignment.
     * @param gauge Optional solve-budget meter; charged one quantum per
     *        query (memo-served or not, so warm and cold solves charge
     *        identically). The evaluator never *checks* the gauge —
     *        budget decisions belong to the callers, which observe it
     *        only between queries/batches so results stay bit-exact.
     */
    sim::PerfReport evaluate(
        const model::ComputeGraph &graph,
        const std::vector<parallel::ParallelSpec> &per_op_specs,
        common::BudgetGauge *gauge = nullptr);

    /// Uniform-spec convenience overload; keyed as the broadcast
    /// assignment, so it shares entries with per-op callers.
    sim::PerfReport evaluate(const model::ComputeGraph &graph,
                             const parallel::ParallelSpec &spec,
                             common::BudgetGauge *gauge = nullptr);

    /**
     * Evaluates a batch of assignments; result[i] always corresponds to
     * assignments[i] regardless of thread count. Duplicate assignments
     * within one batch simulate once (the rest are hits), and cached
     * assignments are served without re-simulation.
     *
     * A batch is atomic with respect to solve budgets: @p gauge is
     * charged one quantum per assignment after the whole batch
     * completes, and never consulted mid-batch.
     */
    std::vector<sim::PerfReport> evaluateBatch(
        const model::ComputeGraph &graph,
        const std::vector<std::vector<parallel::ParallelSpec>>
            &assignments,
        common::BudgetGauge *gauge = nullptr);

    /// Cumulative counters since construction.
    StepStats stats() const;

    /// Entry and byte budgets of the report memo (max_step_entries,
    /// max_step_bytes; 0 = unbounded). Eviction never changes reported
    /// values — a dropped genome re-simulates bit-identically and
    /// recounts as a sim. Entries carry an honest byte estimate
    /// including the strategy_desc heap payload.
    void setCacheBudget(const common::CacheBudget &budget)
    {
        cache_.setCapacity(budget.max_step_entries);
        cache_.setMaxBytes(budget.max_step_bytes);
    }

    /// Governance counters for CacheStatsRequest reporting.
    common::CacheStats cacheStats() const { return cache_.stats(); }

    /// Visits every resident (key, report) pair — the persist layer's
    /// export hook (keys are stepKey() content keys).
    template <typename Fn>
    void forEachCached(Fn &&fn) const
    {
        cache_.forEach(std::forward<Fn>(fn));
    }

    /// Seeds the memo with persisted reports (warm start); a resident
    /// value wins, and imports touch no honest counter.
    void importCached(std::vector<std::pair<std::string, sim::PerfReport>>
                          reports)
    {
        cache_.insertAll(std::move(reports));
    }

    const sim::TrainingSimulator &simulator() const { return sim_; }

  private:
    const sim::TrainingSimulator &sim_;
    ThreadPool serial_{1};
    ThreadPool &pool_;
    common::BoundedCache<std::string, sim::PerfReport, StepKeyHash,
                         std::equal_to<>>
        cache_;
    std::atomic<long> sims_{0};
    std::atomic<long> cache_hits_{0};
    /// Registration id of the wafer fault listener that clears cache_.
    std::uint64_t fault_listener_id_ = 0;
};

}  // namespace temp::eval
