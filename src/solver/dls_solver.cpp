#include "solver/dls_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "common/kernels.hpp"
#include "common/logging.hpp"
#include "cost/breakdown_reduce.hpp"

namespace temp::solver {

using parallel::ParallelSpec;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// The additive per-(op, candidate) cost matrix of ops [0, n_ops) and
/// what filling it cost.
struct CostMatrix
{
    std::vector<std::vector<double>> op_cost;  ///< [op][candidate]
    long requests = 0;      ///< cells requested (n_ops x candidates)
    eval::EvalStats stats;  ///< the evaluator's delta over the fill
};

/**
 * Fills the matrix through the shared evaluation layer: one
 * evaluateBatch over the row-major (op, candidate) requests (layouts
 * and op cells are memoized in the cost model, misses run in
 * parallel), then per-op rows through the batched totals kernel
 * (feasible ? total() : inf).
 */
CostMatrix
fillCostMatrix(eval::CostEvaluator &evaluator,
               const model::ComputeGraph &graph, int n_ops,
               const std::vector<ParallelSpec> &candidates,
               common::BudgetGauge *gauge)
{
    const eval::EvalStats before = evaluator.stats();
    std::vector<eval::EvalRequest> requests;
    requests.reserve(static_cast<std::size_t>(n_ops) * candidates.size());
    for (int i = 0; i < n_ops; ++i)
        for (const ParallelSpec &spec : candidates)
            requests.push_back({i, spec, true});
    const std::vector<cost::OpCostBreakdown> cells =
        evaluator.evaluateBatch(graph, requests, gauge);
    std::vector<double> totals(cells.size());
    cost::breakdownTotals(cells, totals.data());

    CostMatrix matrix;
    matrix.op_cost.resize(static_cast<std::size_t>(n_ops));
    for (int i = 0; i < n_ops; ++i) {
        const double *row =
            totals.data() + static_cast<std::size_t>(i) * candidates.size();
        matrix.op_cost[i].assign(row, row + candidates.size());
    }
    matrix.requests = static_cast<long>(requests.size());
    matrix.stats = evaluator.stats() - before;
    return matrix;
}

}  // namespace

DlsSolver::DlsSolver(const sim::TrainingSimulator &simulator,
                     SolverConfig config, eval::CostEvaluator *evaluator,
                     eval::StepEvaluator *steps)
    : sim_(simulator), config_(config),
      engine_(makeSearchEngine(config_))
{
    if (evaluator == nullptr || steps == nullptr)
        owned_pool_ = std::make_unique<ThreadPool>(config_.eval_threads);
    if (evaluator != nullptr) {
        eval_ = evaluator;
    } else {
        owned_eval_ = std::make_unique<eval::ExactEvaluator>(
            sim_.costModel(), owned_pool_.get());
        eval_ = owned_eval_.get();
    }
    if (steps != nullptr) {
        steps_ = steps;
    } else {
        owned_steps_ = std::make_unique<eval::StepEvaluator>(
            sim_, owned_pool_.get());
        steps_ = owned_steps_.get();
    }
}

std::vector<int>
solveChainDp(const cost::WaferCostModel &model,
             const model::ComputeGraph &graph, int begin, int end,
             const std::vector<ParallelSpec> &candidates,
             const std::vector<std::vector<double>> &op_cost,
             long *evaluations)
{
    const int n_ops = end - begin;
    const int n_cand = static_cast<int>(candidates.size());
    const double inf = std::numeric_limits<double>::infinity();

    // Two flat DP rows (previous / current op) plus a flat back-pointer
    // matrix: the fill walks dense contiguous strides, and the per-state
    // minimisation runs through the vectorized min-plus kernel over a
    // dense transition row. The kernel keeps the (prev + transition) +
    // cost association, the strictly-less first-minimum tie-break, and
    // +inf entries (infeasible predecessors) lose every strict
    // comparison exactly like skipped predecessors would.
    std::vector<double> dp_prev(n_cand), dp_cur(n_cand, inf);
    std::vector<int> back(static_cast<std::size_t>(n_ops) * n_cand, -1);

    // The degree table. Candidates are distinct, so the transition
    // between two different candidates is WaferCostModel::reshardTime
    // of the producer's output bytes and the two total degrees, and a
    // candidate kept across the edge costs nothing. Each producer
    // therefore fills one row of transitions per distinct degree (one
    // on a healthy wafer at full occupancy, a few on a degraded one)
    // from a degree x degree table, and a state reads its degree's row
    // with its own entry zeroed.
    std::vector<int> degrees;
    std::vector<int> degree_of(n_cand);
    for (int s = 0; s < n_cand; ++s) {
        const int degree = candidates[s].totalDegree();
        const auto it = std::find(degrees.begin(), degrees.end(), degree);
        degree_of[s] = static_cast<int>(it - degrees.begin());
        if (it == degrees.end())
            degrees.push_back(degree);
    }
    const int n_deg = static_cast<int>(degrees.size());
    std::vector<double> table(static_cast<std::size_t>(n_deg));
    std::vector<double> trans(static_cast<std::size_t>(n_deg) * n_cand);

    for (int s = 0; s < n_cand; ++s)
        dp_prev[s] = op_cost[begin][s];

    for (int i = 1; i < n_ops; ++i) {
        const double out_bytes =
            model.reshardOutputBytes(graph.op(begin + i - 1));
        for (int to = 0; to < n_deg; ++to) {
            for (int from = 0; from < n_deg; ++from)
                table[from] =
                    model.reshardTime(out_bytes, degrees[from], degrees[to]);
            double *row = trans.data() + static_cast<std::size_t>(to) * n_cand;
            for (int p = 0; p < n_cand; ++p)
                row[p] = table[degree_of[p]];
        }
        const double *row_cost = op_cost[begin + i].data();
        // One evaluation per (feasible state, feasible predecessor)
        // pair; the predecessor count is shared by every state of this
        // op.
        long finite_prev = 0;
        for (int p = 0; p < n_cand; ++p)
            finite_prev += std::isinf(dp_prev[p]) ? 0 : 1;
        for (int s = 0; s < n_cand; ++s) {
            const double c = row_cost[s];
            if (std::isinf(c)) {
                dp_cur[s] = inf;
                continue;
            }
            double *row =
                trans.data() + static_cast<std::size_t>(degree_of[s]) * n_cand;
            const double moved = row[s];
            row[s] = 0.0;
            *evaluations += finite_prev;
            const kernels::MinPlus r =
                kernels::minPlusArgmin(dp_prev.data(), row, c, n_cand);
            row[s] = moved;
            dp_cur[s] = r.value;
            back[static_cast<std::size_t>(i) * n_cand + s] = r.index;
        }
        std::swap(dp_prev, dp_cur);
    }

    // Trace back from the best terminal state (dp_prev holds the last
    // filled row after the final swap).
    int best = 0;
    for (int s = 1; s < n_cand; ++s)
        if (dp_prev[s] < dp_prev[best])
            best = s;

    std::vector<int> assignment(n_ops, 0);
    int cur = best;
    for (int i = n_ops - 1; i >= 0; --i) {
        assignment[i] = cur;
        cur = i > 0 ? back[static_cast<std::size_t>(i) * n_cand + cur]
                    : cur;
    }
    return assignment;
}

SolverResult
DlsSolver::solve(const model::ComputeGraph &graph,
                 const SolveHints *hints,
                 const SolveBudget &budget) const
{
    const double t_start = now();
    SolverResult result;
    const long lowerings_before = sim_.costModel().scheduleLowerings();

    // One gauge per solve, metering the tighter of the configured
    // deadline and the caller's budget (the serving layer passes a
    // request's remaining deadline + cancel token). Constructed first
    // so the wall-clock cap measures the whole solve. The preamble —
    // matrix fill, uniform seeding, DP, DP-plan simulation — is
    // mandatory regardless of the budget (an exhausted solve still
    // returns a fully simulated plan); only level-2 refinement yields.
    const SolveBudget effective = config_.deadline.mergedWith(budget);
    common::BudgetGauge gauge = effective.gauge();

    // On a degraded wafer the die budget is the largest usable
    // component; power-of-two degrees then cannot cover every die, so
    // occupancy is relaxed and near-full strategies are kept
    // (Fig. 20a step 2).
    const int die_budget = sim_.wafer().usableDieCount();
    StrategySpaceOptions space = config_.space;
    if (die_budget < sim_.wafer().dieCount())
        space.full_occupancy = false;
    std::vector<ParallelSpec> candidates =
        enumerateStrategies(die_budget, graph.config(), space);
    if (!space.full_occupancy) {
        std::erase_if(candidates, [&](const ParallelSpec &s) {
            return s.totalDegree() <= die_budget / 2;
        });
    }
    result.candidate_count = static_cast<int>(candidates.size());
    if (candidates.empty()) {
        result.search_time_s = now() - t_start;
        return result;
    }
    // solveChainDp's degree table prices every pair of different
    // candidates as a reshard, which needs them distinct.
    for (std::size_t a = 0; a < candidates.size(); ++a)
        for (std::size_t b = a + 1; b < candidates.size(); ++b)
            if (candidates[a] == candidates[b])
                panic("DlsSolver: candidate %s enumerated twice",
                      candidates[a].str().c_str());

    // Per-(op, candidate) cost matrix under the additive model
    // (Eq. 2's T_intra with the per-op share of step communication);
    // the uniform seeding below reads the same memoized cells, and the
    // measurement/hit split keeps the accounting honest.
    const double inf = std::numeric_limits<double>::infinity();
    const eval::StepStats step_stats_before = steps_->stats();
    CostMatrix matrix = fillCostMatrix(*eval_, graph, graph.opCount(),
                                       candidates, &gauge);
    std::vector<std::vector<double>> &op_cost = matrix.op_cost;
    result.evaluations += matrix.requests;
    result.matrix_measurements = matrix.stats.measurements;
    result.cache_hits = matrix.stats.cache_hits;

    // Memory awareness: evaluate each candidate as a uniform layer spec
    // through the full simulator — one deterministic StepEvaluator
    // batch, memoized across solves; specs whose uniform assignment
    // blows HBM get a soft penalty in the additive matrix so the DP
    // prefers memory-feasible plans. The best uniform results also
    // seed the refinement engine.
    // Warm re-solves (scenario recovery) cap this batch: the uniform
    // sweep is the dominant step-sim cost of a solve, and the additive
    // matrix — already filled above — ranks candidates well enough to
    // pick the K worth full-step simulating. Candidates outside the
    // cap get an explicit infeasible placeholder report so they never
    // enter the uniform seeding order.
    const bool cap_uniform =
        hints != nullptr && hints->uniform_top_k > 0 &&
        static_cast<std::size_t>(hints->uniform_top_k) <
            candidates.size();
    std::vector<std::size_t> uniform_set;
    if (cap_uniform) {
        std::vector<std::pair<double, std::size_t>> ranked;
        ranked.reserve(candidates.size());
        for (std::size_t s = 0; s < candidates.size(); ++s) {
            double sum = 0.0;
            for (int i = 0; i < graph.opCount(); ++i)
                sum += op_cost[i][s];
            ranked.emplace_back(sum, s);
        }
        // (sum, index) pairs: infeasible (inf) sums rank last, equal
        // sums break deterministically by candidate index.
        std::sort(ranked.begin(), ranked.end());
        uniform_set.reserve(
            static_cast<std::size_t>(hints->uniform_top_k));
        for (int k = 0; k < hints->uniform_top_k; ++k)
            uniform_set.push_back(ranked[k].second);
        std::sort(uniform_set.begin(), uniform_set.end());
    } else {
        uniform_set.resize(candidates.size());
        for (std::size_t s = 0; s < candidates.size(); ++s)
            uniform_set[s] = s;
    }

    std::vector<std::vector<ParallelSpec>> uniform_assignments;
    uniform_assignments.reserve(uniform_set.size());
    for (std::size_t s : uniform_set)
        uniform_assignments.emplace_back(
            static_cast<std::size_t>(graph.opCount()), candidates[s]);
    const std::vector<sim::PerfReport> simulated =
        steps_->evaluateBatch(graph, uniform_assignments, &gauge);
    sim::PerfReport unsimulated;
    unsimulated.feasible = false;
    unsimulated.step_time = inf;
    std::vector<sim::PerfReport> uniform_reports(candidates.size(),
                                                 unsimulated);
    for (std::size_t k = 0; k < uniform_set.size(); ++k)
        uniform_reports[uniform_set[k]] = simulated[k];
    std::vector<std::size_t> uniform_order;
    for (std::size_t s : uniform_set) {
        ++result.evaluations;
        if (uniform_reports[s].feasible)
            uniform_order.push_back(s);
        if (uniform_reports[s].oom || !uniform_reports[s].feasible) {
            // Memory pressure comes from parameter state (weights,
            // grads, optimizer); penalise only the ops that own it so
            // weight-less ops stay free to pick their best spec.
            for (int i = 0; i < graph.opCount(); ++i)
                if (graph.op(i).has_weight)
                    op_cost[i][s] *= 50.0;
        }
    }
    std::sort(uniform_order.begin(), uniform_order.end(),
              [&](std::size_t a, std::size_t b) {
                  const auto &ra = uniform_reports[a];
                  const auto &rb = uniform_reports[b];
                  const double fa = ra.step_time * (ra.oom ? 1e3 : 1.0);
                  const double fb = rb.step_time * (rb.oom ? 1e3 : 1.0);
                  return fa < fb;
              });

    // --- Graph partition + per-sub-chain DP -----------------------------
    std::vector<int> cuts = graph.residualFreeCutPoints();
    std::vector<int> boundaries{0};
    for (int c : cuts)
        boundaries.push_back(c);
    boundaries.push_back(graph.opCount());
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());

    std::vector<int> assignment;
    for (std::size_t b = 0; b + 1 < boundaries.size(); ++b) {
        const std::vector<int> chain =
            solveChainDp(sim_.costModel(), graph, boundaries[b],
                         boundaries[b + 1], candidates, op_cost,
                         &result.evaluations);
        assignment.insert(assignment.end(), chain.begin(), chain.end());
    }

    auto specs_of = [&](const std::vector<int> &a) {
        std::vector<ParallelSpec> specs;
        specs.reserve(a.size());
        for (int idx : a)
            specs.push_back(candidates[idx]);
        return specs;
    };

    // Fitness = full simulated step time (captures merged grad sync,
    // contention and memory); OOM strategies are heavily penalised so
    // the search prefers memory-feasible plans. Every query flows
    // through the shared StepEvaluator memo.
    std::vector<int> best = assignment;
    double best_fitness = stepFitness(
        steps_->evaluate(graph, specs_of(best), &gauge));
    ++result.evaluations;

    // Warm-start genome: the previous winning plan mapped into the
    // current candidate space. An op whose old spec no longer
    // enumerates (the degraded wafer changed the space) falls back to
    // the fresh DP choice for that op; if nothing maps the hint
    // injects nothing and the solve proceeds cold.
    std::vector<std::vector<int>> warm_seeds;
    if (hints != nullptr &&
        hints->seed_specs.size() ==
            static_cast<std::size_t>(graph.opCount())) {
        std::vector<int> genome = assignment;
        bool mapped_any = false;
        for (int i = 0; i < graph.opCount(); ++i) {
            const auto it =
                std::find(candidates.begin(), candidates.end(),
                          hints->seed_specs[static_cast<std::size_t>(i)]);
            if (it != candidates.end()) {
                genome[i] = static_cast<int>(it - candidates.begin());
                mapped_any = true;
            }
        }
        if (mapped_any)
            warm_seeds.push_back(std::move(genome));
    }

    // --- Level-2 refinement (pluggable engine) ---------------------------
    // The only yield point of the solve: a budget that tripped during
    // the mandatory preamble skips refinement entirely, and the engine
    // drivers observe the gauge between quantum slices, so the result
    // is always the bit-exact prefix of the unbudgeted solve.
    if (candidates.size() > 1) {
        if (gauge.exhausted()) {
            result.budget_exhausted = true;
        } else {
            const RefineContext ctx{graph,           candidates,
                                    boundaries,      uniform_reports,
                                    uniform_order,   assignment,
                                    best_fitness,
                                    warm_seeds.empty() ? nullptr
                                                       : &warm_seeds,
                                    &gauge};
            RefineOutcome refined = engine_->refine(ctx, *steps_);
            result.evaluations += refined.fitness_queries;
            result.budget_exhausted = refined.budget_exhausted;
            best = std::move(refined.assignment);
            best_fitness = refined.fitness;
        }
    }

    // Shared epilogue of both remaining exits: the step-layer
    // accounting and the search time.
    const auto finish = [&] {
        const eval::StepStats step_delta =
            steps_->stats() - step_stats_before;
        result.step_sims = step_delta.sims;
        result.step_cache_hits = step_delta.cache_hits;
        result.schedule_lowerings =
            sim_.costModel().scheduleLowerings() - lowerings_before;
        result.cache_evictions =
            matrix.stats.evictions + step_delta.evictions;
        result.quanta_used = gauge.used();
        result.search_time_s = now() - t_start;
    };

    if (std::isinf(best_fitness)) {
        finish();
        return result;
    }

    result.feasible = true;
    result.per_op_specs = specs_of(best);
    // The final report is mandatory epilogue (the winning plan is
    // always fully simulated — usually a memo hit on the refiner's
    // best), charged like any other full-step query.
    result.report = steps_->evaluate(graph, result.per_op_specs, &gauge);
    ++result.evaluations;
    result.step_time_s = result.report.step_time;
    finish();
    return result;
}

ExhaustiveSolver::ExhaustiveSolver(const sim::TrainingSimulator &simulator,
                                   StrategySpaceOptions space,
                                   eval::CostEvaluator *evaluator)
    : sim_(simulator), space_(space)
{
    if (evaluator != nullptr) {
        eval_ = evaluator;
        return;
    }
    owned_eval_ =
        std::make_unique<eval::ExactEvaluator>(sim_.costModel());
    eval_ = owned_eval_.get();
}

SolverResult
ExhaustiveSolver::solve(const model::ComputeGraph &graph, int op_limit,
                        double time_budget_s) const
{
    const double t_start = now();
    SolverResult result;

    const std::vector<ParallelSpec> candidates = enumerateStrategies(
        sim_.wafer().dieCount(), graph.config(), space_);
    result.candidate_count = static_cast<int>(candidates.size());
    if (candidates.empty())
        return result;

    const int n_ops = op_limit > 0
                          ? std::min(op_limit, graph.opCount())
                          : graph.opCount();

    const cost::WaferCostModel &model = sim_.costModel();
    const double inf = std::numeric_limits<double>::infinity();
    const CostMatrix matrix =
        fillCostMatrix(*eval_, graph, n_ops, candidates, nullptr);
    const std::vector<std::vector<double>> &op_cost = matrix.op_cost;
    result.evaluations += matrix.requests;
    result.matrix_measurements = matrix.stats.measurements;
    result.cache_hits = matrix.stats.cache_hits;
    // The fill is the only schedule work here: the evaluator's
    // (model-wide) lowering count across it.
    result.schedule_lowerings = matrix.stats.schedule_lowerings;
    result.cache_evictions = matrix.stats.evictions;

    std::vector<int> current(n_ops, 0);
    std::vector<int> best;
    double best_cost = inf;
    bool timed_out = false;

    // Depth-first enumeration with branch-and-bound pruning on the
    // additive objective (the same objective the DP solves exactly).
    std::function<void(int, double)> dfs = [&](int depth, double partial) {
        if (timed_out || partial >= best_cost)
            return;
        if ((result.evaluations & 0xfff) == 0 &&
            now() - t_start > time_budget_s) {
            timed_out = true;
            return;
        }
        if (depth == n_ops) {
            best_cost = partial;
            best = current;
            return;
        }
        for (std::size_t s = 0; s < candidates.size(); ++s) {
            ++result.evaluations;
            double cost = op_cost[depth][s];
            if (std::isinf(cost))
                continue;
            if (depth > 0 && current[depth - 1] != static_cast<int>(s)) {
                cost += model.interOpTime(graph.op(depth - 1),
                                          candidates[current[depth - 1]],
                                          candidates[s]);
            }
            current[depth] = static_cast<int>(s);
            dfs(depth + 1, partial + cost);
        }
    };
    dfs(0, 0.0);

    result.search_time_s = now() - t_start;
    if (best.empty() || timed_out)
        return result;

    result.feasible = true;
    result.per_op_specs.reserve(graph.opCount());
    for (int i = 0; i < graph.opCount(); ++i)
        result.per_op_specs.push_back(
            candidates[best[std::min(i, n_ops - 1)]]);
    // Objective value of the solved sub-problem (additive model).
    result.step_time_s = best_cost;
    return result;
}

}  // namespace temp::solver
