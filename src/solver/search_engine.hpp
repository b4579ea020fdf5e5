/**
 * @file
 * The pluggable level-2 refinement layer of the Dual-Level Search.
 *
 * Level 1 (the per-sub-chain DP over the additive cost matrix) is exact
 * for what it models, but blind to cross-operator effects — merged
 * gradient-sync bucketing, contention, memory pressure. Level 2 refines
 * the DP plan against the *full* training-step simulation. The paper
 * uses a genetic algorithm there; this layer generalises the slot into
 * a SearchEngine interface so a deterministic beam search (and the
 * DP-only baseline) drop in behind one seam, all scoring genomes
 * through the shared, memoized, batch-parallel eval::StepEvaluator.
 *
 * Engines are deterministic: every stochastic choice comes from a
 * seeded Rng drawn *before* fitness batches dispatch, and the
 * StepEvaluator's batches are bit-exact across thread counts, so a
 * (config, seed) pair reproduces the same plan on any machine width.
 *
 * Quantum slicing: every engine runs as a sequence of deterministic
 * quantum slices (a GA generation, a beam-tabu round) behind the
 * RefineRun interface. Budgets (common::BudgetGauge via
 * RefineContext::gauge) are observed only *between* slices, never
 * inside one, so a budget-truncated run is always the bit-exact prefix
 * of the unbudgeted run.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "eval/step_evaluator.hpp"

namespace temp::solver {

struct SolverConfig;

/// Which level-2 refinement runs after the DP.
enum class SearchEngineKind
{
    /// DP-only: keep the level-1 plan (still fully simulated once).
    NoRefine,
    /// The paper's genetic refinement (Sec. VII-B, Fig. 12b).
    Genetic,
    /// Deterministic beam search with a tabu set over genome hashes.
    BeamTabu,
};

/// Printable engine name ("none", "genetic", "beamtabu").
const char *searchEngineName(SearchEngineKind kind);

/**
 * Parses an engine name; accepts the canonical names plus the aliases
 * "dp" (NoRefine), "ga" (Genetic) and "beam" (BeamTabu).
 * @return false when the name is unknown.
 */
bool searchEngineFromName(const std::string &name, SearchEngineKind *kind);

/**
 * Fitness of a simulated plan: step time, with OOM plans heavily
 * penalised and infeasible plans infinite (the objective every engine
 * minimises).
 */
double stepFitness(const sim::PerfReport &report);

/// Everything level 1 hands to an engine (borrowed views; the solver
/// outlives the refine call).
struct RefineContext
{
    const model::ComputeGraph &graph;
    /// Candidate specs; genomes index into this.
    const std::vector<parallel::ParallelSpec> &candidates;
    /// Sub-chain boundaries (residual-free cuts, incl. 0 and opCount).
    const std::vector<int> &boundaries;
    /// Uniform-plan reports, indexed by candidate.
    const std::vector<sim::PerfReport> &uniform_reports;
    /// Candidates with feasible uniform plans, fastest (OOM-penalised)
    /// first.
    const std::vector<std::size_t> &uniform_order;
    /// The level-1 DP assignment (candidate index per op).
    const std::vector<int> &dp_assignment;
    /// Its full-step fitness (already simulated by the solver).
    double dp_fitness;
    /**
     * Optional warm-start genomes injected into the engine's seed pool
     * (the scenario engine passes the pre-fault assignment here).
     * Engines validate each genome (length == opCount, indices in
     * candidate range) and drop invalid ones; injection happens before
     * any RNG-driven seeding so the engine's stochastic stream is
     * untouched and cold runs stay bit-identical to pre-injection
     * builds. Null when no warm seeds exist.
     */
    const std::vector<std::vector<int>> *seeds = nullptr;
    /**
     * Optional solve-budget meter. Engines charge every fitness query
     * through it (via the StepEvaluator) and SearchEngine::refine
     * observes it between quantum slices only, so a budgeted refine is
     * the bit-exact prefix of the unbudgeted one. Null = unbudgeted.
     */
    common::BudgetGauge *gauge = nullptr;
};

/// What a refinement returns.
struct RefineOutcome
{
    std::vector<int> assignment;
    double fitness = 0.0;
    /// Full-step fitness queries the engine issued (cache-served or
    /// not) — folded into SolverResult::evaluations.
    long fitness_queries = 0;
    /// Quantum slices completed (GA generations, beam rounds).
    int steps = 0;
    /// True when the run stopped at a quantum boundary because the
    /// budget gauge tripped; the outcome is the best-so-far prefix.
    bool budget_exhausted = false;
};

/**
 * One in-flight refinement, sliced into deterministic quanta. A run is
 * created by SearchEngine::begin() (which may already issue the
 * engine's seed batch) and advanced one quantum slice — one GA
 * generation, one beam round — per step() call. outcome() is valid
 * between any two slices: it returns the best-so-far incumbent, which
 * is what makes cancellation and deadlines fall out of the same
 * structure.
 */
class RefineRun
{
  public:
    virtual ~RefineRun() = default;

    /// True when the engine has no more slices to run.
    virtual bool done() const = 0;

    /// Advances one quantum slice. Precondition: !done(). Budgets are
    /// never consulted inside a slice — callers check between calls.
    virtual void step() = 0;

    /// The incumbent so far (valid between any two slices; never worse
    /// than the DP plan the context carries).
    virtual RefineOutcome outcome() const = 0;
};

/**
 * The level-2 refinement interface. Engines implement begin();
 * refine() is the shared driver that advances the run slice by slice
 * under the context's budget gauge — every engine is budget-aware by
 * construction.
 */
class SearchEngine
{
  public:
    virtual ~SearchEngine() = default;

    virtual const char *name() const = 0;

    /// Starts a fresh run (seeding batches may already be issued and
    /// charged to ctx.gauge here — the seed pool is the run's first
    /// quantum).
    virtual std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx, eval::StepEvaluator &steps) const = 0;

    /**
     * Refines the DP plan; never returns a worse fitness than
     * ctx.dp_fitness (engines keep the incumbent). Runs slices until
     * the engine completes or ctx.gauge trips; a tripped run returns
     * the best-so-far prefix with budget_exhausted set.
     */
    RefineOutcome refine(const RefineContext &ctx,
                         eval::StepEvaluator &steps) const;
};

/// DP-only engine: returns the level-1 plan untouched (warm seeds
/// still compete — the seed batch is the run's only quantum).
class NoRefineEngine : public SearchEngine
{
  public:
    const char *name() const override { return "none"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;
};

/**
 * The paper's genetic refinement on the StepEvaluator: the seed pool
 * (DP plan, best uniform plans, structured two-spec plans, mutated DP
 * variants) is scored as one deterministic parallel batch; the
 * per-generation child evaluations hit the step memo whenever a genome
 * recurs.
 */
class GeneticRefiner : public SearchEngine
{
  public:
    GeneticRefiner(int population, int generations, double mutation_rate,
                   std::uint64_t seed);

    const char *name() const override { return "genetic"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;

  private:
    int population_;
    int generations_;
    double mutation_rate_;
    std::uint64_t seed_;
};

/**
 * Deterministic beam search with tabu memory. Each round mutates every
 * beam member into a fixed number of neighbour proposals (drawn before
 * any fitness is known), drops proposals whose genome hash was already
 * scored this run, scores the survivors as ONE StepEvaluator batch,
 * then keeps the best `kWidth` plans of beam ∪ proposals.
 */
class BeamTabuRefiner : public SearchEngine
{
  public:
    BeamTabuRefiner(int rounds, std::uint64_t seed);

    const char *name() const override { return "beamtabu"; }
    std::unique_ptr<RefineRun> begin(
        const RefineContext &ctx,
        eval::StepEvaluator &steps) const override;

    /// Beam width (plans kept per round).
    static constexpr int kWidth = 6;
    /// Neighbour proposals drawn per beam member per round.
    static constexpr int kProposals = 4;

  private:
    int rounds_;
    std::uint64_t seed_;
};

/// Builds the engine a SolverConfig selects (config.engine).
std::unique_ptr<SearchEngine> makeSearchEngine(const SolverConfig &config);

}  // namespace temp::solver
