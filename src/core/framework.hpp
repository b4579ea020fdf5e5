/**
 * @file
 * The TEMP framework facade (Fig. 6): architecture parameters, an LLM
 * model and workload in; optimal partition + mapping strategies and
 * performance reports out.
 *
 * Pipeline: TATP-aware strategy space -> TCME mapping (unified
 * representation + traffic-conscious optimisation) -> DLWS (cost model
 * + dual-level search) -> simulated PerfReport. The fault-tolerance
 * path (Sec. VIII-F / Fig. 20a) re-runs the same pipeline against a
 * degraded wafer: fault localisation (FaultMap), tensor re-partitioning
 * (derate-aware cost model) and communication re-routing (fault-aware
 * router + optimizer) fall out of the layered design.
 */
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/strategies.hpp"
#include "common/thread_pool.hpp"
#include "eval/cost_evaluator.hpp"
#include "persist/snapshot.hpp"
#include "sim/multi_wafer.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/dls_solver.hpp"

namespace temp::core {

/**
 * The persistent memo tier's process-local knobs: where to put the
 * snapshot and when to write it. Deliberately NOT part of the
 * framework/request identity (api::optionsKey, request JSON): two
 * processes pointed at different snapshot paths still compute — and
 * must share — identical results.
 */
struct PersistOptions
{
    /// Snapshot file; empty disables the persistent tier.
    std::string path;  ///< persist.path
    /// Write a snapshot when the CLI/serve process exits cleanly
    /// (serve mode also writes on SIGINT drain).
    bool save_on_exit = false;  ///< persist.save_on_exit
    /// Serve mode: seconds between periodic snapshots (0 = only on
    /// exit/drain).
    double period_s = 0.0;  ///< persist.period_s
};

/**
 * Service front-end policy carried through the config surface
 * (`serve.*` keys). Process-local like PersistOptions: how long a
 * process is willing to queue a request changes nothing about what a
 * framework computes, so these stay out of the framework cache key and
 * the request wire format.
 */
struct ServeOptions
{
    /// Per-request queue deadline in milliseconds (0 = off). A request
    /// that waits longer is shed with an explicit deadline_exceeded
    /// response at dequeue time.
    int deadline_ms = 0;  ///< serve.deadline_ms
};

/// Framework-wide options.
struct FrameworkOptions
{
    tcme::MappingPolicy policy{tcme::MappingEngineKind::TCME};
    parallel::TrainingOptions training;
    solver::SolverConfig solver;
    /// Threads for cost evaluation and baseline tuning sweeps
    /// (0 = hardware concurrency). Results are thread-count invariant.
    int eval_threads = 0;
    /**
     * Entry and byte budgets for every memo layer (0 = unbounded, the
     * default). Bounding changes only memory residency — per-op
     * results stay bit-identical because every cached value is a pure
     * function of its key; evicted entries recompute and recount as
     * misses. The service-level fields (max_frameworks/max_pods)
     * govern TempService's own maps, not this framework.
     */
    common::CacheBudget cache;
    /// Snapshot save/load policy (process-local; excluded from the
    /// framework cache key and the request wire format).
    PersistOptions persist;
    /// Service front-end policy (process-local; excluded like persist).
    ServeOptions serve;
};

/**
 * A reusable degraded-wafer solve context: the wafer rebuilt under one
 * fault state plus a full evaluator stack (simulator, matrix
 * evaluator, step evaluator) over it. optimizeWithFaults() historically
 * built and discarded this per call; holding one keeps the degraded
 * memos alive, so a repeat solve of the same model on the same fault
 * state reports zero new matrix measurements and zero step sims — the
 * property the scenario engine's revisited-fault-state recovery relies
 * on. Borrows the owning framework's thread pool: keep the framework
 * alive at least as long as the context.
 */
class DegradedContext
{
  public:
    DegradedContext(const hw::WaferConfig &config,
                    const hw::FaultMap &faults,
                    const FrameworkOptions &options, ThreadPool *pool);

    DegradedContext(const DegradedContext &) = delete;
    DegradedContext &operator=(const DegradedContext &) = delete;

    const hw::Wafer &wafer() const { return wafer_; }

    /// Content fingerprint of the fault state this context serves
    /// (hw::FaultMap::contentFingerprint of the construction map).
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Runs the DLWS pipeline on the degraded wafer, optionally
     * warm-seeded (solver::SolveHints) and deadline-bounded (the
     * budget merges with the configured solver.deadline; checks land
     * on quantum boundaries only). Memos persist across calls.
     */
    solver::SolverResult optimize(
        const model::ModelConfig &model,
        const solver::SolveHints *hints = nullptr,
        const solver::SolveBudget &budget = solver::SolveBudget{});

  private:
    FrameworkOptions options_;
    std::uint64_t fingerprint_;
    hw::Wafer wafer_;
    sim::TrainingSimulator sim_;
    eval::ExactEvaluator eval_;
    eval::StepEvaluator steps_;
};

/// The end-to-end TEMP system.
class TempFramework
{
  public:
    explicit TempFramework(hw::WaferConfig wafer_config,
                           FrameworkOptions options = FrameworkOptions());

    /// Frees the memo stack, then returns its memory to the allocator.
    ~TempFramework();

    /**
     * Runs the full TEMP pipeline on a model: DLWS search over the
     * TATP-extended strategy space, TCME mapping, final simulation.
     */
    solver::SolverResult optimize(const model::ModelConfig &model) const;

    /**
     * Deadline-bounded optimize: solves under the tighter of @p budget
     * and the configured solver.deadline. Budget checks land on
     * quantum boundaries only, so the result is the bit-exact prefix
     * of the unbudgeted solve, flagged via
     * SolverResult::budget_exhausted. The serving layer passes a
     * request's remaining deadline and cancel token here.
     */
    solver::SolverResult optimize(const model::ModelConfig &model,
                                  const solver::SolveBudget &budget) const;

    /// The same solve over an already built transformer graph (a
    /// caller that also reads the graph builds it once).
    solver::SolverResult optimize(const model::ComputeGraph &graph,
                                  const solver::SolveBudget &budget) const;

    /**
     * Fault-tolerant re-optimisation: rebuilds the wafer with the given
     * fault state and re-runs the pipeline (the three-step strategy of
     * Fig. 20a).
     */
    solver::SolverResult optimizeWithFaults(const model::ModelConfig &model,
                                            const hw::FaultMap &faults)
        const;

    /// Deadline-bounded variant of optimizeWithFaults().
    solver::SolverResult optimizeWithFaults(
        const model::ModelConfig &model, const hw::FaultMap &faults,
        const solver::SolveBudget &budget) const;

    /**
     * Builds a reusable degraded solve context for a fault state (see
     * DegradedContext). The context borrows this framework's thread
     * pool; keep the framework alive as long as the context.
     */
    std::shared_ptr<DegradedContext> degradedContext(
        const hw::FaultMap &faults) const;

    /// Tunes and evaluates one baseline scheme under a mapping engine.
    baselines::TunedBaseline evaluateBaseline(
        baselines::BaselineKind kind, tcme::MappingEngineKind engine,
        const model::ModelConfig &model) const;

    /// Simulates an explicit uniform strategy under this framework's
    /// mapping policy (ablations, sweeps).
    sim::PerfReport evaluateStrategy(const model::ModelConfig &model,
                                     const parallel::ParallelSpec &spec)
        const;

    const hw::Wafer &wafer() const { return *wafer_; }
    const sim::TrainingSimulator &simulator() const { return *sim_; }
    const FrameworkOptions &options() const { return options_; }

    /**
     * The framework-owned evaluation backend over the simulator's cost
     * model. Matrix entries come from the cost model's op-cell memo,
     * which the simulator shares, so DP, uniform seeding and repeat
     * optimisations of the same model never re-cost a cell.
     * SolverResult's matrix_measurements / cache_hits report its
     * per-solve deltas.
     */
    eval::CostEvaluator &evaluator() const { return *evaluator_; }

    /**
     * The framework-owned full-step evaluation backend: the memoized,
     * batch-parallel front end over the simulator that the solver's
     * level-2 refinement scores genomes through. Shared by every
     * optimize() call, so a repeat solve re-simulates nothing
     * (SolverResult::step_sims == 0 on the repeat).
     */
    eval::StepEvaluator &stepEvaluator() const { return *steps_; }

    /// Cumulative evaluator counters since construction.
    eval::EvalStats evaluatorStats() const { return evaluator_->stats(); }

    /// Cumulative full-step simulation counters since construction.
    eval::StepStats stepStats() const { return steps_->stats(); }

    /**
     * Governance counters of every memo layer this framework owns,
     * as (layer name, counters) pairs: step_reports, layouts,
     * routes (the Router's current route-epoch storage), stream_plans,
     * collective_phases (the timed-phase memo) and sim_cells (the op-cell memo the DP matrix and the simulator
     * share). The layer names are the CacheStatsRequest JSON
     * vocabulary.
     */
    std::vector<std::pair<std::string, common::CacheStats>> cacheStats()
        const;

    /**
     * Exports this framework's persistable memo layers — the op-cell
     * memo and the step-report memo — as one
     * snapshot block (framework_key left empty; the service stamps its
     * canonical key). Layouts and timed phases are deliberately not
     * exported: they are only consulted on cell misses, and they
     * re-build bit-identically when one happens.
     */
    persist::MemoBlock exportMemos() const;

    /**
     * Seeds the memo layers from a snapshot block (warm start). Cells
     * import by value under (graph fingerprint, op, spec), step
     * reports under their content keys. Resident entries always win, so importing
     * into a warm framework never changes what it serves.
     *
     * @return false, importing nothing, when a cell names a die this
     *         wafer does not have.
     */
    bool importMemos(persist::MemoBlock block) const;

  private:
    FrameworkOptions options_;
    std::unique_ptr<hw::Wafer> wafer_;
    std::unique_ptr<sim::TrainingSimulator> sim_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<eval::ExactEvaluator> evaluator_;
    std::unique_ptr<eval::StepEvaluator> steps_;
};

}  // namespace temp::core
