/**
 * @file
 * The typed request/response surface of the TEMP service layer.
 *
 * Every workflow the framework supports — full DLWS optimisation,
 * baseline tuning, explicit-strategy evaluation, degraded-wafer
 * re-optimisation and multi-wafer pipeline planning — is described by
 * one plain-data request struct carrying the model, the hardware and
 * the framework options. A request is self-contained: two requests
 * with equal fields are the same computation, which is what lets
 * TempService key its framework cache on request content and serve
 * repeats from the shared evaluator memo.
 *
 * The unified Response carries status, timing, cache provenance and
 * the kind-specific result payload; serialize.hpp renders it to JSON.
 */
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/framework.hpp"
#include "hw/fault.hpp"
#include "scenario/scenario.hpp"

namespace temp::api {

/// Full DLWS pipeline: strategy space -> DP -> GA -> simulation.
struct OptimizeRequest
{
    model::ModelConfig model;
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    core::FrameworkOptions options;
};

/// Tune one baseline partitioning scheme under a mapping engine.
struct BaselineRequest
{
    model::ModelConfig model;
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    core::FrameworkOptions options;
    baselines::BaselineKind kind = baselines::BaselineKind::MegatronSP;
    tcme::MappingEngineKind engine = tcme::MappingEngineKind::TCME;
};

/// Simulate one explicit uniform strategy (ablations, sweeps).
struct StrategyRequest
{
    model::ModelConfig model;
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    core::FrameworkOptions options;
    parallel::ParallelSpec spec;
};

/// Re-optimise on a degraded wafer (the Fig. 20a three-step pipeline).
struct FaultRequest
{
    model::ModelConfig model;
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    core::FrameworkOptions options;
    /// Random fault injection (matching examples/fault_aware_training):
    /// link faults are drawn first, core faults second, from one RNG
    /// seeded with fault_seed — so (rates, seed) reproduce a scenario.
    double link_fault_rate = 0.0;
    double core_fault_rate = 0.0;
    std::uint64_t fault_seed = 1;
    /// Explicit fault state; when set, the rates and seed are ignored.
    std::optional<hw::FaultMap> faults;
};

/// Pipeline-parallel training across a wafer pod (Sec. VIII-E).
struct MultiWaferRequest
{
    model::ModelConfig model;
    hw::MultiWaferConfig pod;
    core::FrameworkOptions options;  ///< policy + training options apply
    parallel::ParallelSpec intra_spec;
    int pp = 2;
    int microbatches = 8;
};

/**
 * Observability: a snapshot of every memo layer's governance counters
 * — the service's framework/pod maps plus, aggregated across all
 * cached frameworks, the step-report memo, schedule cache, routes and
 * the cost model's layout, stream-plan, timed-phase and op-cell
 * memos. The `temp_cli cache-stats` subcommand is the CLI face of this
 * request.
 */
struct CacheStatsRequest
{
};

/**
 * Replay a virtual-time event timeline (fault storms, repairs, model
 * switches, spot re-optimisation, pod churn) against the service —
 * the continuous-operation version of FaultRequest. Deterministic:
 * the same request replays bit-identically (every EventReport field
 * except wall-clock times); see src/scenario/README.md.
 */
struct ScenarioRequest
{
    model::ModelConfig model;  ///< the model training when replay starts
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    core::FrameworkOptions options;
    /// Warm-seed post-fault re-solves with the previous assignment
    /// (false replays every event cold — the comparison baseline).
    bool warm_seed = true;
    std::vector<scenario::Event> events;
};

/// Any request the service accepts (the submit() currency).
using Request = std::variant<OptimizeRequest, BaselineRequest,
                             StrategyRequest, FaultRequest,
                             MultiWaferRequest, CacheStatsRequest,
                             ScenarioRequest>;

/// Which request produced a response. The enumerator order mirrors the
/// Request variant's alternative order (the dispatcher maps index() to
/// kind with one static_cast).
enum class RequestKind
{
    Optimize,
    Baseline,
    Strategy,
    Fault,
    MultiWafer,
    CacheStats,
    Scenario,
};

/// One memo layer's counters in a CacheStats response.
struct CacheLayerStats
{
    std::string layer;  ///< e.g. "service_frameworks", "schedules"
    common::CacheStats stats;
};

/// Printable request-kind name ("optimize", "baseline", ...).
const char *requestKindName(RequestKind kind);

/**
 * The unified service response. `ok` means the request was executed
 * (a search may still report an infeasible outcome in its payload);
 * `!ok` means the request itself was invalid and `error` says why —
 * invalid requests never terminate the service, unlike the library's
 * fatal() paths.
 */
struct Response
{
    RequestKind kind = RequestKind::Optimize;
    bool ok = false;
    std::string error;
    /**
     * True end-to-end wall-clock time of the request. For run() this
     * is the execution span; for submit()ed requests it is measured
     * from the enqueue, so queue wait is no longer silently dropped
     * from the latency a client observes.
     */
    double wall_time_s = 0.0;
    /// Time a submit()ed request waited in the service queue before
    /// execution began (0 for synchronous run()).
    double queue_time_s = 0.0;
    /// True when a cached framework (and its evaluator memo) served
    /// the request instead of a freshly built one.
    bool framework_reused = false;
    /// @{ Service-front-end provenance (src/serve). The defaults are
    /// chosen so a Response produced by the in-process run() path is
    /// byte-identical to one the server produces for a lone request:
    /// not coalesced, not shed, answered by a solve shared with exactly
    /// one request (itself), anonymous tenant.
    /// Client-supplied tenant id the admission controller fairly
    /// dequeued this request under ("" = anonymous).
    std::string tenant;
    /// True when this response was answered from another in-flight
    /// identical request's solve rather than its own.
    bool coalesced = false;
    /// How many requests the solve behind this response answered
    /// (1 = no coalescing happened).
    long coalesced_requests = 1;
    /// True when admission control rejected the request (queue full);
    /// ok is false and error says so.
    bool shed = false;
    /// True when the request sat in the dispatcher queue past its
    /// per-request deadline (serve.deadline_ms) and was shed with this
    /// explicit response instead of holding a session slot; implies
    /// shed, ok is false and error says so.
    bool deadline_exceeded = false;
    /**
     * True when the solve behind this response stopped at a budget
     * boundary (quantum/wall deadline or in-flight cancel) and
     * returned its best-so-far partial result. Top-level mirror of
     * SolverResult::budget_exhausted / the scenario report's
     * per-event flags, so clients and the dispatcher's accounting
     * need not reach into kind-specific payloads.
     */
    bool budget_exhausted = false;
    /// Budget quanta (full-step fitness queries) the solve charged
    /// (0 for kinds that never solve).
    long quanta_used = 0;
    /// @}
    /// Cumulative evaluator counters of the serving framework, read
    /// after the request (Optimize/Baseline/Strategy/Fault kinds); the
    /// schedule_* pair is the framework's schedule-cache counters.
    /// Note: per-solve deltas (SolverResult's matrix_measurements /
    /// cache_hits / schedule_lowerings / schedule_cache_hits) are
    /// exact when requests against one framework do not overlap in
    /// time; concurrent solves on the same framework blur each other's
    /// deltas (results stay bit-identical — the shared caches are
    /// additive — only the counters interleave).
    eval::EvalStats evaluator_stats;
    /// Cumulative full-step simulation counters of the serving
    /// framework's StepEvaluator (same caveats as evaluator_stats);
    /// per-solve deltas live in SolverResult::step_sims /
    /// step_cache_hits.
    eval::StepStats step_stats;

    /// @{ Kind-specific payloads.
    solver::SolverResult solver;         ///< Optimize, Fault
    baselines::TunedBaseline baseline;   ///< Baseline
    /// The step report of whatever the request produced, for uniform
    /// access: solver.report / baseline.report mirrored, or the direct
    /// simulation result (Strategy, MultiWafer).
    sim::PerfReport report;
    /// Operator names of the searched graph (Optimize, Fault), aligned
    /// with solver.per_op_specs.
    std::vector<std::string> op_names;
    int usable_dies = 0;                 ///< Fault
    hw::WaferConfig stage_fabric;        ///< MultiWafer
    /// Per-layer governance counters (CacheStats kind), in a fixed
    /// layer order so the JSON stays byte-stable.
    std::vector<CacheLayerStats> cache_layers;
    /// Timeline replay report (Scenario kind).
    scenario::ScenarioReport scenario;
    /// @}
};

}  // namespace temp::api
