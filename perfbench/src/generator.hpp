/**
 * @file
 * Seeded input generation for the three workloads.
 *
 * Every input the program receives is built here from the workload
 * seed alone (SplitMix64, no standard-library distributions), so one
 * seed yields byte-identical requests on any machine and the run
 * prints a digest of them. The program under test only ever sees the
 * generated requests.
 *
 * Why each workload exists, and which layers it bypasses:
 *
 *  - cold_plan: a fresh plan for a (model, wafer) pair, the paper's own
 *    use. Requests run one at a time, each on a fresh TempService, so
 *    nothing memoized carries over: solver, eval, sim, cost, tatp,
 *    tcme, net and the ThreadPool all do cold work. The six Table II
 *    models appear once per cycle in seeded order, each with a seeded
 *    solver seed and the default genetic engine; eval_threads is the
 *    constant kColdPlanThreads so the workload is the same on any
 *    machine. Bypasses serve, persist, scenario and baselines.
 *
 *  - serve_mix: a long-lived planning service. A loopback serve::Server
 *    (kServeWorkers dispatcher workers, eval_threads kServeThreads)
 *    warm-started from a snapshot of the catalog head answers four
 *    closed-loop clients, each its own tenant (three framed RPC, one
 *    HTTP keep-alive), drawing Zipf-distributed picks from a catalog
 *    of optimize, strategy, multiwafer, baseline, fault and
 *    cache-stats requests. Memo hits, coalescing, framing, JSON and
 *    request keys set the median; cold misses on the catalog tail set
 *    the tail. The only workload that reaches serve, persist,
 *    baselines and sim::MultiWaferSimulator; a change to the cold cost
 *    path should barely move its median.
 *
 *  - fault_replay: serial scenario timelines (eval_threads 1) of about
 *    twelve events each: merged set_faults draws, kill_dies of a few
 *    dies (never all), reoptimize, clear_faults, model_switch among
 *    three mid-size models, wafer_join/wafer_leave, and a revisit of
 *    an earlier fault draw so degraded contexts are reused. Every fault
 *    epoch flushes the schedule cache and route pool and builds a
 *    degraded context, so hw, net and core do invalidate-and-rebuild
 *    work here. At one thread it is the bypass for thread-scaling
 *    changes. Bypasses serve, persist and baselines.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/requests.hpp"

namespace perfbench {

/// eval_threads of cold_plan: a constant, never hardware_concurrency().
constexpr int kColdPlanThreads = 2;
/// Dispatcher workers and eval_threads of the serve_mix server.
constexpr int kServeWorkers = 2;
constexpr int kServeThreads = 2;
/// serve_mix clients; the last one speaks HTTP keep-alive.
constexpr int kServeClients = 4;
/// eval_threads of fault_replay.
constexpr int kReplayThreads = 1;

struct ColdPlanInputs
{
    /// Cycles of the six Table II models, each cycle in seeded order.
    std::vector<temp::api::OptimizeRequest> requests;
    std::size_t cycle = 0;  ///< requests per cycle
    /// Leading requests every run completes: plan_tokens_per_s and the
    /// exact work counters are taken over these.
    std::size_t quality_prefix = 0;
};

struct ServeClientPlan
{
    std::string tenant;
    bool http = false;
    std::vector<int> picks;  ///< catalog indices, drawn Zipf
};

struct ServeMixInputs
{
    std::vector<temp::api::Request> catalog;
    std::vector<std::string> labels;  ///< one per catalog entry
    /// Catalog entries solved into the warm-start snapshot.
    std::vector<int> snapshot_head;
    std::vector<ServeClientPlan> clients;
};

struct FaultReplayInputs
{
    std::vector<temp::api::ScenarioRequest> timelines;
    /// Timelines per round: timeline t starts on replay model t % round.
    std::size_t round = 0;
    /// Leading timelines every run completes (plan quality and exact
    /// counters are taken over these).
    std::size_t quality_prefix = 0;
};

ColdPlanInputs makeColdPlan(std::uint64_t seed);
ServeMixInputs makeServeMix(std::uint64_t seed);
FaultReplayInputs makeFaultReplay(std::uint64_t seed);

/// @{ Digest of the generated inputs (FNV-1a over their wire form).
std::uint64_t inputDigest(const ColdPlanInputs &inputs);
std::uint64_t inputDigest(const ServeMixInputs &inputs);
std::uint64_t inputDigest(const FaultReplayInputs &inputs);
/// @}

/// The three mid-size models fault_replay switches among.
std::vector<std::string> replayModels();

}  // namespace perfbench
