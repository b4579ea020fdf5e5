/**
 * @file
 * Layer probes of the traced mode.
 *
 * The probes time calls into each layer's public functions from the
 * outside, on the workload's own inputs (its models, wafer, thread
 * count and a fault draw of its seed), and read the counters the
 * layers already expose. Every call is wrapped in a span, so the span
 * table shows where a cold solve spends its time:
 *
 *  - solver: a cold DlsSolver::solve, then the same solve replayed in
 *    parts (enumerateStrategies, the eval matrix fill and uniform batch
 *    on shared evaluators, and DlsSolver::solve on those warmed
 *    evaluators, which covers DP, level 2 and the final report);
 *  - eval / sim / cost / tatp / tcme / net: single-call timings of
 *    CachingEvaluator, TrainingSimulator::simulate, WaferCostModel
 *    (opCost, buildLayout, interOpTime), ChainMapper::orderAsChain,
 *    TatpExecutor::streamFlows, TrafficOptimizer::optimize,
 *    CollectiveScheduler::schedule, ContentionModel::evaluateSequence
 *    and Router::safeRouteRef;
 *  - hw / core: Wafer::setFaults (epoch listeners included),
 *    TempFramework construction and degradedContext();
 *  - api / serve / persist / scenario: parseRequest, requestKey,
 *    toJson, a short loopback server session, a snapshot round trip and
 *    a short scenario replay. Workloads that exercise these layers
 *    themselves override the probe values with their own.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "api/requests.hpp"

namespace perfbench {

struct ProbeInputs
{
    std::vector<temp::model::ModelConfig> models;
    temp::core::FrameworkOptions options;  ///< the workload's eval_threads
    temp::hw::FaultMap faults;             ///< a fault draw of the seed
    std::vector<temp::api::Request> requests;  ///< api / serve samples
    temp::api::ScenarioRequest scenario;   ///< a short timeline
    std::string workdir;                   ///< snapshot scratch space
};

/// Runs every probe; returns the per-layer metrics by name.
std::map<std::string, double> runProbes(const ProbeInputs &inputs);

}  // namespace perfbench
