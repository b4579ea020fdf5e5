/**
 * @file
 * The answer checker. Every rejection counts as a failed operation and
 * makes the benchmark exit non-zero.
 *
 *  - A returned plan must be feasible and not OOM.
 *  - A plan must re-simulate on a fresh, independent TrainingSimulator
 *    (its own wafer, cost model and caches) to the same step time: bit
 *    for bit for in-process answers, and to the identical wire lexeme
 *    for answers that crossed the network (the wire renders doubles
 *    with api::jsonNumber).
 *  - Identical requests must return identical answers, whether they are
 *    repeats, memo hits or coalesced riders.
 *  - A scenario replay must equal an untimed second replay of the same
 *    timeline on a fresh service (replay digests), with no infeasible
 *    or fallback event.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "common/json.hpp"

namespace perfbench {

/// Parses a ParallelSpec::str() rendering ("(dp=4,tp=8,sp=1,tatp=1)",
/// with optional fsdp/cp/pp/csp); false on malformed text.
bool parseSpecString(const std::string &text,
                     temp::parallel::ParallelSpec *out);

/// The fault map a FaultRequest's random draw yields (links first,
/// cores second, one generator), or its explicit map.
temp::hw::FaultMap drawFaults(const temp::api::FaultRequest &request);

class Checker
{
  public:
    /**
     * Checks an in-process plan: feasible, not OOM, and its step time
     * equals, bit for bit, a re-simulation on a fresh simulator over
     * @p wafer (with @p faults applied).
     * @return "" when accepted, else the reason.
     */
    static std::string checkPlan(const temp::hw::WaferConfig &wafer,
                                 const temp::hw::FaultMap &faults,
                                 const temp::core::FrameworkOptions &options,
                                 const temp::model::ModelConfig &model,
                                 const temp::solver::SolverResult &result);

    /**
     * Checks one wire response to @p request: ok, not shed, feasible,
     * not OOM, and re-simulated to the identical step-time lexeme.
     */
    static std::string checkWire(const temp::api::Request &request,
                                 const temp::common::JsonValue &response);

    /// The identity-bearing part of a wire answer (plan specs and the
    /// report's step time and throughput lexemes); "" for kinds whose
    /// answer depends on when they run (cache stats).
    static std::string answerFingerprint(
        const temp::common::JsonValue &response);

    /// Records an answer under its canonical request key; rejects an
    /// answer that differs from the first one seen for that key.
    std::string checkRepeat(const std::string &request_key,
                            const std::string &answer);

    /// Checks a scenario replay against its untimed second replay.
    static std::string checkReplay(
        const temp::scenario::ScenarioReport &timed,
        const temp::scenario::ScenarioReport &second);

  private:
    std::map<std::string, std::string> answers_;
};

/// Follows a path of object keys; nullptr when any step is missing.
const temp::common::JsonValue *jsonAt(
    const temp::common::JsonValue &root,
    std::initializer_list<const char *> path);

}  // namespace perfbench
