/**
 * @file
 * Canonical content keys for requests and their configuration slices.
 *
 * A key renders every field of a config with %.17g (doubles round-trip
 * at that precision), so two values share a key iff they are
 * bit-for-bit the same computation. TempService keys its framework and
 * pod caches on these; the serve-layer dispatcher keys its in-flight
 * coalescing map on requestKey(), which additionally tags the request
 * kind and the kind-specific fields — two requests with equal keys are
 * interchangeable and can legally share one Response.
 */
#pragma once

#include <string>

#include "api/requests.hpp"

namespace temp::api {

/// All 17 WaferConfig fields (die, HBM, D2D).
std::string waferKey(const hw::WaferConfig &wafer);

/// The OptionScope::Pod rows (policy, training.*) — all a simulator
/// consumes; pods key on this so solver-only knobs don't evict them.
std::string policyTrainingKey(const core::FrameworkOptions &options);

/// Every OptionScope::Identity row (core/options_schema.cpp): policy,
/// training, solver, eval_threads and the framework-level cache
/// budgets. The service-level budgets and the process-local keys stay
/// out — they change nothing a framework computes.
std::string optionsKey(const core::FrameworkOptions &options);

/// Pod fabric + the policy/training slice (what MultiWaferSimulator
/// construction consumes).
std::string podKey(const hw::MultiWaferConfig &pod,
                   const core::FrameworkOptions &options);

/// Model hyper-parameters; the name is length-prefixed so no two
/// distinct (name, fields) pairs can collide by concatenation.
std::string modelKey(const model::ModelConfig &model);

/// All ParallelSpec axes plus coupled_sp.
std::string specKey(const parallel::ParallelSpec &spec);

/**
 * Whole-request canonical key: kind tag + every field that affects the
 * response payload. Responses are deterministic functions of this key
 * (timing fields aside), which is what makes in-flight coalescing
 * sound. CacheStats requests key on the tag alone but are never
 * coalesced by the dispatcher — their answer depends on when they run.
 */
std::string requestKey(const Request &request);

}  // namespace temp::api
