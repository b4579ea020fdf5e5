/**
 * @file
 * Canonical content keys for requests and their configuration slices.
 *
 * A key renders every field of a config with %.17g (doubles round-trip
 * at that precision), so two values share a key iff they are
 * bit-for-bit the same computation. TempService keys its framework and
 * pod caches on these; the serve-layer dispatcher keys its in-flight
 * coalescing map on requestKey(), the request's wire document — two
 * requests with equal keys are interchangeable and can legally share
 * one Response.
 */
#pragma once

#include <string>

#include "api/requests.hpp"
#include "core/schema.hpp"

namespace temp::api {

/**
 * Appends one struct's canonical key in place: every row of its field
 * table (core/schema.hpp) of scope `widest` or narrower, in table order
 * (a pod's nested wafer first). T is FrameworkOptions,
 * hw::WaferConfig, model::ModelConfig, parallel::ParallelSpec or
 * hw::MultiWaferConfig; only options rows are narrower than Identity.
 */
template <typename T>
void appendKey(std::string &key, const T &value,
               core::OptionScope widest = core::OptionScope::Identity);

/// The framework cache key and snapshot block key: the wafer, then
/// optionsKey.
std::string frameworkKey(const hw::WaferConfig &wafer,
                         const core::FrameworkOptions &options);

/// Every OptionScope::Identity row: policy, training, solver,
/// eval_threads and the framework-level cache budgets. The
/// service-level budgets and the process-local keys stay out — they
/// change nothing a framework computes.
std::string optionsKey(const core::FrameworkOptions &options);

/// Pod (wafer + fabric) + the policy/training slice (what
/// MultiWaferSimulator construction consumes).
std::string podKey(const hw::MultiWaferConfig &pod,
                   const core::FrameworkOptions &options);

/**
 * Whole-request canonical key: the request's wire JSON (toJson in
 * api/request_io.hpp) with an empty tenant, so requests from different
 * tenants still share a key. The wire format is lossless, so responses
 * are deterministic functions of this key (timing fields aside), which
 * is what makes in-flight coalescing sound. CacheStats requests are
 * never coalesced by the dispatcher — their answer depends on when
 * they run.
 */
std::string requestKey(const Request &request);

}  // namespace temp::api
