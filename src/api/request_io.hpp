/**
 * @file
 * The inbound half of the service wire format: JSON -> Request.
 *
 * A request document is an envelope
 *
 *   {"kind": "optimize", "tenant": "team-a",
 *    "model": {...}, "wafer": {...}, "options": {...}, ...}
 *
 * where `model`, `wafer`, `options`, `spec` and `pod` carry the wire
 * keys of their field tables (core/schema.cpp): `model` and `options`
 * match the .conf names (`options` minus the process-local persist.*
 * and serve.* keys), `wafer` uses raw-SI names (rows, die_peak_flops,
 * hbm_latency_s, ...). Doubles render at %.17g so a serialize -> parse
 * round trip reproduces every double bit-for-bit.
 * Kind-specific fields ride alongside: baseline_kind/mapping_engine
 * (baseline), spec (strategy), link_fault_rate/core_fault_rate/
 * fault_seed/faults (fault), pod/pp/microbatches/intra_spec
 * (multiwafer).
 *
 * Parsing is strict the way config_io is strict: unknown keys are
 * errors, not warnings — a typo must never silently configure the
 * default. Unlike config_io's CLI entry points, nothing here ever
 * fatal()s: every malformed document becomes (false, error message),
 * because the caller is a server answering hostile input.
 *
 * The contract the round-trip test pins: for every request,
 * parseRequest(toJson(request)) succeeds and yields a request with an
 * identical requestKey() — the wire format is lossless with respect to
 * what a request computes.
 */
#pragma once

#include <string>

#include "api/requests.hpp"

namespace temp::api {

/// A successfully parsed request plus its envelope metadata.
struct ParsedRequest
{
    Request request;
    /// Client-supplied tenant id ("" = anonymous); the admission
    /// controller's fair-dequeue key.
    std::string tenant;
};

/**
 * Parses one request document.
 *
 * @return false with *error set (parse errors carry a byte offset,
 *         semantic errors name the offending key) on any malformed
 *         input; never terminates the process.
 */
bool parseRequest(const std::string &json_text, ParsedRequest *out,
                  std::string *error);

/// @{ Wire-format renderers (the outbound half; inverse of
/// parseRequest). Every field is emitted, defaults included, so
/// documents are self-contained and byte-stable. The table-described
/// members (model, wafer, options, spec, pod) render through
/// fieldsJson (api/serialize.hpp).
std::string toJson(const hw::FaultMap &faults);
std::string toJson(const Request &request,
                   const std::string &tenant = "");
/// @}

}  // namespace temp::api
