/**
 * @file
 * Plain-text configuration loading for wafers and models, so downstream
 * users can describe their own hardware and workloads without
 * recompiling. Format: one `key = value` pair per line, `#` comments.
 *
 * Wafer keys (defaults = Table I):
 *   rows, cols, peak_tflops, sram_mb, d2d_tbps, d2d_latency_ns,
 *   d2d_pj_per_bit, hbm_stacks, hbm_gb_per_stack, hbm_tbps_per_stack,
 *   hbm_latency_ns, hbm_pj_per_bit, flops_per_watt_t
 *
 * Model keys:
 *   name, heads, batch, hidden, layers, seq, ffn_mult, vocab
 *
 * Framework-options keys: one row each in core/options_schema.cpp,
 * which also gives each key's scope (which keys travel on the wire
 * and which enter the framework cache key) and value kind. Booleans
 * accept 0/1/true/false.
 */
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "core/framework.hpp"
#include "core/options_schema.hpp"
#include "hw/config.hpp"
#include "model/model_zoo.hpp"

namespace temp::core {

/// Parsed key=value pairs (string values, trimmed).
using ConfigMap = std::map<std::string, std::string>;

/**
 * What the OrThrow config builders raise on malformed input. The
 * classic entry points below translate it into fatal() — the right
 * behavior for a CLI — while long-lived servers (the api request
 * parser) catch it and degrade a bad request to an error response
 * instead of terminating the process.
 */
class ConfigError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/// Parses `key = value` lines; `#` starts a comment. fatal() on
/// malformed lines.
ConfigMap parseConfigText(const std::string &text);

/// Loads a ConfigMap from a file; fatal() if unreadable.
ConfigMap loadConfigFile(const std::string &path);

/**
 * Builds a wafer configuration from parsed keys, starting from the
 * Table I defaults; unknown keys are rejected (fatal) so typos do not
 * silently configure the default.
 */
hw::WaferConfig waferFromConfig(const ConfigMap &config);

/// Builds a model configuration from parsed keys; `name` is required
/// unless `base` names a zoo model to start from.
model::ModelConfig modelFromConfig(const ConfigMap &config);

/**
 * Builds framework options (mapping policy, training options, solver
 * tuning, evaluation threads) from parsed keys, starting from the
 * defaults; unknown keys are rejected (fatal). Together with wafer and
 * model configs this makes a service request fully describable from
 * `.conf` files without recompiling.
 */
FrameworkOptions frameworkOptionsFromConfig(const ConfigMap &config);

/// @{ Error-returning twins of the builders above: identical
/// validation (same messages, same unknown-key strictness), but they
/// throw ConfigError instead of terminating the process. The fatal()
/// versions are thin wrappers over these.
ConfigMap parseConfigTextOrThrow(const std::string &text);
hw::WaferConfig waferFromConfigOrThrow(const ConfigMap &config);
model::ModelConfig modelFromConfigOrThrow(const ConfigMap &config);
/// `widest` narrows the accepted keys: the wire parser passes
/// OptionScope::Wire, so process-local keys are unknown there.
FrameworkOptions frameworkOptionsFromConfigOrThrow(
    const ConfigMap &config, OptionScope widest = OptionScope::Local);
/// @}

/// True when a command-line argument names a config file rather than a
/// zoo model (shared by the CLI and the examples).
bool isConfigFile(const std::string &arg);

}  // namespace temp::core
