/**
 * @file
 * Plain-text configuration loading for wafers and models, so downstream
 * users can describe their own hardware and workloads without
 * recompiling. Format: one `key = value` pair per line, `#` comments.
 *
 * The keys, their units, ranges and docs are the rows of the field
 * tables in core/schema.cpp: options, wafer (defaults = Table I; the
 * rows' config_key names, plus the by-hand hbm_gb_per_stack and
 * hbm_tbps_per_stack) and model (plus the by-hand `base`). The options
 * rows also give each key's scope (which keys travel on the wire and
 * which enter the framework cache key). Booleans accept 0/1/true/false.
 */
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "core/framework.hpp"
#include "core/schema.hpp"
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
/// versions are thin wrappers over these. The wire parser reads models
/// and options through them with Source::Wire, which names keys
/// "<what>.<key>" and leaves the process-local options unknown.
ConfigMap parseConfigTextOrThrow(const std::string &text);
hw::WaferConfig waferFromConfigOrThrow(const ConfigMap &config);
model::ModelConfig modelFromConfigOrThrow(const ConfigMap &config,
                                          Source source = Source::Config,
                                          std::string_view what = "model");
FrameworkOptions frameworkOptionsFromConfigOrThrow(
    const ConfigMap &config, Source source = Source::Config);
/// @}

/**
 * The one field reader: sets the field of `out` that `key` names, by
 * the keys of T's table (core/schema.hpp) that `source` reads, from its
 * text (scaled from config units to wire units). An unknown key or a
 * malformed value throws ConfigError naming the key; ranges are
 * fieldError's, checked once the whole struct is read.
 */
template <typename T>
void readField(const std::string &key, const std::string &text,
               Source source, std::string_view what, T &out);

/// A uint64 from its raw decimal lexeme (a double would corrupt seeds
/// above 2^53): false unless `text` is digits only and below 2^64.
bool parseSeed(const std::string &text, std::uint64_t *out);

/// Throws ConfigError("config: " or "request: " + error) unless
/// `error` is empty.
void throwIfInvalid(const std::string &error, Source source);

/// True when a command-line argument names a config file rather than a
/// zoo model (shared by the CLI and the examples).
bool isConfigFile(const std::string &arg);

}  // namespace temp::core
