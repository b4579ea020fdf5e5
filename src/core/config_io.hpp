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
 * Framework-options keys (booleans accept 0/1/true/false):
 *   policy (smap | gmap | tcme), eval_threads,
 *   training.flash_attention, training.zero1_optimizer,
 *   training.weight_bytes_per_elem, training.act_bytes_per_elem,
 *   training.grad_bytes_per_elem, training.optimizer_bytes_per_param,
 *   solver.engine (none | genetic | beamtabu),
 *   solver.ga_population, solver.ga_generations,
 *   solver.ga_mutation_rate, solver.seed, solver.deadline.quanta,
 *   solver.deadline.wall_ms, solver.use_surrogate,
 *   solver.surrogate_sample_fraction, solver.space.allow_dp,
 *   solver.space.allow_fsdp, solver.space.allow_tp,
 *   solver.space.allow_sp, solver.space.allow_cp,
 *   solver.space.allow_tatp, solver.space.max_tp,
 *   solver.space.max_tatp, solver.space.full_occupancy
 *
 * Cache-governance keys (entry budgets; 0 = unbounded, the default):
 *   service.cache.max_frameworks, service.cache.max_pods,
 *   eval.cache.max_entries, eval.cache.max_step_entries,
 *   eval.cache.max_layouts, net.schedule_cache.max_entries,
 *   net.route_pool.max_entries
 * Byte budgets (compose with entry budgets; 0 = unbounded):
 *   eval.cache.max_bytes, eval.cache.max_step_bytes,
 *   eval.cache.max_layout_bytes, net.schedule_cache.max_bytes,
 *   net.route_pool.max_bytes
 *
 * Persistent-tier keys (process-local; never part of the framework
 * cache key or the request wire format):
 *   persist.path (snapshot file; empty disables),
 *   persist.save_on_exit (bool), persist.period_s (serve mode)
 *
 * Service front-end keys (process-local like persist.*):
 *   serve.deadline_ms (per-request queue deadline; 0 = off)
 */
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "core/framework.hpp"
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
FrameworkOptions frameworkOptionsFromConfigOrThrow(
    const ConfigMap &config);
/// @}

/// True when a command-line argument names a config file rather than a
/// zoo model (shared by the CLI and the examples).
bool isConfigFile(const std::string &arg);

}  // namespace temp::core
