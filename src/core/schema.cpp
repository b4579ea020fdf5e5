#include "core/schema.hpp"

#include <climits>
#include <cmath>
#include <cstdio>

namespace temp::core {

namespace {

using enum OptionScope;

/**
 * Cap on eval_threads. A framework starts this many OS threads for its
 * evaluation pool, so a request can otherwise ask a server for an
 * unbounded number of threads; exhausting the thread or address-space
 * limit fails the solve that builds the framework. 256 is far above
 * any width that pays: evaluation saturates well below the core count
 * of the hosts this runs on.
 */
constexpr int kMaxEvalThreads = 256;

using O = FrameworkOptions;

const OptionRow kOptionRows[] = {
    {"policy", Pod, +[](O &o) { return &o.policy.kind; },
     "mapping engine: smap | gmap | tcme"},
    {"eval_threads", Identity, +[](O &o) { return &o.eval_threads; },
     "evaluation threads (0 = hardware concurrency)", 0,
     kMaxEvalThreads},
    {"training.flash_attention", Pod,
     +[](O &o) { return &o.training.flash_attention; },
     "fused attention: no materialized score matrix"},
    {"training.zero1_optimizer", Pod,
     +[](O &o) { return &o.training.zero1_optimizer; },
     "shard optimizer states across data-parallel ranks"},
    {"training.weight_bytes_per_elem", Pod,
     +[](O &o) { return &o.training.weight_bytes_per_elem; },
     "bytes per weight element (a size, so >= 0)", 0},
    {"training.act_bytes_per_elem", Pod,
     +[](O &o) { return &o.training.act_bytes_per_elem; },
     "bytes per activation element (a size, so >= 0)", 0},
    {"training.grad_bytes_per_elem", Pod,
     +[](O &o) { return &o.training.grad_bytes_per_elem; },
     "bytes per gradient element (a size, so >= 0)", 0},
    {"training.optimizer_bytes_per_param", Pod,
     +[](O &o) { return &o.training.optimizer_bytes_per_param; },
     "optimizer-state bytes per parameter (a size, so >= 0)", 0},
    {"solver.engine", Identity, +[](O &o) { return &o.solver.engine; },
     "level-2 refinement: none | genetic | beamtabu"},
    {"solver.ga_population", Identity,
     +[](O &o) { return &o.solver.ga_population; },
     "level-2 population / beam width (>= 1: the engines draw from it, "
     "and an empty one panics)",
     1},
    {"solver.ga_generations", Identity,
     +[](O &o) { return &o.solver.ga_generations; },
     "level-2 generations"},
    {"solver.ga_mutation_rate", Identity,
     +[](O &o) { return &o.solver.ga_mutation_rate; },
     "genetic mutation probability (in [0, 1])", 0, 1},
    {"solver.seed", Identity, +[](O &o) { return &o.solver.seed; },
     "search seed"},
    // Both deadline caps decide the result (the quantum cap exactly,
    // the wall cap by rounding down to a quantum boundary), so they are
    // identity. The per-call budget the dispatcher merges in (a
    // request's remaining queue deadline) is not an option.
    {"solver.deadline.quanta", Identity,
     +[](O &o) { return &o.solver.deadline.max_quanta; },
     "cap on full-step fitness queries (0 = none)"},
    {"solver.deadline.wall_ms", Identity,
     +[](O &o) { return &o.solver.deadline.max_wall_ms; },
     "wall-clock cap, observed at quantum boundaries (0 = none)"},
    {"solver.space.allow_dp", Identity,
     +[](O &o) { return &o.solver.space.allow_dp; },
     "enumerate data parallelism"},
    {"solver.space.allow_fsdp", Identity,
     +[](O &o) { return &o.solver.space.allow_fsdp; },
     "enumerate fully sharded data parallelism"},
    {"solver.space.allow_tp", Identity,
     +[](O &o) { return &o.solver.space.allow_tp; },
     "enumerate tensor parallelism"},
    {"solver.space.allow_sp", Identity,
     +[](O &o) { return &o.solver.space.allow_sp; },
     "enumerate sequence parallelism"},
    {"solver.space.allow_cp", Identity,
     +[](O &o) { return &o.solver.space.allow_cp; },
     "enumerate context parallelism"},
    {"solver.space.allow_tatp", Identity,
     +[](O &o) { return &o.solver.space.allow_tatp; },
     "enumerate TATP"},
    {"solver.space.max_tp", Identity,
     +[](O &o) { return &o.solver.space.max_tp; },
     "cap on the tensor-parallel degree"},
    {"solver.space.max_tatp", Identity,
     +[](O &o) { return &o.solver.space.max_tatp; },
     "cap on the TATP degree"},
    {"solver.space.full_occupancy", Identity,
     +[](O &o) { return &o.solver.space.full_occupancy; },
     "require every spec to use every die"},
    {"service.cache.max_frameworks", Wire,
     +[](O &o) { return &o.cache.max_frameworks; },
     "entry budget of the service's framework cache"},
    {"service.cache.max_pods", Wire,
     +[](O &o) { return &o.cache.max_pods; },
     "entry budget of the service's pod cache"},
    {"eval.cache.max_entries", Identity,
     +[](O &o) { return &o.cache.max_eval_entries; },
     "entry budget of the op-cell memo (DP matrix and simulator)"},
    {"eval.cache.max_step_entries", Identity,
     +[](O &o) { return &o.cache.max_step_entries; },
     "entry budget of the step-report memo"},
    {"eval.cache.max_layouts", Identity,
     +[](O &o) { return &o.cache.max_layout_entries; },
     "entry budget of the layout and stream-plan memos"},
    {"net.schedule_cache.max_entries", Identity,
     +[](O &o) { return &o.cache.max_schedule_entries; },
     "entry budget of the collective-phase memo"},
    {"eval.cache.max_bytes", Identity,
     +[](O &o) { return &o.cache.max_eval_bytes; },
     "byte budget of the op-cell memo (DP matrix and simulator)"},
    {"eval.cache.max_step_bytes", Identity,
     +[](O &o) { return &o.cache.max_step_bytes; },
     "byte budget of the step-report memo"},
    {"eval.cache.max_layout_bytes", Identity,
     +[](O &o) { return &o.cache.max_layout_bytes; },
     "byte budget of the layout and stream-plan memos"},
    {"net.schedule_cache.max_bytes", Identity,
     +[](O &o) { return &o.cache.max_schedule_bytes; },
     "byte budget of the collective-phase memo"},
    {"persist.path", Local, +[](O &o) { return &o.persist.path; },
     "snapshot file (empty disables the persistent tier)"},
    {"persist.save_on_exit", Local,
     +[](O &o) { return &o.persist.save_on_exit; },
     "write a snapshot when the process exits cleanly"},
    {"persist.period_s", Local, +[](O &o) { return &o.persist.period_s; },
     "serve mode: seconds between snapshots (0 = exit only)"},
    {"serve.deadline_ms", Local,
     +[](O &o) { return &o.serve.deadline_ms; },
     "per-request queue deadline in ms (0 = off)", 0},
};

/*
 * The wafer (Table I). Its .conf keys use the paper's units (TFLOPS,
 * MB, TB/s, ns). HBM capacity and bandwidth are wire-only: a .conf file
 * rates them per stack, and the config parser multiplies by hbm_stacks.
 */
using W = hw::WaferConfig;

/// Floor of a rate or bandwidth, per second. A time is work / rate: far
/// below this it overflows to inf, and the zero effective rate that
/// follows panics the TATP executor (die_peak_flops = 5e-324 did).
constexpr double kMinRate = 1.0;

const FieldRow<W> kWaferRows[] = {
    {.key = "rows", .field = +[](W &w) { return &w.rows; },
     .doc = "die rows (the grid caps)", .min = 1, .max = kMaxWaferDies},
    {.key = "cols", .field = +[](W &w) { return &w.cols; },
     .doc = "die columns (the grid caps)", .min = 1, .max = kMaxWaferDies},
    {.key = "die_area_mm2", .field = +[](W &w) { return &w.die.area_mm2; },
     .doc = "logic-die area, mm^2 (an area: > 0)", .min = kPositive,
     .in_config = false},
    {.key = "die_sram_bytes", .field = +[](W &w) { return &w.die.sram_bytes; },
     .doc = "on-die SRAM, bytes (a size: > 0)", .min = kPositive,
     .config_key = "sram_mb", .config_scale = kMega},
    {.key = "die_frequency_hz",
     .field = +[](W &w) { return &w.die.frequency_hz; },
     .doc = "die clock, Hz (a rate)", .min = kMinRate, .in_config = false},
    {.key = "die_peak_flops", .field = +[](W &w) { return &w.die.peak_flops; },
     .doc = "peak compute per die, FLOP/s (a rate)", .min = kMinRate,
     .config_key = "peak_tflops", .config_scale = kTera},
    {.key = "die_flops_per_watt",
     .field = +[](W &w) { return &w.die.flops_per_watt; },
     .doc = "FLOP/s per W (a divisor: > 0)", .min = kPositive,
     .config_key = "flops_per_watt_t", .config_scale = kTera},
    {.key = "hbm_area_mm2", .field = +[](W &w) { return &w.hbm.area_mm2; },
     .doc = "HBM area per die, mm^2 (an area: > 0)", .min = kPositive,
     .in_config = false},
    {.key = "hbm_stacks_per_die",
     .field = +[](W &w) { return &w.hbm.stacks_per_die; },
     .doc = "HBM stacks per die (256 is far above any package)", .min = 1,
     .max = 256, .config_key = "hbm_stacks"},
    {.key = "hbm_capacity_bytes",
     .field = +[](W &w) { return &w.hbm.capacity_bytes; },
     .doc = "HBM capacity per die, bytes (a size: > 0)", .min = kPositive,
     .in_config = false},
    {.key = "hbm_bandwidth_bytes_per_s",
     .field = +[](W &w) { return &w.hbm.bandwidth_bytes_per_s; },
     .doc = "HBM bandwidth per die, B/s (a rate)", .min = kMinRate,
     .in_config = false},
    {.key = "hbm_latency_s", .field = +[](W &w) { return &w.hbm.latency_s; },
     .doc = "HBM access latency, s (>= 0)", .min = 0,
     .config_key = "hbm_latency_ns", .config_scale = kNano},
    {.key = "hbm_energy_pj_per_bit",
     .field = +[](W &w) { return &w.hbm.energy_pj_per_bit; },
     .doc = "HBM access energy, pJ/bit (>= 0)", .min = 0,
     .config_key = "hbm_pj_per_bit"},
    {.key = "d2d_bandwidth_bytes_per_s",
     .field = +[](W &w) { return &w.d2d.bandwidth_bytes_per_s; },
     .doc = "die-to-die bandwidth, B/s (a rate)", .min = kMinRate,
     .config_key = "d2d_tbps", .config_scale = kTera},
    {.key = "d2d_latency_s", .field = +[](W &w) { return &w.d2d.latency_s; },
     .doc = "die-to-die hop latency, s (>= 0)", .min = 0,
     .config_key = "d2d_latency_ns", .config_scale = kNano},
    {.key = "d2d_energy_pj_per_bit",
     .field = +[](W &w) { return &w.d2d.energy_pj_per_bit; },
     .doc = "die-to-die energy, pJ/bit (>= 0)", .min = 0,
     .config_key = "d2d_pj_per_bit"},
    {.key = "d2d_efficient_transfer_bytes",
     .field = +[](W &w) { return &w.d2d.efficient_transfer_bytes; },
     .doc = "size at which a link reaches peak efficiency, bytes (a size: "
            "> 0)",
     .min = kPositive, .in_config = false},
};

/*
 * The model; its .conf and wire keys coincide. hidden <= 2^20 and
 * ffn_mult <= 2^10 keep intermediate() = ffn_mult * hidden, an int,
 * below 2^30; the other caps sit far above any published model.
 */
using M = model::ModelConfig;

const FieldRow<M> kModelRows[] = {
    {.key = "name", .field = +[](M &m) { return &m.name; },
     .doc = "display name (required unless `base` names a zoo model)"},
    {.key = "heads", .field = +[](M &m) { return &m.heads; },
     .doc = "attention heads (divide hidden)", .min = 1, .max = 1 << 20},
    {.key = "batch", .field = +[](M &m) { return &m.batch; },
     .doc = "global batch, sequences", .min = 1, .max = 1 << 24},
    {.key = "hidden", .field = +[](M &m) { return &m.hidden; },
     .doc = "hidden size (see ffn_mult)", .min = 1, .max = 1 << 20},
    {.key = "layers", .field = +[](M &m) { return &m.layers; },
     .doc = "transformer layers", .min = 1, .max = 1 << 20},
    {.key = "seq", .field = +[](M &m) { return &m.seq; },
     .doc = "sequence length, tokens", .min = 1, .max = 1 << 24},
    {.key = "ffn_mult", .field = +[](M &m) { return &m.ffn_mult; },
     .doc = "FFN expansion (ffn_mult * hidden fits an int)", .min = 1,
     .max = 1 << 10},
    {.key = "vocab", .field = +[](M &m) { return &m.vocab; },
     .doc = "vocabulary size", .min = 1, .max = 1 << 24},
};

/// An explicit uniform strategy (wire only). A degree spans dies, so
/// it is at most the die cap; whether the product fits a wafer is the
/// service's runtime check.
using S = parallel::ParallelSpec;

const FieldRow<S> kSpecRows[] = {
    {.key = "dp", .field = +[](S &s) { return &s.dp; },
     .doc = "data-parallel degree", .min = 1, .max = kMaxWaferDies},
    {.key = "fsdp", .field = +[](S &s) { return &s.fsdp; },
     .doc = "sharded data-parallel degree", .min = 1, .max = kMaxWaferDies},
    {.key = "tp", .field = +[](S &s) { return &s.tp; },
     .doc = "tensor-parallel degree", .min = 1, .max = kMaxWaferDies},
    {.key = "sp", .field = +[](S &s) { return &s.sp; },
     .doc = "sequence-parallel degree", .min = 1, .max = kMaxWaferDies},
    {.key = "cp", .field = +[](S &s) { return &s.cp; },
     .doc = "context-parallel degree", .min = 1, .max = kMaxWaferDies},
    {.key = "tatp", .field = +[](S &s) { return &s.tatp; },
     .doc = "TATP degree", .min = 1, .max = kMaxWaferDies},
    {.key = "pp", .field = +[](S &s) { return &s.pp; },
     .doc = "pipeline degree", .min = 1, .max = kMaxWaferDies},
    {.key = "coupled_sp", .field = +[](S &s) { return &s.coupled_sp; },
     .doc = "Megatron-3 sequence parallelism inside the TP group"},
};

/// The pod fabric (wire only), after the nested `wafer`.
using P = hw::MultiWaferConfig;

const FieldRow<P> kPodRows[] = {
    {.key = "wafer_count", .field = +[](P &p) { return &p.wafer_count; },
     .doc = "wafers in the pod (the hostile-input cap)", .min = 1,
     .max = kMaxWaferCount},
    {.key = "inter_wafer_bandwidth_bytes_per_s",
     .field = +[](P &p) { return &p.inter_wafer_bandwidth_bytes_per_s; },
     .doc = "inter-wafer bandwidth, B/s (a rate)", .min = kMinRate},
    {.key = "inter_wafer_latency_s",
     .field = +[](P &p) { return &p.inter_wafer_latency_s; },
     .doc = "inter-wafer hop latency, s (>= 0)", .min = 0},
};

/// A bound or value in a message (plain digits for integers).
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return buf;
}

}  // namespace

template <>
std::span<const OptionRow> fieldRows() { return kOptionRows; }
template <>
std::span<const FieldRow<W>> fieldRows() { return kWaferRows; }
template <>
std::span<const FieldRow<M>> fieldRows() { return kModelRows; }
template <>
std::span<const FieldRow<S>> fieldRows() { return kSpecRows; }
template <>
std::span<const FieldRow<P>> fieldRows() { return kPodRows; }

template <typename V>
std::string
rangeText(double min, double max, double scale)
{
    if constexpr (std::is_same_v<V, long>)
        return "a whole number >= 0 (0 = unbounded)";
    if constexpr (std::is_same_v<V, int>)
        return "an integer in [" + number(std::fmax(min, INT_MIN)) + ", " +
               number(std::fmin(max, INT_MAX)) + "]";
    std::string text = "a finite number";
    if (min == kPositive)
        text += " > 0";
    else if (std::isfinite(min))
        text += " >= " + number(min / scale);
    if (std::isfinite(max))
        text += " <= " + number(max / scale);
    return text;
}

template std::string rangeText<int>(double, double, double);
template std::string rangeText<long>(double, double, double);
template std::string rangeText<double>(double, double, double);

template <typename V>
std::string
rangeError(double v, double min, double max, double scale,
           const std::string &name)
{
    if constexpr (std::is_same_v<V, long>)
        min = 0;
    if (std::isfinite(v) && v >= min && v <= max)
        return "";
    const std::string range = rangeText<V>(min, max, scale);
    const std::string got = number(v / scale);
    return v > max ? name + " exceeds " + number(max / scale) +
                         " (must be " + range + ", got " + got + ")"
                   : name + " must be " + range + ", got " + got;
}

template std::string rangeError<int>(double, double, double, double,
                                     const std::string &);
template std::string rangeError<long>(double, double, double, double,
                                      const std::string &);
template std::string rangeError<double>(double, double, double, double,
                                        const std::string &);

template <typename T>
std::string
fieldError(const T &value, Source source, std::string_view what)
{
    if constexpr (std::is_same_v<T, W>) {
        // The grid caps come first: rows x cols sizes the mesh build.
        const std::string grid = std::string(what) + " grid ";
        if (value.rows < 1 || value.cols < 1)
            return grid + "must be at least 1x1, got " +
                   std::to_string(value.rows) + "x" +
                   std::to_string(value.cols);
        if (static_cast<long long>(value.rows) * value.cols > kMaxWaferDies)
            return grid + "exceeds " + std::to_string(kMaxWaferDies) +
                   " dies";
    }
    if (std::string error = rowsError(value, fieldRows<T>(), source, what);
        !error.empty())
        return error;
    if constexpr (std::is_same_v<T, M>)
        if (value.hidden % value.heads != 0)
            return std::string(what) + " hidden (" +
                   std::to_string(value.hidden) + ") must divide by heads (" +
                   std::to_string(value.heads) + ")";
    if constexpr (std::is_same_v<T, P>)
        return fieldError(value.wafer, source, std::string(what) + ".wafer");
    return "";
}

template std::string fieldError(const O &, Source, std::string_view);
template std::string fieldError(const W &, Source, std::string_view);
template std::string fieldError(const M &, Source, std::string_view);
template std::string fieldError(const S &, Source, std::string_view);
template std::string fieldError(const P &, Source, std::string_view);

const char *
policyName(tcme::MappingEngineKind kind)
{
    switch (kind) {
    case tcme::MappingEngineKind::SMap: return "smap";
    case tcme::MappingEngineKind::GMap: return "gmap";
    case tcme::MappingEngineKind::TCME: return "tcme";
    }
    return "?";
}

bool
policyFromName(std::string_view name, tcme::MappingEngineKind *kind)
{
    for (const auto k : {tcme::MappingEngineKind::SMap,
                         tcme::MappingEngineKind::GMap,
                         tcme::MappingEngineKind::TCME})
        if (name == policyName(k)) {
            *kind = k;
            return true;
        }
    return false;
}

}  // namespace temp::core
