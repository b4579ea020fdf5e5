#include "core/options_schema.hpp"

namespace temp::core {

namespace {

using O = FrameworkOptions;
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

const OptionRow kRows[] = {
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
     "bytes per weight element"},
    {"training.act_bytes_per_elem", Pod,
     +[](O &o) { return &o.training.act_bytes_per_elem; },
     "bytes per activation element"},
    {"training.grad_bytes_per_elem", Pod,
     +[](O &o) { return &o.training.grad_bytes_per_elem; },
     "bytes per gradient element"},
    {"training.optimizer_bytes_per_param", Pod,
     +[](O &o) { return &o.training.optimizer_bytes_per_param; },
     "optimizer-state bytes per parameter"},
    {"solver.engine", Identity, +[](O &o) { return &o.solver.engine; },
     "level-2 refinement: none | genetic | beamtabu"},
    {"solver.ga_population", Identity,
     +[](O &o) { return &o.solver.ga_population; },
     "level-2 population / beam width"},
    {"solver.ga_generations", Identity,
     +[](O &o) { return &o.solver.ga_generations; },
     "level-2 generations"},
    {"solver.ga_mutation_rate", Identity,
     +[](O &o) { return &o.solver.ga_mutation_rate; },
     "genetic mutation probability"},
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
     "entry budget of the breakdown and sim-cell memos"},
    {"eval.cache.max_step_entries", Identity,
     +[](O &o) { return &o.cache.max_step_entries; },
     "entry budget of the step-report memo"},
    {"eval.cache.max_layouts", Identity,
     +[](O &o) { return &o.cache.max_layout_entries; },
     "entry budget of the layout caches"},
    {"net.schedule_cache.max_entries", Identity,
     +[](O &o) { return &o.cache.max_schedule_entries; },
     "entry budget of the schedule cache"},
    {"eval.cache.max_bytes", Identity,
     +[](O &o) { return &o.cache.max_eval_bytes; },
     "byte budget of the breakdown and sim-cell memos"},
    {"eval.cache.max_step_bytes", Identity,
     +[](O &o) { return &o.cache.max_step_bytes; },
     "byte budget of the step-report memo"},
    {"eval.cache.max_layout_bytes", Identity,
     +[](O &o) { return &o.cache.max_layout_bytes; },
     "byte budget of the layout caches"},
    {"net.schedule_cache.max_bytes", Identity,
     +[](O &o) { return &o.cache.max_schedule_bytes; },
     "byte budget of the schedule cache"},
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

}  // namespace

std::span<const OptionRow>
optionRows()
{
    return kRows;
}

const OptionRow *
findOptionRow(std::string_view key)
{
    for (const OptionRow &row : kRows)
        if (key == row.key)
            return &row;
    return nullptr;
}

}  // namespace temp::core
