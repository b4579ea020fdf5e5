#include "api/request_key.hpp"

#include <cstdio>

namespace temp::api {

namespace {

/// Appends one canonicalized field to a cache key. %.17g round-trips
/// doubles, so two configs share a key iff they are value-identical.
void
field(std::string &key, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g|", v);
    key += buf;
}

void
field(std::string &key, int v)
{
    key += std::to_string(v);
    key += '|';
}

void
field(std::string &key, bool v)
{
    key += v ? "1|" : "0|";
}

/// Free-form strings (model names, tenant-adjacent data) are
/// length-prefixed so concatenated keys cannot alias across field
/// boundaries no matter what bytes the string holds.
void
field(std::string &key, const std::string &v)
{
    key += std::to_string(v.size());
    key += ':';
    key += v;
    key += '|';
}

}  // namespace

std::string
waferKey(const hw::WaferConfig &w)
{
    std::string key;
    field(key, w.rows);
    field(key, w.cols);
    field(key, w.die.area_mm2);
    field(key, w.die.sram_bytes);
    field(key, w.die.frequency_hz);
    field(key, w.die.peak_flops);
    field(key, w.die.flops_per_watt);
    field(key, w.hbm.area_mm2);
    field(key, w.hbm.stacks_per_die);
    field(key, w.hbm.capacity_bytes);
    field(key, w.hbm.bandwidth_bytes_per_s);
    field(key, w.hbm.latency_s);
    field(key, w.hbm.energy_pj_per_bit);
    field(key, w.d2d.bandwidth_bytes_per_s);
    field(key, w.d2d.latency_s);
    field(key, w.d2d.energy_pj_per_bit);
    field(key, w.d2d.efficient_transfer_bytes);
    return key;
}

std::string
policyTrainingKey(const core::FrameworkOptions &o)
{
    std::string key;
    field(key, static_cast<int>(o.policy.kind));
    field(key, o.training.flash_attention);
    field(key, o.training.zero1_optimizer);
    field(key, o.training.weight_bytes_per_elem);
    field(key, o.training.act_bytes_per_elem);
    field(key, o.training.grad_bytes_per_elem);
    field(key, o.training.optimizer_bytes_per_param);
    return key;
}

std::string
optionsKey(const core::FrameworkOptions &o)
{
    std::string key = policyTrainingKey(o);
    field(key, o.solver.space.allow_dp);
    field(key, o.solver.space.allow_fsdp);
    field(key, o.solver.space.allow_tp);
    field(key, o.solver.space.allow_sp);
    field(key, o.solver.space.allow_cp);
    field(key, o.solver.space.allow_tatp);
    field(key, o.solver.space.max_tp);
    field(key, o.solver.space.max_tatp);
    field(key, o.solver.space.full_occupancy);
    field(key, static_cast<int>(o.solver.engine));
    field(key, o.solver.ga_population);
    field(key, o.solver.ga_generations);
    field(key, o.solver.ga_mutation_rate);
    key += std::to_string(o.solver.seed);  // uint64: no double rounding
    key += '|';
    // Both deadline caps are result-determining configuration (the
    // quantum cap deterministically, the wall cap by rounding down to
    // a quantum boundary), so requests differing only in deadline must
    // not alias. The runtime budget the dispatcher merges in (a
    // request's remaining queue deadline) stays out — it is per-call
    // state, not options identity. Quanta rendered like seed
    // (long -> no double rounding).
    key += std::to_string(o.solver.deadline.max_quanta);
    key += '|';
    field(key, o.solver.deadline.max_wall_ms);
    field(key, o.solver.use_surrogate);
    field(key, o.solver.surrogate_sample_fraction);
    field(key, o.eval_threads);
    // Framework-level cache budgets are applied at construction, so
    // they are part of the framework's identity. The service-level
    // budgets (max_frameworks/max_pods) re-tune the service maps and
    // deliberately stay out of the key — they do not change what a
    // framework computes or caches. PersistOptions stays out too:
    // where a process saves/loads snapshots must not fragment the
    // framework cache (two processes pointed at different snapshot
    // paths share identical results). ServeOptions likewise: how long
    // a process queues a request is front-end policy, not framework
    // identity. Budgets are long: rendered
    // directly (like solver.seed) so no narrowing can alias keys.
    for (const long budget :
         {o.cache.max_eval_entries, o.cache.max_step_entries,
          o.cache.max_layout_entries, o.cache.max_schedule_entries,
          o.cache.max_route_entries, o.cache.max_eval_bytes,
          o.cache.max_step_bytes, o.cache.max_layout_bytes,
          o.cache.max_schedule_bytes, o.cache.max_route_bytes}) {
        key += std::to_string(budget);
        key += '|';
    }
    return key;
}

std::string
podKey(const hw::MultiWaferConfig &pod, const core::FrameworkOptions &o)
{
    std::string key = waferKey(pod.wafer);
    field(key, pod.wafer_count);
    field(key, pod.inter_wafer_bandwidth_bytes_per_s);
    field(key, pod.inter_wafer_latency_s);
    key += policyTrainingKey(o);
    return key;
}

std::string
modelKey(const model::ModelConfig &m)
{
    std::string key;
    field(key, m.name);
    field(key, m.heads);
    field(key, m.batch);
    field(key, m.hidden);
    field(key, m.layers);
    field(key, m.seq);
    field(key, m.ffn_mult);
    field(key, m.vocab);
    return key;
}

std::string
specKey(const parallel::ParallelSpec &spec)
{
    std::string key;
    field(key, spec.dp);
    field(key, spec.fsdp);
    field(key, spec.tp);
    field(key, spec.sp);
    field(key, spec.cp);
    field(key, spec.tatp);
    field(key, spec.pp);
    field(key, spec.coupled_sp);
    return key;
}

namespace {

std::string
faultMapKey(const hw::FaultMap &faults)
{
    std::string key;
    field(key, faults.dieCount());
    const auto links = faults.failedLinks();
    field(key, static_cast<int>(links.size()));
    for (const hw::LinkId link : links)
        field(key, link);
    for (const double fraction : faults.coreFaultFractions())
        field(key, fraction);
    return key;
}

struct RequestKeyVisitor
{
    std::string operator()(const OptimizeRequest &r) const
    {
        return "optimize|" + modelKey(r.model) + waferKey(r.wafer) +
               optionsKey(r.options);
    }

    std::string operator()(const BaselineRequest &r) const
    {
        std::string key = "baseline|" + modelKey(r.model) +
                          waferKey(r.wafer) + optionsKey(r.options);
        field(key, static_cast<int>(r.kind));
        field(key, static_cast<int>(r.engine));
        return key;
    }

    std::string operator()(const StrategyRequest &r) const
    {
        return "strategy|" + modelKey(r.model) + waferKey(r.wafer) +
               optionsKey(r.options) + specKey(r.spec);
    }

    std::string operator()(const FaultRequest &r) const
    {
        std::string key = "fault|" + modelKey(r.model) +
                          waferKey(r.wafer) + optionsKey(r.options);
        // An explicit map replaces the (rates, seed) triple entirely —
        // mirroring run(), which ignores them when faults is set.
        if (r.faults) {
            key += "map|";
            key += faultMapKey(*r.faults);
            return key;
        }
        key += "rng|";
        field(key, r.link_fault_rate);
        field(key, r.core_fault_rate);
        key += std::to_string(r.fault_seed);
        key += '|';
        return key;
    }

    std::string operator()(const MultiWaferRequest &r) const
    {
        std::string key = "multiwafer|" + modelKey(r.model) +
                          podKey(r.pod, r.options) +
                          optionsKey(r.options) + specKey(r.intra_spec);
        field(key, r.pp);
        field(key, r.microbatches);
        return key;
    }

    std::string operator()(const CacheStatsRequest &) const
    {
        return "cache-stats|";
    }

    std::string operator()(const ScenarioRequest &r) const
    {
        std::string key = "scenario|" + modelKey(r.model) +
                          waferKey(r.wafer) + optionsKey(r.options);
        field(key, r.warm_seed);
        field(key, static_cast<int>(r.events.size()));
        for (const scenario::Event &event : r.events) {
            key += scenario::eventKindName(event.kind);
            key += '|';
            field(key, event.at_s);
            field(key, event.link_fault_rate);
            field(key, event.core_fault_rate);
            key += std::to_string(event.fault_seed);  // uint64
            key += '|';
            field(key, static_cast<int>(event.kill_dies.size()));
            for (int die : event.kill_dies)
                field(key, die);
            if (event.kind == scenario::Event::Kind::ModelSwitch)
                key += modelKey(event.model);
        }
        return key;
    }
};

}  // namespace

std::string
requestKey(const Request &request)
{
    return std::visit(RequestKeyVisitor{}, request);
}

}  // namespace temp::api
