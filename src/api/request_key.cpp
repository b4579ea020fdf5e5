#include "api/request_key.hpp"

#include <cstdio>

#include "core/options_schema.hpp"

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

namespace {

/// The options rows of scope `widest` or narrower, in table order.
/// uint64 and long values are rendered directly, so no double rounding
/// can alias two keys.
std::string
optionRowsKey(const core::FrameworkOptions &o, core::OptionScope widest)
{
    using core::OptionKind;
    std::string key;
    for (const core::OptionRow &row : core::optionRows()) {
        if (row.scope > widest)
            continue;
        switch (row.kind()) {
        case OptionKind::Policy:
            field(key, static_cast<int>(row.at<OptionKind::Policy>(o)));
            break;
        case OptionKind::Engine:
            field(key, static_cast<int>(row.at<OptionKind::Engine>(o)));
            break;
        case OptionKind::Bool:
            field(key, row.at<OptionKind::Bool>(o));
            break;
        case OptionKind::Int:
            field(key, row.at<OptionKind::Int>(o));
            break;
        case OptionKind::Count:
            key += std::to_string(row.at<OptionKind::Count>(o));
            key += '|';
            break;
        case OptionKind::Double:
            field(key, row.at<OptionKind::Double>(o));
            break;
        case OptionKind::Seed:
            key += std::to_string(row.at<OptionKind::Seed>(o));
            key += '|';
            break;
        case OptionKind::Text:
            field(key, row.at<OptionKind::Text>(o));
            break;
        }
    }
    return key;
}

}  // namespace

std::string
policyTrainingKey(const core::FrameworkOptions &o)
{
    return optionRowsKey(o, core::OptionScope::Pod);
}

std::string
optionsKey(const core::FrameworkOptions &o)
{
    return optionRowsKey(o, core::OptionScope::Identity);
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
