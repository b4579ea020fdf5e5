#include "api/request_key.hpp"

#include <charconv>
#include <concepts>

#include "core/schema.hpp"

namespace temp::api {

namespace {

/// Appends one canonicalized field to a cache key. %.17g round-trips
/// doubles, so two configs share a key iff they are value-identical;
/// integers (int, long, uint64) are exact, with no double rounding.
void
field(std::string &key, double v)
{
    // to_chars at precision 17 writes exactly what printf's %.17g does,
    // without the locale and format-string work.
    char buf[40];
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 17)
                        .ptr);
    key += '|';
}

/// Integers go through a stack buffer: a framework key is built on
/// every request, so no field allocates.
template <std::integral N>
void
field(std::string &key, N v)
{
    char buf[24];
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    key += '|';
}

void
field(std::string &key, bool v)
{
    key += v ? "1|" : "0|";
}

/// Enums (mapping and search engines) key on their value.
template <typename E>
    requires std::is_enum_v<E>
void
field(std::string &key, E v)
{
    field(key, static_cast<int>(v));
}

/// Free-form strings (model names, tenant-adjacent data) are
/// length-prefixed so concatenated keys cannot alias across field
/// boundaries no matter what bytes the string holds.
void
field(std::string &key, const std::string &v)
{
    char buf[24];
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), v.size()).ptr);
    key += ':';
    key += v;
    key += '|';
}

}  // namespace

template <typename T>
void
appendKey(std::string &key, const T &value, core::OptionScope widest)
{
    if constexpr (std::is_same_v<T, hw::MultiWaferConfig>)
        appendKey(key, value.wafer);
    for (const core::FieldRow<T> &row : core::fieldRows<T>()) {
        if (row.scope > widest)
            continue;
        row.visit(value, [&](const auto &member) { field(key, member); });
    }
}

template void appendKey(std::string &, const core::FrameworkOptions &,
                        core::OptionScope);
template void appendKey(std::string &, const hw::WaferConfig &,
                        core::OptionScope);
template void appendKey(std::string &, const model::ModelConfig &,
                        core::OptionScope);
template void appendKey(std::string &, const parallel::ParallelSpec &,
                        core::OptionScope);
template void appendKey(std::string &, const hw::MultiWaferConfig &,
                        core::OptionScope);

std::string
frameworkKey(const hw::WaferConfig &wafer,
             const core::FrameworkOptions &options)
{
    std::string key;
    appendKey(key, wafer);
    appendKey(key, options);
    return key;
}

std::string
optionsKey(const core::FrameworkOptions &o)
{
    std::string key;
    appendKey(key, o);
    return key;
}

std::string
podKey(const hw::MultiWaferConfig &pod, const core::FrameworkOptions &o)
{
    std::string key;
    appendKey(key, pod);
    appendKey(key, o, core::OptionScope::Pod);
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

/// The tag, then each part's key, appended in place.
template <typename... Parts>
std::string
keyOf(const char *tag, const Parts &...parts)
{
    std::string key = tag;
    (appendKey(key, parts), ...);
    return key;
}

struct RequestKeyVisitor
{
    std::string operator()(const OptimizeRequest &r) const
    {
        return keyOf("optimize|", r.model, r.wafer, r.options);
    }

    std::string operator()(const BaselineRequest &r) const
    {
        std::string key = keyOf("baseline|", r.model, r.wafer, r.options);
        field(key, static_cast<int>(r.kind));
        field(key, static_cast<int>(r.engine));
        return key;
    }

    std::string operator()(const StrategyRequest &r) const
    {
        return keyOf("strategy|", r.model, r.wafer, r.options, r.spec);
    }

    std::string operator()(const FaultRequest &r) const
    {
        std::string key = keyOf("fault|", r.model, r.wafer, r.options);
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
        field(key, r.fault_seed);
        return key;
    }

    std::string operator()(const MultiWaferRequest &r) const
    {
        // The pod's key carries the simulator's options slice, then the
        // framework's full options follow.
        std::string key = keyOf("multiwafer|", r.model, r.pod);
        appendKey(key, r.options, core::OptionScope::Pod);
        appendKey(key, r.options);
        appendKey(key, r.intra_spec);
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
        std::string key = keyOf("scenario|", r.model, r.wafer, r.options);
        field(key, r.warm_seed);
        field(key, static_cast<int>(r.events.size()));
        for (const scenario::Event &event : r.events) {
            key += scenario::eventKindName(event.kind);
            key += '|';
            field(key, event.at_s);
            field(key, event.link_fault_rate);
            field(key, event.core_fault_rate);
            field(key, event.fault_seed);
            field(key, static_cast<int>(event.kill_dies.size()));
            for (int die : event.kill_dies)
                field(key, die);
            if (event.kind == scenario::Event::Kind::ModelSwitch)
                appendKey(key, event.model);
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
