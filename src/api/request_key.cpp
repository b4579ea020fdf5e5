#include "api/request_key.hpp"

#include <charconv>
#include <concepts>

#include "api/request_io.hpp"
#include "api/serialize.hpp"
#include "core/schema.hpp"

namespace temp::api {

namespace {

/// Appends one canonicalized field to a cache key. %.17g round-trips
/// doubles, so two configs share a key iff they are value-identical;
/// integers (int, long, uint64) are exact, with no double rounding.
void
field(std::string &key, double v)
{
    appendExact(key, v);
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

std::string
requestKey(const Request &request)
{
    return toJson(request);
}

}  // namespace temp::api
