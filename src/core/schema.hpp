/**
 * @file
 * The field tables: one row list per request struct (FrameworkOptions,
 * hw::WaferConfig, model::ModelConfig, parallel::ParallelSpec and the
 * pod fabric of hw::MultiWaferConfig). Every consumer of a struct's
 * vocabulary iterates over its rows instead of keeping its own list:
 * the config and wire parsers (core/config_io), the range checks
 * (fieldError, here), the wire serializer (api/serialize) and the
 * canonical keys (api/request_key). Adding, removing or renaming a
 * field is one row.
 *
 * A row's value kind (the member type its accessor points to) says how
 * each consumer parses, renders and keys it. Rows are in wire order: a
 * request document and a canonical key list a struct's fields in table
 * order. What no single row can say stays by hand next to the table's
 * consumers: the config's HBM per-stack products, the wafer grid caps,
 * `hidden % heads`, the model's `base`, and the pod's nested wafer.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "core/framework.hpp"

namespace temp::core {

/**
 * Which consumers see an options key. Each scope is a subset of the
 * next: a pod key is also an identity key, every identity key is on the
 * wire, and the config parser accepts every key. Rows of the other
 * tables are Identity: on the wire and in the struct's key.
 */
enum class OptionScope
{
    /// Identity keys that are all a simulator consumes (policy,
    /// training.*); podKey appends them.
    Pod,
    /// Part of optionsKey, so of every framework cache key, coalescing
    /// key and snapshot block key.
    Identity,
    /// On the wire but not in optionsKey: the service-level cache
    /// budgets re-tune the service maps without changing what a
    /// framework computes.
    Wire,
    /// Config files only (persist.*, serve.*): process-local policy
    /// that neither travels with a request nor fragments the caches.
    Local,
};

/// Which document names a row: a request (wire keys, SI units) or a
/// .conf file (config keys, in the config's units).
enum class Source
{
    Wire,
    Config,
};

/// Lower bound of a double that must be strictly positive: the smallest
/// positive double, so `v >= min` reads `v > 0`.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/**
 * Hostile-input caps. A request sizes real allocations and topology
 * builds from these (FaultMap's per-die vector, the rows x cols mesh, a
 * pod's wafers), so each is bounded far above any plausible system: the
 * paper's wafer is 4x8 dies, pods a handful of wafers.
 */
inline constexpr int kMaxWaferDies = 1 << 16;
inline constexpr int kMaxWaferCount = 1024;

/// One field of struct T.
template <typename T>
struct FieldRow
{
    /**
     * Typed accessor to the member a key sets. The member type is the
     * row's value kind, and each consumer branches on it:
     * MappingEngineKind (smap | gmap | tcme), SearchEngineKind (none |
     * genetic | beamtabu), bool (0/1/true/false), int (an integer in
     * [min, max]), long (a budget: a whole number >= 0, 0 = unbounded),
     * double (a finite number in [min, max]), uint64 (a seed, parsed
     * from its decimal lexeme) and text.
     */
    using Field = std::variant<
        tcme::MappingEngineKind *(*)(T &), solver::SearchEngineKind *(*)(T &),
        bool *(*)(T &), int *(*)(T &), long *(*)(T &), double *(*)(T &),
        std::uint64_t *(*)(T &), std::string *(*)(T &)>;

    std::string_view key;
    OptionScope scope = OptionScope::Identity;
    Field field;
    const char *doc;
    /// Accepted range of an int or double member.
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    /// The .conf key where the config vocabulary differs from the wire
    /// ("" = the wire key), and the factor from its unit to the wire's.
    std::string_view config_key = {};
    double config_scale = 1.0;
    /// False for wire-only rows of the tables a .conf file builds
    /// (options, wafer, model): no .conf key sets them.
    bool in_config = true;

    /// Whether a document from `source` may set this row.
    bool readBy(Source source) const
    {
        return source == Source::Wire ? scope != OptionScope::Local
                                      : in_config;
    }

    /// The key a document from `source` names this row by.
    std::string_view keyIn(Source source) const
    {
        return source == Source::Config && !config_key.empty() ? config_key
                                                               : key;
    }

    /// How a message names this row: "<what>.<key>" in a request,
    /// "key '<config key>'" in a .conf file.
    std::string name(Source source, std::string_view what) const
    {
        if (source == Source::Config)
            return "key '" + std::string(keyIn(source)) + "'";
        return std::string(what) + "." + std::string(key);
    }

    /// Calls fn(member) with the member this row names, typed by the
    /// row's kind: consumers overload on the member type.
    template <typename Fn>
    void visit(T &value, Fn &&fn) const
    {
        std::visit([&](auto get) { fn(*get(value)); }, field);
    }
    template <typename Fn>
    void visit(const T &value, Fn &&fn) const
    {
        visit(const_cast<T &>(value),
              [&](const auto &member) { fn(member); });
    }
};

using OptionRow = FieldRow<FrameworkOptions>;

/// Each struct's rows, in wire order.
template <typename T>
std::span<const FieldRow<T>> fieldRows();
template <>
std::span<const OptionRow> fieldRows();
template <>
std::span<const FieldRow<hw::WaferConfig>> fieldRows();
template <>
std::span<const FieldRow<model::ModelConfig>> fieldRows();
template <>
std::span<const FieldRow<parallel::ParallelSpec>> fieldRows();
template <>
std::span<const FieldRow<hw::MultiWaferConfig>> fieldRows();

/// What a member of type V (int, long or double) accepts, for messages
/// ("an integer in [1, 1024]", "a finite number > 0"), with bounds
/// divided by `scale` (config units).
template <typename V>
std::string rangeText(double min, double max, double scale = 1.0);

/// "" when `v`, a member of type V (int, long or double), lies in
/// [min, max]; else the message naming it `name`, with bounds and value
/// divided by `scale` (config units).
template <typename V>
std::string rangeError(double v, double min, double max, double scale,
                       const std::string &name);

/**
 * The first member of `value` out of its row's range, named as
 * `source` does, or "". fieldError runs it over a table's rows; the
 * request parser runs it over its own small tables (the fault envelope,
 * scenario events), so every range message reads alike.
 */
template <typename T>
std::string
rowsError(const T &value,
          std::type_identity_t<std::span<const FieldRow<T>>> rows,
          Source source, std::string_view what)
{
    for (const FieldRow<T> &row : rows) {
        std::string error;
        row.visit(value, [&](const auto &member) {
            using V = std::decay_t<decltype(member)>;
            if constexpr (std::is_same_v<V, int> || std::is_same_v<V, long> ||
                          std::is_same_v<V, double>)
                error = rangeError<V>(
                    static_cast<double>(member), row.min, row.max,
                    source == Source::Config ? row.config_scale : 1,
                    row.name(source, what));
        });
        if (!error.empty())
            return error;
    }
    return "";
}

/**
 * The one check per table: every row in range plus the struct's
 * cross-field rules (the wafer's grid caps first, a model's
 * `hidden % heads`, a pod's nested wafer). Returns the first violation,
 * naming its key as `source` does, or "" when `value` is valid. Both
 * parsers call it after reading a document, and TempService before
 * running a request built in-process, so a hostile value is an error,
 * never a panic deep in the cost model.
 */
template <typename T>
std::string fieldError(const T &value, Source source, std::string_view what);

/// @{ Mapping-engine names: smap | gmap | tcme.
const char *policyName(tcme::MappingEngineKind kind);
bool policyFromName(std::string_view name, tcme::MappingEngineKind *kind);
/// @}

}  // namespace temp::core
