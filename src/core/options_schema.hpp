/**
 * @file
 * The one table of FrameworkOptions keys. Every consumer of the option
 * vocabulary iterates over these rows instead of keeping its own list:
 * the config parser and the wire parser (core/config_io), the wire
 * serializer (api/request_io) and the canonical keys optionsKey and
 * policyTrainingKey (api/request_key). Adding, removing or renaming a
 * key is one row here.
 *
 * A row's scope says which of those consumers see it; a row's value
 * kind (the alternative its accessor holds) says how each consumer
 * parses, renders and keys it. Rows are in wire order: the request
 * JSON lists the keys in table order.
 */
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "core/framework.hpp"

namespace temp::core {

/**
 * Which consumers see a key. Each scope is a subset of the next: a pod
 * key is also an identity key, every identity key is on the wire, and
 * the config parser accepts every key.
 */
enum class OptionScope
{
    /// Identity keys that are all a simulator consumes (policy,
    /// training.*); pods key on them through policyTrainingKey.
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

/// The value kinds, in the order of OptionRow::Field's alternatives.
enum class OptionKind
{
    Policy,  ///< mapping engine: smap | gmap | tcme
    Engine,  ///< level-2 search engine: none | genetic | beamtabu
    Bool,    ///< 0/1/true/false
    Int,     ///< an integer within the row's [min, max]
    Count,   ///< a whole number >= 0 (budgets; 0 = unbounded)
    Double,
    Seed,    ///< uint64, parsed from its decimal lexeme
    Text,
};

/// One options key.
struct OptionRow
{
    /// Typed accessor to the member a key sets; the alternative held
    /// is the row's value kind.
    using Field = std::variant<
        tcme::MappingEngineKind *(*)(FrameworkOptions &),
        solver::SearchEngineKind *(*)(FrameworkOptions &),
        bool *(*)(FrameworkOptions &), int *(*)(FrameworkOptions &),
        long *(*)(FrameworkOptions &), double *(*)(FrameworkOptions &),
        std::uint64_t *(*)(FrameworkOptions &),
        std::string *(*)(FrameworkOptions &)>;

    std::string_view key;
    OptionScope scope;
    Field field;
    const char *doc;
    /// Accepted range of an Int row.
    int min = INT_MIN;
    int max = INT_MAX;

    OptionKind kind() const { return OptionKind(field.index()); }
    static_assert(std::variant_size_v<Field> ==
                  std::size_t(OptionKind::Text) + 1);

    template <OptionKind K>
    auto &at(FrameworkOptions &options) const
    {
        return *std::get<std::size_t(K)>(field)(options);
    }

    /// Read access for the serializer and the keys (the accessor only
    /// forms a pointer; nothing is written through it).
    template <OptionKind K>
    const auto &at(const FrameworkOptions &options) const
    {
        return at<K>(const_cast<FrameworkOptions &>(options));
    }
};

/// Every key, in wire order.
std::span<const OptionRow> optionRows();

/// The row named `key`, or nullptr.
const OptionRow *findOptionRow(std::string_view key);

}  // namespace temp::core
