/**
 * @file
 * JSON rendering of the service surface, following the BENCH_JSON
 * convention the benches already emit: flat snake_case keys, seconds
 * and bytes as raw doubles, one document per render. Field order is
 * fixed (insertion-ordered builder), so equal values serialize to
 * byte-identical documents — trajectories and tests can diff them.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/requests.hpp"

namespace temp::api {

/// Escapes a string for embedding inside a JSON string literal.
std::string jsonEscape(std::string_view s);

/// Renders a double as a JSON number; non-finite values become null
/// (JSON has no inf/nan).
std::string jsonNumber(double v);

/// Round-trip-exact variant (%.17g): a double rendered with this and
/// parsed back compares bit-equal. Request serialization uses it so
/// serialize -> parse -> requestKey is an identity.
std::string jsonNumberExact(double v);

/// Minimal insertion-ordered JSON object builder.
class JsonObject
{
  public:
    JsonObject &add(std::string_view key, const std::string &value);
    JsonObject &add(std::string_view key, const char *value);
    JsonObject &add(std::string_view key, double value);
    JsonObject &add(std::string_view key, long value);
    JsonObject &add(std::string_view key, int value);
    JsonObject &add(std::string_view key, bool value);
    /// Embeds pre-rendered JSON (an object or array) verbatim.
    JsonObject &addRaw(std::string_view key, const std::string &json);

    /// The rendered document, e.g. {"a":1,"b":"x"}.
    std::string str() const;

  private:
    std::string body_;
};

/**
 * The one render loop of the wire format: adds every row of T's field
 * table (core/schema.hpp) that travels on the wire, in table order (a
 * pod's nested wafer first). Doubles render with jsonNumberExact, so
 * the object parses back bit-identical.
 */
template <typename T>
void addFields(JsonObject &json, const T &value);

/// The wire object of a table-described struct: {addFields}.
template <typename T>
std::string
fieldsJson(const T &value)
{
    JsonObject json;
    addFields(json, value);
    return json.str();
}

/// Renders a JSON array from pre-rendered element documents.
std::string jsonArray(const std::vector<std::string> &elements);

/// @{ Result-type renderers.
std::string toJson(const sim::PerfReport &report);
std::string toJson(const parallel::ParallelSpec &spec);
std::string toJson(const baselines::TunedBaseline &baseline);
/// @param op_names When non-empty, per-op specs are emitted as
///        {"op","spec"} pairs; otherwise as bare spec strings.
std::string toJson(const solver::SolverResult &result,
                   const std::vector<std::string> &op_names = {});
std::string toJson(const eval::EvalStats &stats);
std::string toJson(const eval::StepStats &stats);
std::string toJson(const common::CacheStats &stats);
std::string toJson(const Response &response);
/// @}

}  // namespace temp::api
