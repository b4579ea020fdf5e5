#include "core/config_io.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace temp::core {

namespace {

const std::string &
prefix(Source source)
{
    static const std::string wire = "request: ", config = "config: ";
    return source == Source::Wire ? wire : config;
}

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    const auto end = s.find_last_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    return s.substr(begin, end - begin + 1);
}

/// strtod over the whole of `text`: the bits the JSON parser reads
/// from the same lexeme. Overflow reads as inf, which fieldError
/// rejects. False when `text` is not a number.
bool
toNumber(const std::string &text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size();
}

/**
 * The one parse switch: sets `member`, the field `row` names, from
 * `text`, by the member's type. An int rejects a fraction or a value
 * past the int range rather than truncating it; a long budget rejects
 * a negative value rather than wrapping it; a uint64 seed parses its
 * raw decimal lexeme, which a double would corrupt above 2^53. Ranges
 * are fieldError's. Messages name the key as `source` does, and are
 * built only on failure: every request reads every field through here.
 */
template <typename T, typename V>
void
read(const FieldRow<T> &row, V &member, const std::string &text,
     Source source, std::string_view what)
{
    const auto reject = [&](const std::string &why) {
        throw ConfigError(prefix(source) + row.name(source, what) + " " +
                          why);
    };
    double v = 0;
    if constexpr (std::is_same_v<V, int> || std::is_same_v<V, long> ||
                  std::is_same_v<V, double>)
        if (!toNumber(text, &v))
            reject("has non-numeric value '" + text + "'");
    if constexpr (std::is_same_v<V, bool>) {
        if (text != "true" && text != "1" && text != "false" && text != "0")
            reject("has non-boolean value '" + text +
                   "' (use 0/1/true/false)");
        member = text == "true" || text == "1";
    } else if constexpr (std::is_same_v<V, int>) {
        if (v != std::floor(v) || v < INT_MIN || v > INT_MAX)
            reject("must be " + rangeText<int>(row.min, row.max) +
                   ", got '" + text + "'");
        member = static_cast<int>(v);
    } else if constexpr (std::is_same_v<V, long>) {
        if (v != std::floor(v) || v < 0 || v >= 0x1p63)
            reject("must be " + rangeText<long>(0, 0) + ", got '" + text +
                   "'");
        member = static_cast<long>(v);
    } else if constexpr (std::is_same_v<V, double>) {
        member = source == Source::Config ? v * row.config_scale : v;
    } else if constexpr (std::is_same_v<V, std::uint64_t>) {
        if (!parseSeed(text, &member))
            reject("must be a non-negative integer below 2^64, got '" +
                   text + "'");
    } else if constexpr (std::is_same_v<V, std::string>) {
        member = text;
    } else if constexpr (std::is_same_v<V, tcme::MappingEngineKind>) {
        if (!policyFromName(text, &member))
            reject("has unknown engine '" + text + "' (use smap/gmap/tcme)");
    } else {
        if (!solver::searchEngineFromName(text, &member))
            reject("has unknown search engine '" + text +
                   "' (use none/genetic/beamtabu)");
    }
}

/// Runs a throwing builder, converting ConfigError to fatal() — the
/// CLI-facing behavior of the classic entry points.
template <typename Fn>
auto
fatalOnError(Fn &&fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const ConfigError &error) {
        fatal("%s", error.what());
    }
}

}  // namespace

template <typename T>
void
readField(const std::string &key, const std::string &text, Source source,
          std::string_view what, T &out)
{
    for (const FieldRow<T> &row : fieldRows<T>())
        if (row.readBy(source) && row.keyIn(source) == key) {
            row.visit(out, [&](auto &member) {
                read(row, member, text, source, what);
            });
            return;
        }
    throw ConfigError(prefix(source) + "unknown " + std::string(what) +
                      " key '" + key + "'");
}

template void readField(const std::string &, const std::string &, Source,
                        std::string_view, FrameworkOptions &);
template void readField(const std::string &, const std::string &, Source,
                        std::string_view, hw::WaferConfig &);
template void readField(const std::string &, const std::string &, Source,
                        std::string_view, model::ModelConfig &);
template void readField(const std::string &, const std::string &, Source,
                        std::string_view, parallel::ParallelSpec &);
template void readField(const std::string &, const std::string &, Source,
                        std::string_view, hw::MultiWaferConfig &);

bool
parseSeed(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.size() > 20)
        return false;
    for (const char c : text)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    errno = 0;
    *out = std::strtoull(text.c_str(), nullptr, 10);
    return errno != ERANGE;
}

void
throwIfInvalid(const std::string &error, Source source)
{
    if (!error.empty())
        throw ConfigError(prefix(source) + error);
}

ConfigMap
parseConfigTextOrThrow(const std::string &text)
{
    ConfigMap config;
    std::istringstream stream(text);
    std::string line;
    int line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        const std::string where = "config line " + std::to_string(line_no);
        if (eq == std::string::npos)
            throw ConfigError(where + ": expected 'key = value', got '" +
                              line + "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            throw ConfigError(where + ": empty key or value");
        config[key] = value;
    }
    return config;
}

ConfigMap
parseConfigText(const std::string &text)
{
    return fatalOnError([&] { return parseConfigTextOrThrow(text); });
}

ConfigMap
loadConfigFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("config: cannot open '%s'", path.c_str());
    std::stringstream buffer;
    buffer << file.rdbuf();
    return parseConfigText(buffer.str());
}

hw::WaferConfig
waferFromConfigOrThrow(const ConfigMap &config)
{
    // By hand: a .conf file rates HBM per stack, the wafer per die.
    const auto perStack = [&](const std::string &key, double fallback) {
        const auto it = config.find(key);
        if (it != config.end() && !toNumber(it->second, &fallback))
            throw ConfigError("config: key '" + key +
                              "' has non-numeric value '" + it->second + "'");
        return fallback;
    };
    const double hbm_gb = perStack("hbm_gb_per_stack", 72.0);
    const double hbm_tbps = perStack("hbm_tbps_per_stack", 1.0);
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    for (const auto &[key, value] : config)
        if (key != "hbm_gb_per_stack" && key != "hbm_tbps_per_stack")
            readField(key, value, Source::Config, "wafer", wafer);
    const double stacks = wafer.hbm.stacks_per_die;
    wafer.hbm.capacity_bytes = stacks * gigabytes(hbm_gb);
    wafer.hbm.bandwidth_bytes_per_s = stacks * tbPerSec(hbm_tbps);
    throwIfInvalid(fieldError(wafer, Source::Config, "wafer"),
                   Source::Config);
    return wafer;
}

hw::WaferConfig
waferFromConfig(const ConfigMap &config)
{
    return fatalOnError([&] { return waferFromConfigOrThrow(config); });
}

model::ModelConfig
modelFromConfigOrThrow(const ConfigMap &config, Source source,
                       std::string_view what)
{
    model::ModelConfig model;
    if (const auto base = config.find("base"); base != config.end()) {
        if (!model::tryModelByName(base->second, &model))
            throw ConfigError(prefix(source) + "unknown base model '" +
                              base->second + "'");
    } else if (!config.contains("name")) {
        throw ConfigError(prefix(source) + std::string(what) +
                          " needs 'name' or 'base'");
    }
    for (const auto &[key, value] : config)
        if (key != "base")
            readField(key, value, source, what, model);
    throwIfInvalid(fieldError(model, source, what), source);
    return model;
}

model::ModelConfig
modelFromConfig(const ConfigMap &config)
{
    return fatalOnError([&] { return modelFromConfigOrThrow(config); });
}

FrameworkOptions
frameworkOptionsFromConfigOrThrow(const ConfigMap &config, Source source)
{
    FrameworkOptions options;
    for (const auto &[key, value] : config)
        readField(key, value, source, "options", options);
    throwIfInvalid(fieldError(options, source, "options"), source);
    return options;
}

FrameworkOptions
frameworkOptionsFromConfig(const ConfigMap &config)
{
    return fatalOnError(
        [&] { return frameworkOptionsFromConfigOrThrow(config); });
}

bool
isConfigFile(const std::string &arg)
{
    return arg.size() > 5 && arg.substr(arg.size() - 5) == ".conf";
}

}  // namespace temp::core
