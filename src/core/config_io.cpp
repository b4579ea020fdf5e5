#include "core/config_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace temp::core {

namespace {

/// printf-style ConfigError: the throwing twin of fatal(), so the
/// OrThrow builders keep byte-identical messages.
[[noreturn]] void
cfgFail(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void
cfgFail(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    throw ConfigError(buf);
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

double
toNumber(const std::string &key, const std::string &value)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(value, &used);
        if (used != value.size())
            throw std::invalid_argument(value);
        return v;
    } catch (const ConfigError &) {
        throw;
    } catch (const std::exception &) {
        cfgFail("config: key '%s' has non-numeric value '%s'",
                key.c_str(), value.c_str());
    }
}

bool
toBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    cfgFail("config: key '%s' has non-boolean value '%s' "
            "(use 0/1/true/false)",
            key.c_str(), value.c_str());
}

/// An integer in [min, max]. A fraction or an out-of-range value is
/// rejected rather than truncated (or, past the int range, converted
/// with undefined behaviour).
int
toInt(const std::string &key, const std::string &value, int min, int max)
{
    const double v = toNumber(key, value);
    if (v != std::floor(v) || v < min || v > max)
        cfgFail("config: key '%s' must be an integer in [%d, %d], got "
                "'%s'",
                key.c_str(), min, max, value.c_str());
    return static_cast<int>(v);
}

/// A non-negative whole-number config value (cache budgets). Negative
/// values are rejected rather than wrapping into "bounded by 2^64".
long
toCount(const std::string &key, const std::string &value)
{
    const double v = toNumber(key, value);
    if (v != std::floor(v) || v < 0 || v >= 0x1p63)
        cfgFail("config: key '%s' must be a whole number >= 0 "
                "(0 = unbounded), got '%s'",
                key.c_str(), value.c_str());
    return static_cast<long>(v);
}

/// A uint64 seed. Parsed from the raw decimal lexeme — routing it
/// through toNumber's double would silently corrupt seeds above 2^53.
std::uint64_t
toSeed(const std::string &key, const std::string &value)
{
    if (value.empty() || value.size() > 20)
        cfgFail("config: key '%s' is out of uint64 range ('%s')",
                key.c_str(), value.c_str());
    for (const char c : value)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            cfgFail("config: key '%s' must be a non-negative "
                    "integer, got '%s'",
                    key.c_str(), value.c_str());
    return std::strtoull(value.c_str(), nullptr, 10);
}

tcme::MappingEngineKind
toEngine(const std::string &key, const std::string &value)
{
    if (value == "smap")
        return tcme::MappingEngineKind::SMap;
    if (value == "gmap")
        return tcme::MappingEngineKind::GMap;
    if (value == "tcme")
        return tcme::MappingEngineKind::TCME;
    cfgFail("config: key '%s' has unknown engine '%s' "
            "(use smap/gmap/tcme)",
            key.c_str(), value.c_str());
}

solver::SearchEngineKind
toSearchEngine(const std::string &key, const std::string &value)
{
    solver::SearchEngineKind kind;
    if (!solver::searchEngineFromName(value, &kind))
        cfgFail("config: key '%s' has unknown search engine '%s' "
                "(use none/genetic/beamtabu)",
                key.c_str(), value.c_str());
    return kind;
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
        if (eq == std::string::npos)
            cfgFail("config line %d: expected 'key = value', got '%s'",
                    line_no, line.c_str());
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            cfgFail("config line %d: empty key or value", line_no);
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
    hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    double hbm_stacks = wafer.hbm.stacks_per_die;
    double hbm_gb = 72.0;
    double hbm_tbps = 1.0;

    for (const auto &[key, value] : config) {
        const double v = toNumber(key, value);
        if (key == "rows") {
            wafer.rows = static_cast<int>(v);
        } else if (key == "cols") {
            wafer.cols = static_cast<int>(v);
        } else if (key == "peak_tflops") {
            wafer.die.peak_flops = tflops(v);
        } else if (key == "sram_mb") {
            wafer.die.sram_bytes = megabytes(v);
        } else if (key == "flops_per_watt_t") {
            wafer.die.flops_per_watt = tflops(v);
        } else if (key == "d2d_tbps") {
            wafer.d2d.bandwidth_bytes_per_s = tbPerSec(v);
        } else if (key == "d2d_latency_ns") {
            wafer.d2d.latency_s = v * kNano;
        } else if (key == "d2d_pj_per_bit") {
            wafer.d2d.energy_pj_per_bit = v;
        } else if (key == "hbm_stacks") {
            hbm_stacks = v;
        } else if (key == "hbm_gb_per_stack") {
            hbm_gb = v;
        } else if (key == "hbm_tbps_per_stack") {
            hbm_tbps = v;
        } else if (key == "hbm_latency_ns") {
            wafer.hbm.latency_s = v * kNano;
        } else if (key == "hbm_pj_per_bit") {
            wafer.hbm.energy_pj_per_bit = v;
        } else {
            cfgFail("config: unknown wafer key '%s'", key.c_str());
        }
    }
    wafer.hbm.stacks_per_die = static_cast<int>(hbm_stacks);
    wafer.hbm.capacity_bytes = hbm_stacks * gigabytes(hbm_gb);
    wafer.hbm.bandwidth_bytes_per_s = hbm_stacks * tbPerSec(hbm_tbps);
    if (wafer.rows < 1 || wafer.cols < 1)
        cfgFail("config: invalid wafer grid %dx%d", wafer.rows,
                wafer.cols);
    return wafer;
}

hw::WaferConfig
waferFromConfig(const ConfigMap &config)
{
    return fatalOnError([&] { return waferFromConfigOrThrow(config); });
}

model::ModelConfig
modelFromConfigOrThrow(const ConfigMap &config)
{
    model::ModelConfig model;
    const auto base = config.find("base");
    const auto name = config.find("name");
    if (base != config.end()) {
        if (!model::tryModelByName(base->second, &model))
            cfgFail("config: unknown base model '%s'",
                    base->second.c_str());
    } else if (name == config.end()) {
        cfgFail("config: model needs 'name' or 'base'");
    }

    for (const auto &[key, value] : config) {
        if (key == "base")
            continue;
        if (key == "name") {
            model.name = value;
            continue;
        }
        const int v = static_cast<int>(toNumber(key, value));
        if (key == "heads")
            model.heads = v;
        else if (key == "batch")
            model.batch = v;
        else if (key == "hidden")
            model.hidden = v;
        else if (key == "layers")
            model.layers = v;
        else if (key == "seq")
            model.seq = v;
        else if (key == "ffn_mult")
            model.ffn_mult = v;
        else if (key == "vocab")
            model.vocab = v;
        else
            cfgFail("config: unknown model key '%s'", key.c_str());
    }
    if (model.heads < 1 || model.hidden < 1)
        cfgFail("config: heads and hidden must be positive");
    if (model.hidden % model.heads != 0)
        cfgFail("config: hidden (%d) must divide by heads (%d)",
                model.hidden, model.heads);
    return model;
}

model::ModelConfig
modelFromConfig(const ConfigMap &config)
{
    return fatalOnError([&] { return modelFromConfigOrThrow(config); });
}

FrameworkOptions
frameworkOptionsFromConfigOrThrow(const ConfigMap &config,
                                  OptionScope widest)
{
    FrameworkOptions options;
    for (const auto &[key, value] : config) {
        const OptionRow *row = findOptionRow(key);
        if (row == nullptr || row->scope > widest)
            cfgFail("config: unknown options key '%s'", key.c_str());
        switch (row->kind()) {
        case OptionKind::Policy:
            row->at<OptionKind::Policy>(options) = toEngine(key, value);
            break;
        case OptionKind::Engine:
            row->at<OptionKind::Engine>(options) =
                toSearchEngine(key, value);
            break;
        case OptionKind::Bool:
            row->at<OptionKind::Bool>(options) = toBool(key, value);
            break;
        case OptionKind::Int:
            row->at<OptionKind::Int>(options) =
                toInt(key, value, row->min, row->max);
            break;
        case OptionKind::Count:
            row->at<OptionKind::Count>(options) = toCount(key, value);
            break;
        case OptionKind::Double:
            row->at<OptionKind::Double>(options) = toNumber(key, value);
            break;
        case OptionKind::Seed:
            row->at<OptionKind::Seed>(options) = toSeed(key, value);
            break;
        case OptionKind::Text:
            row->at<OptionKind::Text>(options) = value;
            break;
        }
    }
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
