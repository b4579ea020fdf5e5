#include "api/request_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "api/serialize.hpp"
#include "common/json.hpp"
#include "core/config_io.hpp"

namespace temp::api {

namespace {

using common::JsonValue;

/// Internal control flow only; parseRequest converts it (and
/// core::ConfigError) to the (false, message) return contract.
struct ParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Hostile-input allocation caps. Server-originated requests size real
 * allocations and topology builds from these fields (FaultMap's
 * per-die vector, the rows x cols mesh), so each is bounded far above
 * any plausible wafer: the paper's system is 4x8 dies, pods a handful
 * of wafers. Without the caps a one-line request
 * ({"faults":{"die_count":2000000000}}) drives a multi-GB allocation
 * during parsing.
 */
constexpr long long kMaxWaferDies = 1 << 16;
constexpr int kMaxWaferCount = 1024;
/// A timeline is replayed sequentially, one solve per event; the cap
/// keeps a one-line hostile request from queueing unbounded work.
constexpr std::size_t kMaxScenarioEvents = 4096;

[[noreturn]] void
fail(const std::string &message)
{
    throw ParseError(message);
}

double
asNumber(const JsonValue &v, const std::string &what)
{
    if (!v.isNumber())
        fail("request: " + what + " must be a number, got " +
             v.typeName());
    return v.number;
}

int
asInt(const JsonValue &v, const std::string &what)
{
    const double n = asNumber(v, what);
    if (n != std::floor(n) || n < -2147483648.0 || n > 2147483647.0)
        fail("request: " + what + " must be an integer");
    return static_cast<int>(n);
}

bool
asBool(const JsonValue &v, const std::string &what)
{
    if (!v.isBool())
        fail("request: " + what + " must be a boolean, got " +
             v.typeName());
    return v.bool_value;
}

std::string
asString(const JsonValue &v, const std::string &what)
{
    if (!v.isString())
        fail("request: " + what + " must be a string, got " +
             v.typeName());
    return v.text;
}

const JsonValue &
asObject(const JsonValue &v, const std::string &what)
{
    if (!v.isObject())
        fail("request: " + what + " must be an object, got " +
             v.typeName());
    return v;
}

/**
 * Flattens a JSON object into the string-valued ConfigMap the
 * config_io builders consume. Numbers keep their raw lexeme (so a
 * %.17g-rendered double survives the trip exactly), booleans become
 * the canonical "1"/"0", strings pass through.
 */
core::ConfigMap
configMapOf(const JsonValue &v, const std::string &what)
{
    asObject(v, what);
    core::ConfigMap config;
    for (const auto &[key, value] : v.members) {
        switch (value.type) {
        case JsonValue::Type::Number: config[key] = value.text; break;
        case JsonValue::Type::Bool:
            config[key] = value.bool_value ? "1" : "0";
            break;
        case JsonValue::Type::String: config[key] = value.text; break;
        default:
            fail("request: " + what + " key '" + key +
                 "' must be a scalar, got " + value.typeName());
        }
    }
    return config;
}

/// The `options` member: the config vocabulary, minus the
/// process-local keys, which never travel with a request.
core::FrameworkOptions
optionsOf(const JsonValue &v)
{
    return core::frameworkOptionsFromConfigOrThrow(
        configMapOf(v, "options"), core::OptionScope::Wire);
}

/// Inverse of toJson(WaferConfig): raw-SI field names, unknown keys
/// rejected. Starts from the Table I default like the request structs.
hw::WaferConfig
waferOf(const JsonValue &v, const std::string &what)
{
    asObject(v, what);
    hw::WaferConfig w = hw::WaferConfig::paperDefault();
    for (const auto &[key, value] : v.members) {
        const std::string name = what + " key '" + key + "'";
        if (key == "rows")
            w.rows = asInt(value, name);
        else if (key == "cols")
            w.cols = asInt(value, name);
        else if (key == "die_area_mm2")
            w.die.area_mm2 = asNumber(value, name);
        else if (key == "die_sram_bytes")
            w.die.sram_bytes = asNumber(value, name);
        else if (key == "die_frequency_hz")
            w.die.frequency_hz = asNumber(value, name);
        else if (key == "die_peak_flops")
            w.die.peak_flops = asNumber(value, name);
        else if (key == "die_flops_per_watt")
            w.die.flops_per_watt = asNumber(value, name);
        else if (key == "hbm_area_mm2")
            w.hbm.area_mm2 = asNumber(value, name);
        else if (key == "hbm_stacks_per_die")
            w.hbm.stacks_per_die = asInt(value, name);
        else if (key == "hbm_capacity_bytes")
            w.hbm.capacity_bytes = asNumber(value, name);
        else if (key == "hbm_bandwidth_bytes_per_s")
            w.hbm.bandwidth_bytes_per_s = asNumber(value, name);
        else if (key == "hbm_latency_s")
            w.hbm.latency_s = asNumber(value, name);
        else if (key == "hbm_energy_pj_per_bit")
            w.hbm.energy_pj_per_bit = asNumber(value, name);
        else if (key == "d2d_bandwidth_bytes_per_s")
            w.d2d.bandwidth_bytes_per_s = asNumber(value, name);
        else if (key == "d2d_latency_s")
            w.d2d.latency_s = asNumber(value, name);
        else if (key == "d2d_energy_pj_per_bit")
            w.d2d.energy_pj_per_bit = asNumber(value, name);
        else if (key == "d2d_efficient_transfer_bytes")
            w.d2d.efficient_transfer_bytes = asNumber(value, name);
        else
            fail("request: unknown " + what + " key '" + key + "'");
    }
    if (w.rows < 1 || w.cols < 1)
        fail("request: " + what + " grid must be at least 1x1");
    if (static_cast<long long>(w.rows) * w.cols > kMaxWaferDies)
        fail("request: " + what + " grid exceeds " +
             std::to_string(kMaxWaferDies) + " dies");
    return w;
}

parallel::ParallelSpec
specOf(const JsonValue &v, const std::string &what)
{
    asObject(v, what);
    parallel::ParallelSpec spec;
    for (const auto &[key, value] : v.members) {
        const std::string name = what + " key '" + key + "'";
        if (key == "dp")
            spec.dp = asInt(value, name);
        else if (key == "fsdp")
            spec.fsdp = asInt(value, name);
        else if (key == "tp")
            spec.tp = asInt(value, name);
        else if (key == "sp")
            spec.sp = asInt(value, name);
        else if (key == "cp")
            spec.cp = asInt(value, name);
        else if (key == "tatp")
            spec.tatp = asInt(value, name);
        else if (key == "pp")
            spec.pp = asInt(value, name);
        else if (key == "coupled_sp")
            spec.coupled_sp = asBool(value, name);
        else
            fail("request: unknown " + what + " key '" + key + "'");
    }
    return spec;
}

hw::FaultMap
faultsOf(const JsonValue &v)
{
    asObject(v, "faults");
    int die_count = 0;
    const JsonValue *links = nullptr;
    const JsonValue *fractions = nullptr;
    for (const auto &[key, value] : v.members) {
        if (key == "die_count")
            die_count = asInt(value, "faults.die_count");
        else if (key == "failed_links")
            links = &value;
        else if (key == "core_fault_fractions")
            fractions = &value;
        else
            fail("request: unknown faults key '" + key + "'");
    }
    if (die_count < 0)
        fail("request: faults.die_count must be >= 0");
    if (die_count > kMaxWaferDies)
        fail("request: faults.die_count exceeds " +
             std::to_string(kMaxWaferDies) + " dies");
    hw::FaultMap faults(die_count, 0);
    if (links != nullptr) {
        if (!links->isArray())
            fail("request: faults.failed_links must be an array");
        for (const JsonValue &link : links->items) {
            const int id = asInt(link, "faults.failed_links entry");
            if (id < 0)
                fail("request: faults.failed_links entries must be "
                     ">= 0");
            faults.failLink(id);
        }
    }
    if (fractions != nullptr) {
        if (!fractions->isArray())
            fail("request: faults.core_fault_fractions must be an "
                 "array");
        if (static_cast<int>(fractions->items.size()) != die_count)
            fail("request: faults.core_fault_fractions must have "
                 "die_count entries");
        for (std::size_t i = 0; i < fractions->items.size(); ++i)
            faults.setCoreFaultFraction(
                static_cast<int>(i),
                asNumber(fractions->items[i],
                         "faults.core_fault_fractions entry"));
    }
    return faults;
}

hw::MultiWaferConfig
podOf(const JsonValue &v)
{
    asObject(v, "pod");
    hw::MultiWaferConfig pod;
    for (const auto &[key, value] : v.members) {
        const std::string name = "pod key '" + key + "'";
        if (key == "wafer")
            pod.wafer = waferOf(value, "pod.wafer");
        else if (key == "wafer_count")
            pod.wafer_count = asInt(value, name);
        else if (key == "inter_wafer_bandwidth_bytes_per_s")
            pod.inter_wafer_bandwidth_bytes_per_s =
                asNumber(value, name);
        else if (key == "inter_wafer_latency_s")
            pod.inter_wafer_latency_s = asNumber(value, name);
        else
            fail("request: unknown pod key '" + key + "'");
    }
    if (pod.wafer_count > kMaxWaferCount)
        fail("request: pod.wafer_count exceeds " +
             std::to_string(kMaxWaferCount));
    return pod;
}

/// Seeds are uint64 and must not round through double: the raw decimal
/// lexeme is re-parsed with strtoull.
std::uint64_t
seedOf(const JsonValue &v, const std::string &what)
{
    if (!v.isNumber())
        fail("request: " + what + " must be a number, got " +
             v.typeName());
    for (const char c : v.text)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fail("request: " + what +
                 " must be a non-negative integer, got '" + v.text +
                 "'");
    if (v.text.empty() || v.text.size() > 20)
        fail("request: " + what + " out of uint64 range");
    return std::strtoull(v.text.c_str(), nullptr, 10);
}

/**
 * Timeline events: an array of {"type": ..., payload} objects. Unknown
 * event types and unknown keys are rejected like every other request
 * field — a misspelled event must not silently replay as a no-op.
 */
std::vector<scenario::Event>
eventsOf(const JsonValue &v)
{
    if (!v.isArray())
        fail("request: events must be an array, got " +
             std::string(v.typeName()));
    if (v.items.size() > kMaxScenarioEvents)
        fail("request: events exceeds " +
             std::to_string(kMaxScenarioEvents) + " entries");
    std::vector<scenario::Event> events;
    events.reserve(v.items.size());
    for (std::size_t i = 0; i < v.items.size(); ++i) {
        const std::string what = "events[" + std::to_string(i) + "]";
        const JsonValue &entry = asObject(v.items[i], what);
        scenario::Event event;
        bool have_type = false;
        bool have_fault_payload = false;
        const JsonValue *model = nullptr;
        for (const auto &[key, value] : entry.members) {
            const std::string name = what + " key '" + key + "'";
            if (key == "type") {
                const std::string type = asString(value, name);
                if (!scenario::eventKindFromName(type, &event.kind))
                    fail("request: unknown " + what + " type '" +
                         type +
                         "' (use set_faults/clear_faults/"
                         "model_switch/reoptimize/wafer_join/"
                         "wafer_leave)");
                have_type = true;
            } else if (key == "at_s") {
                event.at_s = asNumber(value, name);
            } else if (key == "link_fault_rate") {
                event.link_fault_rate = asNumber(value, name);
                have_fault_payload = true;
            } else if (key == "core_fault_rate") {
                event.core_fault_rate = asNumber(value, name);
                have_fault_payload = true;
            } else if (key == "fault_seed") {
                event.fault_seed = seedOf(value, name);
                have_fault_payload = true;
            } else if (key == "kill_dies") {
                if (!value.isArray())
                    fail("request: " + name + " must be an array, "
                         "got " + std::string(value.typeName()));
                if (value.items.size() >
                    static_cast<std::size_t>(kMaxWaferDies))
                    fail("request: " + name + " exceeds " +
                         std::to_string(kMaxWaferDies) + " dies");
                for (std::size_t k = 0; k < value.items.size(); ++k) {
                    const int die = asInt(
                        value.items[k],
                        name + "[" + std::to_string(k) + "]");
                    if (die < 0)
                        fail("request: " + name + " entries must be "
                             ">= 0");
                    event.kill_dies.push_back(die);
                }
                have_fault_payload = true;
            } else if (key == "model") {
                model = &value;
            } else {
                fail("request: unknown " + what + " key '" + key +
                     "'");
            }
        }
        if (!have_type)
            fail("request: " + what + " is missing 'type'");
        // Payload fields are per-type: accepting a fault draw on a
        // reoptimize (or a model on a wafer_join) would parse into a
        // request whose canonical key and re-serialization disagree
        // with what the client sent.
        if (have_fault_payload &&
            event.kind != scenario::Event::Kind::SetFaults)
            fail("request: " + what +
                 " carries a fault payload but is not a set_faults");
        if (event.kind == scenario::Event::Kind::ModelSwitch) {
            if (model == nullptr)
                fail("request: " + what +
                     " (model_switch) requires 'model'");
            event.model = core::modelFromConfigOrThrow(
                configMapOf(*model, what + ".model"));
        } else if (model != nullptr) {
            fail("request: " + what +
                 " carries 'model' but is not a model_switch");
        }
        events.push_back(std::move(event));
    }
    return events;
}

baselines::BaselineKind
baselineKindOf(const JsonValue &v)
{
    const std::string name = asString(v, "baseline_kind");
    if (name == "mega")
        return baselines::BaselineKind::Megatron1;
    if (name == "mesp")
        return baselines::BaselineKind::MegatronSP;
    if (name == "fsdp")
        return baselines::BaselineKind::Fsdp;
    fail("request: unknown baseline_kind '" + name +
         "' (use mega/mesp/fsdp)");
}

tcme::MappingEngineKind
mappingEngineOf(const JsonValue &v)
{
    const std::string name = asString(v, "mapping_engine");
    if (name == "smap")
        return tcme::MappingEngineKind::SMap;
    if (name == "gmap")
        return tcme::MappingEngineKind::GMap;
    if (name == "tcme")
        return tcme::MappingEngineKind::TCME;
    fail("request: unknown mapping_engine '" + name +
         "' (use smap/gmap/tcme)");
}

const char *
policyName(tcme::MappingEngineKind kind)
{
    switch (kind) {
    case tcme::MappingEngineKind::SMap: return "smap";
    case tcme::MappingEngineKind::GMap: return "gmap";
    case tcme::MappingEngineKind::TCME: return "tcme";
    }
    return "?";
}

const char *
baselineWireName(baselines::BaselineKind kind)
{
    switch (kind) {
    case baselines::BaselineKind::Megatron1: return "mega";
    case baselines::BaselineKind::MegatronSP: return "mesp";
    case baselines::BaselineKind::Fsdp: return "fsdp";
    }
    return "?";
}

std::string
specJson(const parallel::ParallelSpec &spec)
{
    return JsonObject()
        .add("dp", spec.dp)
        .add("fsdp", spec.fsdp)
        .add("tp", spec.tp)
        .add("sp", spec.sp)
        .add("cp", spec.cp)
        .add("tatp", spec.tatp)
        .add("pp", spec.pp)
        .add("coupled_sp", spec.coupled_sp)
        .str();
}

/**
 * One envelope walker shared by every kind: the caller passes a
 * handler for its kind-specific keys (returning false = key unknown);
 * `kind` and `tenant` are always accepted, everything else unknown is
 * rejected with the kind in the message.
 */
template <typename Handler>
void
walkEnvelope(const JsonValue &root, const std::string &kind,
             std::string *tenant, Handler &&handler)
{
    for (const auto &[key, value] : root.members) {
        if (key == "kind")
            continue;
        if (key == "tenant") {
            *tenant = asString(value, "tenant");
            continue;
        }
        if (!handler(key, value))
            fail("request: unknown key '" + key + "' for kind '" +
                 kind + "'");
    }
}

model::ModelConfig
requireModel(const JsonValue *model, const std::string &kind)
{
    if (model == nullptr)
        fail("request: 'model' is required for kind '" + kind + "'");
    return core::modelFromConfigOrThrow(
        configMapOf(*model, "model"));
}

}  // namespace

bool
parseRequest(const std::string &json_text, ParsedRequest *out,
             std::string *error)
{
    try {
        JsonValue root;
        std::string parse_error;
        if (!common::parseJson(json_text, &root, &parse_error))
            fail("request: " + parse_error);
        if (!root.isObject())
            fail("request: document must be an object, got " +
                 std::string(root.typeName()));
        const JsonValue *kind_value = root.find("kind");
        if (kind_value == nullptr)
            fail("request: 'kind' is required");
        const std::string kind = asString(*kind_value, "kind");

        std::string tenant;
        if (kind == "optimize") {
            OptimizeRequest request;
            const JsonValue *model = nullptr;
            walkEnvelope(root, kind, &tenant,
                         [&](const std::string &key,
                             const JsonValue &value) {
                             if (key == "model") {
                                 model = &value;
                             } else if (key == "wafer") {
                                 request.wafer =
                                     waferOf(value, "wafer");
                             } else if (key == "options") {
                                 request.options = optionsOf(value);
                             } else {
                                 return false;
                             }
                             return true;
                         });
            request.model = requireModel(model, kind);
            out->request = std::move(request);
        } else if (kind == "baseline") {
            BaselineRequest request;
            const JsonValue *model = nullptr;
            walkEnvelope(root, kind, &tenant,
                         [&](const std::string &key,
                             const JsonValue &value) {
                             if (key == "model") {
                                 model = &value;
                             } else if (key == "wafer") {
                                 request.wafer =
                                     waferOf(value, "wafer");
                             } else if (key == "options") {
                                 request.options = optionsOf(value);
                             } else if (key == "baseline_kind") {
                                 request.kind = baselineKindOf(value);
                             } else if (key == "mapping_engine") {
                                 request.engine =
                                     mappingEngineOf(value);
                             } else {
                                 return false;
                             }
                             return true;
                         });
            request.model = requireModel(model, kind);
            out->request = std::move(request);
        } else if (kind == "strategy") {
            StrategyRequest request;
            const JsonValue *model = nullptr;
            walkEnvelope(root, kind, &tenant,
                         [&](const std::string &key,
                             const JsonValue &value) {
                             if (key == "model") {
                                 model = &value;
                             } else if (key == "wafer") {
                                 request.wafer =
                                     waferOf(value, "wafer");
                             } else if (key == "options") {
                                 request.options = optionsOf(value);
                             } else if (key == "spec") {
                                 request.spec = specOf(value, "spec");
                             } else {
                                 return false;
                             }
                             return true;
                         });
            request.model = requireModel(model, kind);
            out->request = std::move(request);
        } else if (kind == "fault") {
            FaultRequest request;
            const JsonValue *model = nullptr;
            walkEnvelope(
                root, kind, &tenant,
                [&](const std::string &key, const JsonValue &value) {
                    if (key == "model") {
                        model = &value;
                    } else if (key == "wafer") {
                        request.wafer = waferOf(value, "wafer");
                    } else if (key == "options") {
                        request.options = optionsOf(value);
                    } else if (key == "link_fault_rate") {
                        request.link_fault_rate =
                            asNumber(value, "link_fault_rate");
                    } else if (key == "core_fault_rate") {
                        request.core_fault_rate =
                            asNumber(value, "core_fault_rate");
                    } else if (key == "fault_seed") {
                        request.fault_seed =
                            seedOf(value, "fault_seed");
                    } else if (key == "faults") {
                        request.faults = faultsOf(value);
                    } else {
                        return false;
                    }
                    return true;
                });
            request.model = requireModel(model, kind);
            out->request = std::move(request);
        } else if (kind == "multiwafer") {
            MultiWaferRequest request;
            const JsonValue *model = nullptr;
            walkEnvelope(
                root, kind, &tenant,
                [&](const std::string &key, const JsonValue &value) {
                    if (key == "model") {
                        model = &value;
                    } else if (key == "pod") {
                        request.pod = podOf(value);
                    } else if (key == "options") {
                        request.options = optionsOf(value);
                    } else if (key == "pp") {
                        request.pp = asInt(value, "pp");
                    } else if (key == "microbatches") {
                        request.microbatches =
                            asInt(value, "microbatches");
                    } else if (key == "intra_spec") {
                        request.intra_spec =
                            specOf(value, "intra_spec");
                    } else {
                        return false;
                    }
                    return true;
                });
            request.model = requireModel(model, kind);
            out->request = std::move(request);
        } else if (kind == "cache-stats") {
            walkEnvelope(root, kind, &tenant,
                         [&](const std::string &,
                             const JsonValue &) { return false; });
            out->request = CacheStatsRequest{};
        } else if (kind == "scenario") {
            ScenarioRequest request;
            const JsonValue *model = nullptr;
            bool have_events = false;
            walkEnvelope(
                root, kind, &tenant,
                [&](const std::string &key, const JsonValue &value) {
                    if (key == "model") {
                        model = &value;
                    } else if (key == "wafer") {
                        request.wafer = waferOf(value, "wafer");
                    } else if (key == "options") {
                        request.options = optionsOf(value);
                    } else if (key == "warm_seed") {
                        request.warm_seed =
                            asBool(value, "warm_seed");
                    } else if (key == "events") {
                        request.events = eventsOf(value);
                        have_events = true;
                    } else {
                        return false;
                    }
                    return true;
                });
            request.model = requireModel(model, kind);
            if (!have_events)
                fail("request: 'events' is required for kind "
                     "'scenario'");
            out->request = std::move(request);
        } else {
            fail("request: unknown kind '" + kind +
                 "' (use optimize/baseline/strategy/fault/multiwafer/"
                 "cache-stats/scenario)");
        }
        out->tenant = std::move(tenant);
        return true;
    } catch (const ParseError &e) {
        *error = e.what();
        return false;
    } catch (const core::ConfigError &e) {
        *error = e.what();
        return false;
    } catch (const std::exception &e) {
        // Defense in depth for network-supplied documents: anything
        // else (std::bad_alloc above all) must not escape a session
        // thread and terminate the process.
        *error = std::string("request: ") + e.what();
        return false;
    }
}

std::string
toJson(const model::ModelConfig &m)
{
    return JsonObject()
        .add("name", m.name)
        .add("heads", m.heads)
        .add("batch", m.batch)
        .add("hidden", m.hidden)
        .add("layers", m.layers)
        .add("seq", m.seq)
        .add("ffn_mult", m.ffn_mult)
        .add("vocab", m.vocab)
        .str();
}

std::string
toJson(const hw::WaferConfig &w)
{
    return JsonObject()
        .add("rows", w.rows)
        .add("cols", w.cols)
        .addRaw("die_area_mm2", jsonNumberExact(w.die.area_mm2))
        .addRaw("die_sram_bytes", jsonNumberExact(w.die.sram_bytes))
        .addRaw("die_frequency_hz",
                jsonNumberExact(w.die.frequency_hz))
        .addRaw("die_peak_flops", jsonNumberExact(w.die.peak_flops))
        .addRaw("die_flops_per_watt",
                jsonNumberExact(w.die.flops_per_watt))
        .addRaw("hbm_area_mm2", jsonNumberExact(w.hbm.area_mm2))
        .add("hbm_stacks_per_die", w.hbm.stacks_per_die)
        .addRaw("hbm_capacity_bytes",
                jsonNumberExact(w.hbm.capacity_bytes))
        .addRaw("hbm_bandwidth_bytes_per_s",
                jsonNumberExact(w.hbm.bandwidth_bytes_per_s))
        .addRaw("hbm_latency_s", jsonNumberExact(w.hbm.latency_s))
        .addRaw("hbm_energy_pj_per_bit",
                jsonNumberExact(w.hbm.energy_pj_per_bit))
        .addRaw("d2d_bandwidth_bytes_per_s",
                jsonNumberExact(w.d2d.bandwidth_bytes_per_s))
        .addRaw("d2d_latency_s", jsonNumberExact(w.d2d.latency_s))
        .addRaw("d2d_energy_pj_per_bit",
                jsonNumberExact(w.d2d.energy_pj_per_bit))
        .addRaw("d2d_efficient_transfer_bytes",
                jsonNumberExact(w.d2d.efficient_transfer_bytes))
        .str();
}

std::string
toJson(const core::FrameworkOptions &o)
{
    using core::OptionKind;
    JsonObject json;
    for (const core::OptionRow &row : core::optionRows()) {
        if (row.scope > core::OptionScope::Wire)
            continue;
        const std::string key(row.key);
        switch (row.kind()) {
        case OptionKind::Policy:
            json.add(key, policyName(row.at<OptionKind::Policy>(o)));
            break;
        case OptionKind::Engine:
            json.add(key, solver::searchEngineName(
                              row.at<OptionKind::Engine>(o)));
            break;
        case OptionKind::Bool:
            json.add(key, row.at<OptionKind::Bool>(o));
            break;
        case OptionKind::Int:
            json.add(key, row.at<OptionKind::Int>(o));
            break;
        case OptionKind::Count:
            json.add(key, row.at<OptionKind::Count>(o));
            break;
        case OptionKind::Double:
            json.addRaw(key, jsonNumberExact(row.at<OptionKind::Double>(o)));
            break;
        case OptionKind::Seed:
            json.addRaw(key, std::to_string(row.at<OptionKind::Seed>(o)));
            break;
        case OptionKind::Text:
            json.add(key, row.at<OptionKind::Text>(o));
            break;
        }
    }
    return json.str();
}

std::string
toJson(const hw::MultiWaferConfig &pod)
{
    return JsonObject()
        .addRaw("wafer", toJson(pod.wafer))
        .add("wafer_count", pod.wafer_count)
        .addRaw("inter_wafer_bandwidth_bytes_per_s",
                jsonNumberExact(pod.inter_wafer_bandwidth_bytes_per_s))
        .addRaw("inter_wafer_latency_s",
                jsonNumberExact(pod.inter_wafer_latency_s))
        .str();
}

std::string
toJson(const hw::FaultMap &faults)
{
    std::vector<std::string> links;
    for (const hw::LinkId link : faults.failedLinks())
        links.push_back(std::to_string(link));
    std::vector<std::string> fractions;
    for (const double fraction : faults.coreFaultFractions())
        fractions.push_back(jsonNumberExact(fraction));
    return JsonObject()
        .add("die_count", faults.dieCount())
        .addRaw("failed_links", jsonArray(links))
        .addRaw("core_fault_fractions", jsonArray(fractions))
        .str();
}

namespace {

struct RequestJsonVisitor
{
    const std::string &tenant;

    JsonObject envelope(const char *kind) const
    {
        JsonObject json;
        json.add("kind", kind).add("tenant", tenant);
        return json;
    }

    std::string operator()(const OptimizeRequest &r) const
    {
        return envelope("optimize")
            .addRaw("model", toJson(r.model))
            .addRaw("wafer", toJson(r.wafer))
            .addRaw("options", toJson(r.options))
            .str();
    }

    std::string operator()(const BaselineRequest &r) const
    {
        return envelope("baseline")
            .addRaw("model", toJson(r.model))
            .addRaw("wafer", toJson(r.wafer))
            .addRaw("options", toJson(r.options))
            .add("baseline_kind", baselineWireName(r.kind))
            .add("mapping_engine", policyName(r.engine))
            .str();
    }

    std::string operator()(const StrategyRequest &r) const
    {
        return envelope("strategy")
            .addRaw("model", toJson(r.model))
            .addRaw("wafer", toJson(r.wafer))
            .addRaw("options", toJson(r.options))
            .addRaw("spec", specJson(r.spec))
            .str();
    }

    std::string operator()(const FaultRequest &r) const
    {
        JsonObject json = envelope("fault");
        json.addRaw("model", toJson(r.model))
            .addRaw("wafer", toJson(r.wafer))
            .addRaw("options", toJson(r.options))
            .addRaw("link_fault_rate",
                    jsonNumberExact(r.link_fault_rate))
            .addRaw("core_fault_rate",
                    jsonNumberExact(r.core_fault_rate))
            .addRaw("fault_seed", std::to_string(r.fault_seed));
        if (r.faults)
            json.addRaw("faults", toJson(*r.faults));
        return json.str();
    }

    std::string operator()(const MultiWaferRequest &r) const
    {
        return envelope("multiwafer")
            .addRaw("model", toJson(r.model))
            .addRaw("pod", toJson(r.pod))
            .addRaw("options", toJson(r.options))
            .add("pp", r.pp)
            .add("microbatches", r.microbatches)
            .addRaw("intra_spec", specJson(r.intra_spec))
            .str();
    }

    std::string operator()(const CacheStatsRequest &) const
    {
        return envelope("cache-stats").str();
    }

    std::string operator()(const ScenarioRequest &r) const
    {
        std::vector<std::string> events;
        events.reserve(r.events.size());
        for (const scenario::Event &event : r.events) {
            JsonObject json;
            json.add("type", scenario::eventKindName(event.kind))
                .addRaw("at_s", jsonNumberExact(event.at_s));
            if (event.kind == scenario::Event::Kind::SetFaults) {
                std::vector<std::string> kills;
                kills.reserve(event.kill_dies.size());
                for (int die : event.kill_dies)
                    kills.push_back(std::to_string(die));
                json.addRaw("link_fault_rate",
                            jsonNumberExact(event.link_fault_rate))
                    .addRaw("core_fault_rate",
                            jsonNumberExact(event.core_fault_rate))
                    .addRaw("fault_seed",
                            std::to_string(event.fault_seed))
                    .addRaw("kill_dies", jsonArray(kills));
            }
            if (event.kind == scenario::Event::Kind::ModelSwitch)
                json.addRaw("model", toJson(event.model));
            events.push_back(json.str());
        }
        return envelope("scenario")
            .addRaw("model", toJson(r.model))
            .addRaw("wafer", toJson(r.wafer))
            .addRaw("options", toJson(r.options))
            .add("warm_seed", r.warm_seed)
            .addRaw("events", jsonArray(events))
            .str();
    }
};

}  // namespace

std::string
toJson(const Request &request, const std::string &tenant)
{
    return std::visit(RequestJsonVisitor{tenant}, request);
}

}  // namespace temp::api
