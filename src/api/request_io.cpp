#include "api/request_io.hpp"

#include <cmath>
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

/// The hostile-input caps of core/schema.hpp: without them a one-line
/// request ({"faults":{"die_count":2000000000}}) drives a multi-GB
/// allocation during parsing.
using core::kMaxWaferDies;
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
 * A scalar member's text as a .conf file would give it: a number's raw
 * lexeme (so a %.17g-rendered double survives the trip exactly),
 * booleans as "1"/"0", strings as they are.
 */
const std::string &
scalarText(const JsonValue &value, const std::string &what,
           const std::string &key)
{
    static const std::string yes = "1", no = "0";
    switch (value.type) {
    case JsonValue::Type::Number:
    case JsonValue::Type::String: return value.text;
    case JsonValue::Type::Bool: return value.bool_value ? yes : no;
    default:
        fail("request: " + what + " key '" + key +
             "' must be a scalar, got " + value.typeName());
    }
}

/// A JSON object as the string-valued ConfigMap the config_io builders
/// consume (models and options share them with .conf files).
core::ConfigMap
configMapOf(const JsonValue &v, const std::string &what)
{
    core::ConfigMap config;
    for (const auto &[key, value] : asObject(v, what).members)
        config[key] = scalarText(value, what, key);
    return config;
}

/// The `options` member: the config vocabulary, minus the
/// process-local keys, which never travel with a request.
core::FrameworkOptions
optionsOf(const JsonValue &v)
{
    return core::frameworkOptionsFromConfigOrThrow(
        configMapOf(v, "options"), core::Source::Wire);
}

/// A member described by a field table (wafer, spec, pod): its rows
/// over the struct's defaults (a pod's nested wafer first), then the
/// table's check.
template <typename T>
T
fieldsOf(const JsonValue &v, const std::string &what)
{
    T out{};
    std::string_view nested;
    if constexpr (std::is_same_v<T, hw::MultiWaferConfig>) {
        nested = "wafer";
        if (const JsonValue *wafer = asObject(v, what).find("wafer"))
            out.wafer = fieldsOf<hw::WaferConfig>(*wafer, what + ".wafer");
    }
    for (const auto &[key, value] : asObject(v, what).members)
        if (key != nested)
            core::readField(key, scalarText(value, what, key),
                            core::Source::Wire, what, out);
    core::throwIfInvalid(core::fieldError(out, core::Source::Wire, what),
                         core::Source::Wire);
    return out;
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

/// A uint64 seed, from the number's raw lexeme (core::parseSeed).
std::uint64_t
seedOf(const JsonValue &v, const std::string &what)
{
    if (!v.isNumber())
        fail("request: " + what + " must be a number, got " +
             v.typeName());
    std::uint64_t seed = 0;
    if (!core::parseSeed(v.text, &seed))
        fail("request: " + what +
             " must be a non-negative integer below 2^64, got '" + v.text +
             "'");
    return seed;
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
                configMapOf(*model, what + ".model"), core::Source::Wire,
                what + ".model");
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
    tcme::MappingEngineKind kind;
    if (!core::policyFromName(name, &kind))
        fail("request: unknown mapping_engine '" + name +
             "' (use smap/gmap/tcme)");
    return kind;
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

/// The `wafer` member, for the kinds that have one.
template <typename R>
bool
readWafer(R &request, const std::string &key, const JsonValue &value)
{
    if constexpr (requires { request.wafer; })
        if (key == "wafer") {
            request.wafer = fieldsOf<hw::WaferConfig>(value, "wafer");
            return true;
        }
    return false;
}

/**
 * A request of a kind that carries a model: the shared members (model,
 * wafer, options) are read here, and `member` reads the kind's own keys
 * (returning false for an unknown one). The model is required.
 */
template <typename R, typename Member>
R
readRequest(const JsonValue &root, const std::string &kind,
            std::string *tenant, Member &&member)
{
    R request;
    const JsonValue *model = nullptr;
    walkEnvelope(root, kind, tenant,
                 [&](const std::string &key, const JsonValue &value) {
                     if (key == "model")
                         model = &value;
                     else if (key == "options")
                         request.options = optionsOf(value);
                     else if (!readWafer(request, key, value))
                         return member(request, key, value);
                     return true;
                 });
    if (model == nullptr)
        fail("request: 'model' is required for kind '" + kind + "'");
    request.model = core::modelFromConfigOrThrow(configMapOf(*model, "model"),
                                                 core::Source::Wire);
    return request;
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
        using Key = const std::string &;
        using Value = const JsonValue &;
        if (kind == "optimize") {
            out->request = readRequest<OptimizeRequest>(
                root, kind, &tenant, [](auto &, Key, Value) { return false; });
        } else if (kind == "baseline") {
            out->request = readRequest<BaselineRequest>(
                root, kind, &tenant,
                [](BaselineRequest &r, Key key, Value value) {
                    if (key == "baseline_kind")
                        r.kind = baselineKindOf(value);
                    else if (key == "mapping_engine")
                        r.engine = mappingEngineOf(value);
                    else
                        return false;
                    return true;
                });
        } else if (kind == "strategy") {
            out->request = readRequest<StrategyRequest>(
                root, kind, &tenant,
                [](StrategyRequest &r, Key key, Value value) {
                    if (key != "spec")
                        return false;
                    r.spec = fieldsOf<parallel::ParallelSpec>(value, key);
                    return true;
                });
        } else if (kind == "fault") {
            out->request = readRequest<FaultRequest>(
                root, kind, &tenant,
                [](FaultRequest &r, Key key, Value value) {
                    if (key == "link_fault_rate")
                        r.link_fault_rate = asNumber(value, key);
                    else if (key == "core_fault_rate")
                        r.core_fault_rate = asNumber(value, key);
                    else if (key == "fault_seed")
                        r.fault_seed = seedOf(value, key);
                    else if (key == "faults")
                        r.faults = faultsOf(value);
                    else
                        return false;
                    return true;
                });
        } else if (kind == "multiwafer") {
            out->request = readRequest<MultiWaferRequest>(
                root, kind, &tenant,
                [](MultiWaferRequest &r, Key key, Value value) {
                    if (key == "pod")
                        r.pod = fieldsOf<hw::MultiWaferConfig>(value, key);
                    else if (key == "pp")
                        r.pp = asInt(value, key);
                    else if (key == "microbatches")
                        r.microbatches = asInt(value, key);
                    else if (key == "intra_spec")
                        r.intra_spec =
                            fieldsOf<parallel::ParallelSpec>(value, key);
                    else
                        return false;
                    return true;
                });
        } else if (kind == "cache-stats") {
            walkEnvelope(root, kind, &tenant,
                         [](Key, Value) { return false; });
            out->request = CacheStatsRequest{};
        } else if (kind == "scenario") {
            bool have_events = false;
            out->request = readRequest<ScenarioRequest>(
                root, kind, &tenant,
                [&](ScenarioRequest &r, Key key, Value value) {
                    if (key == "warm_seed") {
                        r.warm_seed = asBool(value, key);
                    } else if (key == "events") {
                        r.events = eventsOf(value);
                        have_events = true;
                    } else {
                        return false;
                    }
                    return true;
                });
            if (!have_events)
                fail("request: 'events' is required for kind "
                     "'scenario'");
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

    /// kind and tenant, then the members every kind with a model
    /// shares: model, wafer (or pod), options.
    template <typename R>
    JsonObject envelope(const char *kind, const R &r) const
    {
        JsonObject json;
        json.add("kind", kind)
            .add("tenant", tenant)
            .addRaw("model", fieldsJson(r.model));
        if constexpr (requires { r.wafer; })
            json.addRaw("wafer", fieldsJson(r.wafer));
        else
            json.addRaw("pod", fieldsJson(r.pod));
        return json.addRaw("options", fieldsJson(r.options));
    }

    std::string operator()(const OptimizeRequest &r) const
    {
        return envelope("optimize", r).str();
    }

    std::string operator()(const BaselineRequest &r) const
    {
        return envelope("baseline", r)
            .add("baseline_kind", baselineWireName(r.kind))
            .add("mapping_engine", core::policyName(r.engine))
            .str();
    }

    std::string operator()(const StrategyRequest &r) const
    {
        return envelope("strategy", r)
            .addRaw("spec", fieldsJson(r.spec))
            .str();
    }

    std::string operator()(const FaultRequest &r) const
    {
        JsonObject json = envelope("fault", r);
        json.addRaw("link_fault_rate", jsonNumberExact(r.link_fault_rate))
            .addRaw("core_fault_rate", jsonNumberExact(r.core_fault_rate))
            .addRaw("fault_seed", std::to_string(r.fault_seed));
        if (r.faults)
            json.addRaw("faults", toJson(*r.faults));
        return json.str();
    }

    std::string operator()(const MultiWaferRequest &r) const
    {
        return envelope("multiwafer", r)
            .add("pp", r.pp)
            .add("microbatches", r.microbatches)
            .addRaw("intra_spec", fieldsJson(r.intra_spec))
            .str();
    }

    std::string operator()(const CacheStatsRequest &) const
    {
        return JsonObject()
            .add("kind", "cache-stats")
            .add("tenant", tenant)
            .str();
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
                json.addRaw("model", fieldsJson(event.model));
            events.push_back(json.str());
        }
        return envelope("scenario", r)
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
