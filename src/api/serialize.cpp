#include "api/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "core/schema.hpp"

namespace temp::api {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::string
jsonNumberExact(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::string out;
    appendExact(out, v);
    return out;
}

void
appendExact(std::string &out, double v)
{
    char buf[40];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 17)
                        .ptr);
}

JsonObject &
JsonObject::addRaw(std::string_view key, const std::string &json)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += jsonEscape(key);
    body_ += "\":";
    body_ += json;
    return *this;
}

JsonObject &
JsonObject::add(std::string_view key, const std::string &value)
{
    return addRaw(key, "\"" + jsonEscape(value) + "\"");
}

JsonObject &
JsonObject::add(std::string_view key, const char *value)
{
    return add(key, std::string(value));
}

JsonObject &
JsonObject::add(std::string_view key, double value)
{
    return addRaw(key, jsonNumber(value));
}

JsonObject &
JsonObject::add(std::string_view key, long value)
{
    return addRaw(key, std::to_string(value));
}

JsonObject &
JsonObject::add(std::string_view key, int value)
{
    return addRaw(key, std::to_string(value));
}

JsonObject &
JsonObject::add(std::string_view key, bool value)
{
    return addRaw(key, value ? "true" : "false");
}

template <typename T>
void
addFields(JsonObject &json, const T &value)
{
    if constexpr (std::is_same_v<T, hw::MultiWaferConfig>)
        json.addRaw("wafer", fieldsJson(value.wafer));
    for (const core::FieldRow<T> &row : core::fieldRows<T>()) {
        if (!row.readBy(core::Source::Wire))
            continue;
        // Doubles at %.17g and uint64 seeds as their exact decimal, so
        // every value parses back bit-identical; enums by name.
        row.visit(value, [&](const auto &v) {
            using V = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<V, double>)
                json.addRaw(row.key, jsonNumberExact(v));
            else if constexpr (std::is_same_v<V, std::uint64_t>)
                json.addRaw(row.key, std::to_string(v));
            else if constexpr (std::is_same_v<V, tcme::MappingEngineKind>)
                json.add(row.key, core::policyName(v));
            else if constexpr (std::is_same_v<V, solver::SearchEngineKind>)
                json.add(row.key, solver::searchEngineName(v));
            else
                json.add(row.key, v);
        });
    }
}

template void addFields(JsonObject &, const core::FrameworkOptions &);
template void addFields(JsonObject &, const hw::WaferConfig &);
template void addFields(JsonObject &, const model::ModelConfig &);
template void addFields(JsonObject &, const parallel::ParallelSpec &);
template void addFields(JsonObject &, const hw::MultiWaferConfig &);

std::string
JsonObject::str() const
{
    return "{" + body_ + "}";
}

std::string
jsonArray(const std::vector<std::string> &elements)
{
    std::string out = "[";
    for (std::size_t i = 0; i < elements.size(); ++i) {
        if (i)
            out += ',';
        out += elements[i];
    }
    out += ']';
    return out;
}

std::string
toJson(const sim::PerfReport &r)
{
    return JsonObject()
        .add("feasible", r.feasible)
        .add("oom", r.oom)
        .add("step_time_s", r.step_time)
        .add("comp_time_s", r.comp_time)
        .add("collective_time_s", r.collective_time)
        .add("stream_comm_time_s", r.stream_comm_time)
        .add("exposed_comm_s", r.exposed_comm)
        .add("reshard_time_s", r.reshard_time)
        .add("bubble_time_s", r.bubble_time)
        .add("grad_sync_time_s", r.grad_sync_time)
        .add("grad_accum", r.grad_accum)
        .add("recompute", r.recompute)
        .add("peak_mem_bytes", r.peak_mem_bytes)
        .add("avg_power_w", r.avg_power_w)
        .add("power_efficiency_flops_per_j", r.power_efficiency)
        .add("bw_utilization", r.bw_utilization)
        .add("total_flops", r.total_flops)
        .add("throughput_tokens_per_s", r.throughput_tokens_per_s)
        .add("strategy", r.strategy_desc)
        .str();
}

std::string
toJson(const parallel::ParallelSpec &spec)
{
    JsonObject json;
    addFields(json, spec);
    return json.add("str", spec.str()).str();
}

std::string
toJson(const baselines::TunedBaseline &baseline)
{
    return JsonObject()
        .addRaw("spec", toJson(baseline.spec))
        .add("all_oom", baseline.all_oom)
        .addRaw("report", toJson(baseline.report))
        .str();
}

std::string
toJson(const solver::SolverResult &result,
       const std::vector<std::string> &op_names)
{
    std::vector<std::string> per_op;
    per_op.reserve(result.per_op_specs.size());
    for (std::size_t i = 0; i < result.per_op_specs.size(); ++i) {
        if (i < op_names.size()) {
            per_op.push_back(JsonObject()
                                 .add("op", op_names[i])
                                 .add("spec",
                                      result.per_op_specs[i].str())
                                 .str());
        } else {
            per_op.push_back("\"" +
                             jsonEscape(result.per_op_specs[i].str()) +
                             "\"");
        }
    }
    return JsonObject()
        .add("feasible", result.feasible)
        .add("step_time_s", result.step_time_s)
        .add("search_time_s", result.search_time_s)
        .add("evaluations", result.evaluations)
        .add("matrix_measurements", result.matrix_measurements)
        .add("cache_hits", result.cache_hits)
        .add("step_sims", result.step_sims)
        .add("step_cache_hits", result.step_cache_hits)
        .add("schedule_lowerings", result.schedule_lowerings)
        .add("schedule_cache_hits", result.schedule_cache_hits)
        .add("cache_evictions", result.cache_evictions)
        .add("candidate_count", result.candidate_count)
        .add("budget_exhausted", result.budget_exhausted)
        .add("quanta_used", result.quanta_used)
        .addRaw("per_op_specs", jsonArray(per_op))
        .addRaw("report", toJson(result.report))
        .str();
}

std::string
toJson(const eval::EvalStats &stats)
{
    return JsonObject()
        .add("measurements", stats.measurements)
        .add("cache_hits", stats.cache_hits)
        .add("layouts_built", stats.layouts_built)
        .add("layout_hits", stats.layout_hits)
        .add("schedule_lowerings", stats.schedule_lowerings)
        .add("schedule_cache_hits", stats.schedule_cache_hits)
        .add("evictions", stats.evictions)
        .str();
}

std::string
toJson(const eval::StepStats &stats)
{
    return JsonObject()
        .add("sims", stats.sims)
        .add("cache_hits", stats.cache_hits)
        .add("evictions", stats.evictions)
        .str();
}

std::string
toJson(const common::CacheStats &stats)
{
    return JsonObject()
        .add("entries", stats.entries)
        .add("bytes_est", stats.bytes_est)
        .add("hits", stats.hits)
        .add("misses", stats.misses)
        .add("evictions", stats.evictions)
        .str();
}

std::string
toJson(const Response &response)
{
    JsonObject json;
    json.add("kind", requestKindName(response.kind))
        .add("ok", response.ok)
        .add("error", response.error)
        .add("wall_time_s", response.wall_time_s)
        .add("queue_time_s", response.queue_time_s)
        .add("framework_reused", response.framework_reused)
        .add("tenant", response.tenant)
        .add("coalesced", response.coalesced)
        .add("coalesced_requests", response.coalesced_requests)
        .add("shed", response.shed)
        .add("deadline_exceeded", response.deadline_exceeded)
        .add("budget_exhausted", response.budget_exhausted)
        .add("quanta_used", response.quanta_used)
        .addRaw("evaluator", toJson(response.evaluator_stats))
        .addRaw("step_evaluator", toJson(response.step_stats));
    switch (response.kind) {
    case RequestKind::Optimize:
        json.addRaw("result", toJson(response.solver,
                                     response.op_names));
        break;
    case RequestKind::Fault:
        json.add("usable_dies", response.usable_dies)
            .addRaw("result", toJson(response.solver,
                                     response.op_names));
        break;
    case RequestKind::Baseline:
        json.addRaw("result", toJson(response.baseline));
        break;
    case RequestKind::Strategy:
        json.addRaw("result", toJson(response.report));
        break;
    case RequestKind::MultiWafer:
        json.addRaw("stage_fabric",
                    JsonObject()
                        .add("rows", response.stage_fabric.rows)
                        .add("cols", response.stage_fabric.cols)
                        .str())
            .addRaw("result", toJson(response.report));
        break;
    case RequestKind::Scenario: {
        std::vector<std::string> events;
        events.reserve(response.scenario.events.size());
        for (const scenario::EventReport &er :
             response.scenario.events) {
            events.push_back(
                JsonObject()
                    .add("index", er.index)
                    .add("at_s", er.at_s)
                    .add("type", scenario::eventKindName(er.kind))
                    .add("recovery_wall_s", er.recovery_wall_s)
                    .add("step_sims", er.step_sims)
                    .add("matrix_measurements",
                         er.matrix_measurements)
                    .add("step_cache_hits", er.step_cache_hits)
                    .add("matrix_cache_hits", er.matrix_cache_hits)
                    .add("throughput_before", er.throughput_before)
                    .add("throughput_after", er.throughput_after)
                    .add("step_time_s", er.step_time_s)
                    .add("usable_dies", er.usable_dies)
                    .add("failed_links", er.failed_links)
                    .add("wafer_count", er.wafer_count)
                    // String: uint64 does not survive a double-typed
                    // JSON number field.
                    .add("fault_fingerprint",
                         std::to_string(er.fault_fingerprint))
                    .add("resolved", er.resolved)
                    .add("warm_seeded", er.warm_seeded)
                    .add("budget_exhausted", er.budget_exhausted)
                    .add("quanta_used", er.quanta_used)
                    .add("context_reused", er.context_reused)
                    .add("fallback_to_last_feasible",
                         er.fallback_to_last_feasible)
                    .add("degradation", er.degradation)
                    .str());
        }
        json.addRaw(
            "result",
            JsonObject()
                .addRaw("events", jsonArray(events))
                .add("replay_digest",
                     std::to_string(response.scenario.replay_digest))
                .add("total_step_sims",
                     response.scenario.total_step_sims)
                .add("total_matrix_measurements",
                     response.scenario.total_matrix_measurements)
                .add("infeasible_events",
                     response.scenario.infeasible_events)
                .add("fallback_events",
                     response.scenario.fallback_events)
                .add("budget_exhausted_events",
                     response.scenario.budget_exhausted_events)
                .add("total_quanta", response.scenario.total_quanta)
                .add("total_wall_s", response.scenario.total_wall_s)
                .str());
        break;
    }
    case RequestKind::CacheStats: {
        std::vector<std::string> layers;
        layers.reserve(response.cache_layers.size());
        for (const CacheLayerStats &layer : response.cache_layers)
            layers.push_back(JsonObject()
                                 .add("layer", layer.layer)
                                 .addRaw("stats", toJson(layer.stats))
                                 .str());
        json.addRaw("layers", jsonArray(layers));
        break;
    }
    }
    return json.str();
}

}  // namespace temp::api
