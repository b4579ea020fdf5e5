#include "checker.hpp"

#include <bit>
#include <cstdio>
#include <variant>

#include "api/serialize.hpp"
#include "common/rng.hpp"
#include "model/graph.hpp"
#include "sim/multi_wafer.hpp"
#include "sim/trainer_sim.hpp"

namespace perfbench {

using namespace temp;

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string
lexeme(const common::JsonValue *value)
{
    return value != nullptr && value->isNumber() ? value->text : "";
}

bool
flag(const common::JsonValue *value)
{
    return value != nullptr && value->isBool() && value->bool_value;
}

/// Rejects a wire report that is infeasible, OOM, or whose step time
/// differs from @p resimulated.
std::string
checkWireReport(const common::JsonValue *report,
                const sim::PerfReport &resimulated)
{
    if (report == nullptr)
        return "response has no report";
    if (!flag(report->find("feasible")))
        return "plan is infeasible";
    if (flag(report->find("oom")))
        return "plan is OOM";
    const std::string wire = lexeme(report->find("step_time_s"));
    const std::string local = api::jsonNumber(resimulated.step_time);
    if (wire != local)
        return "step_time_s " + wire + " re-simulates to " + local;
    return "";
}

bool
specFromJson(const common::JsonValue *object, parallel::ParallelSpec *out)
{
    if (object == nullptr || !object->isObject())
        return false;
    auto degree = [&](const char *key, int *field) {
        const common::JsonValue *v = object->find(key);
        if (v == nullptr || !v->isNumber())
            return false;
        *field = static_cast<int>(v->number);
        return true;
    };
    return degree("dp", &out->dp) && degree("fsdp", &out->fsdp) &&
           degree("tp", &out->tp) && degree("sp", &out->sp) &&
           degree("cp", &out->cp) && degree("tatp", &out->tatp) &&
           degree("pp", &out->pp) &&
           ((out->coupled_sp = flag(object->find("coupled_sp"))), true);
}

/// Per-op specs of an optimize/fault answer, parsed from the wire.
bool
wireSpecs(const common::JsonValue &response,
          std::vector<parallel::ParallelSpec> *out)
{
    const common::JsonValue *specs =
        jsonAt(response, {"result", "per_op_specs"});
    if (specs == nullptr || !specs->isArray() || specs->items.empty())
        return false;
    for (const common::JsonValue &item : specs->items) {
        const common::JsonValue *text =
            item.isObject() ? item.find("spec") : &item;
        parallel::ParallelSpec spec;
        if (text == nullptr || !text->isString() ||
            !parseSpecString(text->text, &spec))
            return false;
        out->push_back(spec);
    }
    return true;
}

}  // namespace

const common::JsonValue *
jsonAt(const common::JsonValue &root,
       std::initializer_list<const char *> path)
{
    const common::JsonValue *node = &root;
    for (const char *key : path) {
        node = node->find(key);
        if (node == nullptr)
            return nullptr;
    }
    return node;
}

bool
parseSpecString(const std::string &text, parallel::ParallelSpec *out)
{
    if (text.size() < 2 || text.front() != '(' || text.back() != ')')
        return false;
    parallel::ParallelSpec spec;
    std::size_t pos = 1;
    while (pos < text.size() - 1) {
        std::size_t end = text.find_first_of(",)", pos);
        const std::string field = text.substr(pos, end - pos);
        pos = end + 1;
        if (field == "csp") {
            spec.coupled_sp = true;
            continue;
        }
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = field.substr(0, eq);
        int value = 0;
        if (std::sscanf(field.c_str() + eq + 1, "%d", &value) != 1 ||
            value < 1)
            return false;
        if (key == "dp")
            spec.dp = value;
        else if (key == "tp")
            spec.tp = value;
        else if (key == "sp")
            spec.sp = value;
        else if (key == "tatp")
            spec.tatp = value;
        else if (key == "fsdp")
            spec.fsdp = value;
        else if (key == "cp")
            spec.cp = value;
        else if (key == "pp")
            spec.pp = value;
        else
            return false;
    }
    *out = spec;
    return spec.str() == text;
}

hw::FaultMap
drawFaults(const api::FaultRequest &request)
{
    if (request.faults)
        return *request.faults;
    const hw::Wafer healthy(request.wafer);
    hw::FaultMap faults(healthy.dieCount(), healthy.topology().linkCount());
    Rng rng(request.fault_seed);
    if (request.link_fault_rate > 0.0)
        faults = hw::FaultMap::randomLinkFaults(
            healthy.topology(), request.link_fault_rate, rng);
    if (request.core_fault_rate > 0.0) {
        const hw::FaultMap cores = hw::FaultMap::randomCoreFaults(
            healthy.topology(), request.core_fault_rate, rng);
        for (hw::DieId die = 0; die < healthy.dieCount(); ++die)
            faults.setCoreFaultFraction(die, cores.coreFaultFraction(die));
    }
    return faults;
}

std::string
Checker::checkPlan(const hw::WaferConfig &wafer, const hw::FaultMap &faults,
                   const core::FrameworkOptions &options,
                   const model::ModelConfig &model,
                   const solver::SolverResult &result)
{
    if (!result.feasible)
        return "plan is infeasible";
    if (result.report.oom)
        return "plan is OOM";
    const hw::Wafer fresh_wafer(wafer, faults);
    const sim::TrainingSimulator fresh(fresh_wafer, options.policy,
                                       options.training);
    const sim::PerfReport report = fresh.simulate(
        model::ComputeGraph::transformer(model), result.per_op_specs);
    if (!sameBits(report.step_time, result.step_time_s) ||
        !sameBits(report.step_time, result.report.step_time)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "step_time_s %.17g re-simulates to %.17g",
                      result.step_time_s, report.step_time);
        return buf;
    }
    return "";
}

std::string
Checker::checkWire(const api::Request &request,
                   const common::JsonValue &response)
{
    if (!response.isObject())
        return "response is not a JSON object";
    if (flag(response.find("shed")))
        return "request was shed";
    if (!flag(response.find("ok"))) {
        const common::JsonValue *error = response.find("error");
        return "request failed: " +
               (error != nullptr ? error->text : std::string("?"));
    }
    return std::visit(
        [&](const auto &r) -> std::string {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, api::CacheStatsRequest>) {
                const common::JsonValue *layers = response.find("layers");
                return layers != nullptr && layers->isArray() &&
                               !layers->items.empty()
                           ? ""
                           : "cache-stats response has no layers";
            } else if constexpr (std::is_same_v<T, api::ScenarioRequest>) {
                return "scenario requests are not served over the wire";
            } else {
                const model::ComputeGraph graph =
                    model::ComputeGraph::transformer(r.model);
                if constexpr (std::is_same_v<T, api::MultiWaferRequest>) {
                    const sim::MultiWaferSimulator fresh(
                        r.pod, r.options.policy, r.options.training);
                    return checkWireReport(
                        response.find("result"),
                        fresh.simulate(graph, r.intra_spec, r.pp,
                                       r.microbatches));
                } else if constexpr (std::is_same_v<T,
                                                    api::BaselineRequest>) {
                    parallel::ParallelSpec spec;
                    if (!specFromJson(jsonAt(response, {"result", "spec"}),
                                      &spec))
                        return "baseline answer has no spec";
                    parallel::TrainingOptions training = r.options.training;
                    if (r.kind == baselines::BaselineKind::Megatron1)
                        training.zero1_optimizer = false;
                    const hw::Wafer wafer(r.wafer);
                    const sim::TrainingSimulator fresh(
                        wafer, tcme::MappingPolicy{r.engine}, training);
                    return checkWireReport(
                        jsonAt(response, {"result", "report"}),
                        fresh.simulate(graph, spec));
                } else if constexpr (std::is_same_v<T,
                                                    api::StrategyRequest>) {
                    const hw::Wafer wafer(r.wafer);
                    const sim::TrainingSimulator fresh(
                        wafer, r.options.policy, r.options.training);
                    return checkWireReport(response.find("result"),
                                           fresh.simulate(graph, r.spec));
                } else {
                    hw::FaultMap faults;
                    if constexpr (std::is_same_v<T, api::FaultRequest>)
                        faults = drawFaults(r);
                    std::vector<parallel::ParallelSpec> specs;
                    if (!wireSpecs(response, &specs))
                        return "answer has no parseable per_op_specs";
                    const common::JsonValue *result =
                        response.find("result");
                    if (result == nullptr ||
                        !flag(result->find("feasible")))
                        return "plan is infeasible";
                    const hw::Wafer wafer(r.wafer, faults);
                    const sim::TrainingSimulator fresh(
                        wafer, r.options.policy, r.options.training);
                    return checkWireReport(result->find("report"),
                                           fresh.simulate(graph, specs));
                }
            }
        },
        request);
}

std::string
Checker::answerFingerprint(const common::JsonValue &response)
{
    const common::JsonValue *kind = response.find("kind");
    if (kind == nullptr || kind->text == "cache-stats")
        return "";
    const common::JsonValue *result = response.find("result");
    if (result == nullptr)
        return "";
    const common::JsonValue *report =
        result->find("report") != nullptr ? result->find("report") : result;
    std::string answer = kind->text + "|";
    if (const common::JsonValue *specs = result->find("per_op_specs"))
        for (const common::JsonValue &item : specs->items) {
            const common::JsonValue *text =
                item.isObject() ? item.find("spec") : &item;
            answer += (text != nullptr ? text->text : "?") + ";";
        }
    if (const common::JsonValue *spec = result->find("spec"))
        if (const common::JsonValue *text = spec->find("str"))
            answer += text->text;
    answer += "|" + lexeme(report->find("step_time_s")) + "|" +
              lexeme(report->find("throughput_tokens_per_s"));
    return answer;
}

std::string
Checker::checkRepeat(const std::string &request_key,
                     const std::string &answer)
{
    if (answer.empty())
        return "";
    const auto [it, inserted] = answers_.emplace(request_key, answer);
    if (!inserted && it->second != answer)
        return "identical requests returned different answers";
    return "";
}

std::string
Checker::checkReplay(const scenario::ScenarioReport &timed,
                     const scenario::ScenarioReport &second)
{
    if (timed.replay_digest != second.replay_digest)
        return "replay_digest differs from the second replay";
    if (timed.infeasible_events != 0 || timed.fallback_events != 0)
        return "timeline has infeasible or fallback events";
    for (const scenario::EventReport &event : timed.events)
        if (event.resolved && !(event.step_time_s > 0.0))
            return "re-solved event has no plan";
    return "";
}

}  // namespace perfbench
