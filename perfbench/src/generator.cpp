#include "generator.hpp"

#include <algorithm>
#include <cmath>

#include "api/request_io.hpp"
#include "bench.hpp"
#include "model/model_zoo.hpp"

namespace perfbench {

using namespace temp;

namespace {

/// Requests generated per workload: more than any run consumes, so
/// the loops stop on time, never on running out of inputs.
constexpr int kColdPlanCycles = 100;
constexpr int kServePicksPerClient = 20000;
constexpr int kReplayTimelines = 120;
/// Zipf exponent of the serve_mix catalog popularity.
constexpr double kZipfAlpha = 1.1;
/// One pick in this many of each serve_mix client is a scheduled
/// (cold-on-every-visit or cache-stats) request.
constexpr int kScheduledEvery = 100;

std::uint32_t
seed32(SplitMix &rng)
{
    return static_cast<std::uint32_t>(rng.next() >> 32) | 1u;
}

template <typename T>
void
shuffle(std::vector<T> &items, SplitMix &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

core::FrameworkOptions
threadsOptions(int eval_threads)
{
    core::FrameworkOptions options;
    options.eval_threads = eval_threads;
    return options;
}

parallel::ParallelSpec
spec(int dp, int tp, int tatp)
{
    parallel::ParallelSpec s;
    s.dp = dp;
    s.tp = tp;
    s.tatp = tatp;
    return s;
}

}  // namespace

std::vector<std::string>
replayModels()
{
    return {"GPT-3 6.7B", "Llama2 7B", "GPT-3 76B"};
}

ColdPlanInputs
makeColdPlan(std::uint64_t seed)
{
    SplitMix rng(seed ^ 0xc01d'91a0ull);
    const std::vector<model::ModelConfig> models =
        model::evaluationModels();
    ColdPlanInputs inputs;
    inputs.cycle = models.size();
    inputs.quality_prefix = 2 * models.size();
    for (int c = 0; c < kColdPlanCycles; ++c) {
        std::vector<std::size_t> order(models.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        shuffle(order, rng);
        for (std::size_t i : order) {
            api::OptimizeRequest request;
            request.model = models[i];
            request.options = threadsOptions(kColdPlanThreads);
            request.options.solver.seed = seed32(rng);
            inputs.requests.push_back(request);
        }
    }
    return inputs;
}

ServeMixInputs
makeServeMix(std::uint64_t seed)
{
    SplitMix rng(seed ^ 0x5e7e'0417ull);
    const core::FrameworkOptions options = threadsOptions(kServeThreads);
    const std::vector<std::string> plan_models = {
        "GPT-3 6.7B", "Llama2 7B", "Llama3 70B", "GPT-3 76B"};

    struct Entry
    {
        api::Request request;
        std::string label;
    };
    auto optimize = [&](const std::string &name) {
        api::OptimizeRequest r;
        r.model = model::modelByName(name);
        r.options = options;
        r.options.solver.seed = seed32(rng);
        return Entry{r, "optimize " + name};
    };
    auto strategy = [&](const std::string &name,
                        const parallel::ParallelSpec &s) {
        api::StrategyRequest r;
        r.model = model::modelByName(name);
        r.options = options;
        r.spec = s;
        return Entry{r, "strategy " + name + " " + s.str()};
    };
    auto multiwafer = [&](const std::string &name, int pp, int micro) {
        api::MultiWaferRequest r;
        r.model = model::modelByName(name);
        r.options = options;
        r.pod.wafer_count = 2;
        r.pp = pp;
        r.microbatches = micro;
        r.intra_spec = spec(2, 1, 16);
        return Entry{r, "multiwafer " + name};
    };
    auto fault = [&](const std::string &name) {
        api::FaultRequest r;
        r.model = model::modelByName(name);
        r.options = options;
        r.link_fault_rate = 0.02 + 0.04 * rng.unit();
        r.core_fault_rate = 0.05 * rng.unit();
        r.fault_seed = seed32(rng);
        return Entry{r, "fault " + name};
    };
    auto baseline = [&](const std::string &name,
                        baselines::BaselineKind kind) {
        api::BaselineRequest r;
        r.model = model::modelByName(name);
        r.options = options;
        r.kind = kind;
        return Entry{r, std::string("baseline ") +
                            baselines::baselineName(kind) + " " + name};
    };

    // Three popularity tiers in a fixed order, so every seed puts the
    // same kind of work at each Zipf rank (the seed varies the requests'
    // own seeds and fault draws, and the pick sequence). The head is all
    // optimize requests (the snapshot warms them); the tail holds the
    // requests that are cold on every visit.
    std::vector<Entry> head, middle, tail;
    for (const std::string &name : plan_models) {
        head.push_back(optimize(name));
        head.push_back(optimize(name));
        middle.push_back(optimize(name));
        tail.push_back(optimize(name));
    }
    middle.push_back(strategy("GPT-3 6.7B", spec(4, 8, 1)));
    middle.push_back(strategy("Llama2 7B", spec(2, 1, 16)));
    middle.push_back(strategy("GPT-3 76B", spec(1, 4, 8)));
    middle.push_back(strategy("Llama3 70B", spec(2, 4, 4)));
    middle.push_back(multiwafer("GPT-3 175B", 2, 8));
    middle.push_back(multiwafer("Llama3 70B", 2, 8));
    // Requests that are cold on every visit (a fault re-solve builds a
    // fresh degraded context, a baseline re-tunes) and the cache-stats
    // probe are not drawn: each client sends one of them at a fixed
    // 1-in-kScheduledEvery rate, so their count cannot swing a run.
    std::vector<Entry> scheduled;
    scheduled.push_back(fault("GPT-3 6.7B"));
    scheduled.push_back(
        baseline("GPT-3 6.7B", baselines::BaselineKind::MegatronSP));
    scheduled.push_back(Entry{api::CacheStatsRequest{}, "cache-stats"});
    scheduled.push_back(fault("Llama2 7B"));
    scheduled.push_back(baseline("Llama2 7B", baselines::BaselineKind::Fsdp));

    ServeMixInputs inputs;
    for (std::vector<Entry> *tier : {&head, &middle, &tail, &scheduled})
        for (Entry &entry : *tier) {
            inputs.catalog.push_back(std::move(entry.request));
            inputs.labels.push_back(std::move(entry.label));
        }
    for (std::size_t i = 0; i < head.size(); ++i)
        inputs.snapshot_head.push_back(static_cast<int>(i));

    const std::size_t drawn = inputs.catalog.size() - scheduled.size();
    std::vector<double> cdf;
    double mass = 0.0;
    for (std::size_t k = 0; k < drawn; ++k) {
        mass += 1.0 / std::pow(static_cast<double>(k + 1), kZipfAlpha);
        cdf.push_back(mass);
    }
    for (double &c : cdf)
        c /= mass;
    for (int c = 0; c < kServeClients; ++c) {
        ServeClientPlan plan;
        plan.tenant = "tenant-" + std::to_string(c);
        plan.http = c == kServeClients - 1;
        plan.picks.reserve(kServePicksPerClient);
        for (int n = 0; n < kServePicksPerClient; ++n) {
            if (n % kScheduledEvery == kScheduledEvery / 2) {
                const std::size_t k =
                    static_cast<std::size_t>(n / kScheduledEvery + c) %
                    scheduled.size();
                plan.picks.push_back(static_cast<int>(drawn + k));
                continue;
            }
            const double u = rng.unit();
            const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
            plan.picks.push_back(static_cast<int>(std::min<std::ptrdiff_t>(
                it - cdf.begin(), static_cast<std::ptrdiff_t>(drawn) - 1)));
        }
        inputs.clients.push_back(std::move(plan));
    }
    return inputs;
}

FaultReplayInputs
makeFaultReplay(std::uint64_t seed)
{
    using Kind = scenario::Event::Kind;
    SplitMix rng(seed ^ 0xfa17'5eedull);
    const std::vector<std::string> names = replayModels();
    const int dies = hw::WaferConfig::paperDefault().dieCount();

    FaultReplayInputs inputs;
    inputs.round = names.size();
    inputs.quality_prefix = 2 * inputs.round;
    for (int t = 0; t < kReplayTimelines; ++t) {
        api::ScenarioRequest request;
        request.options = threadsOptions(kReplayThreads);
        request.options.solver.seed = seed32(rng);
        request.warm_seed = true;
        request.model = model::modelByName(names[t % names.size()]);

        double at = 0.0;
        auto add = [&](Kind kind) -> scenario::Event & {
            scenario::Event event;
            event.kind = kind;
            at += 10.0;
            event.at_s = at;
            request.events.push_back(event);
            return request.events.back();
        };
        // Fixed rates and kill counts: the seed picks which links, cores
        // and dies fail, not how many, so every seed's storms are alike
        // in size.
        auto draw = [&](scenario::Event &e) {
            e.link_fault_rate = 0.04;
            e.core_fault_rate = 0.05;
            e.fault_seed = seed32(rng);
        };
        auto switchTo = [&](std::size_t offset) {
            add(Kind::ModelSwitch).model = model::modelByName(
                names[(static_cast<std::size_t>(t) + offset) %
                      names.size()]);
        };

        scenario::Event &first = add(Kind::SetFaults);
        draw(first);
        const scenario::Event revisit = first;
        add(Kind::Reoptimize);
        {
            scenario::Event &kill = add(Kind::SetFaults);
            while (kill.kill_dies.size() < 2) {
                const int die = static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(dies)));
                if (std::find(kill.kill_dies.begin(), kill.kill_dies.end(),
                              die) == kill.kill_dies.end())
                    kill.kill_dies.push_back(die);
            }
        }
        add(Kind::WaferJoin);
        switchTo(1);
        add(Kind::ClearFaults);
        {
            // The first draw again on a repaired wafer: its degraded
            // context is still pooled and gets reused.
            scenario::Event &again = add(Kind::SetFaults);
            again.link_fault_rate = revisit.link_fault_rate;
            again.core_fault_rate = revisit.core_fault_rate;
            again.fault_seed = revisit.fault_seed;
        }
        add(Kind::Reoptimize);
        add(Kind::WaferLeave);
        draw(add(Kind::SetFaults));
        switchTo(2);
        add(Kind::ClearFaults);
        inputs.timelines.push_back(std::move(request));
    }
    return inputs;
}

std::uint64_t
inputDigest(const ColdPlanInputs &inputs)
{
    std::uint64_t hash = fnv1a("cold_plan");
    for (const api::OptimizeRequest &request : inputs.requests)
        hash = fnv1a(api::toJson(api::Request(request)), hash);
    return hash;
}

std::uint64_t
inputDigest(const ServeMixInputs &inputs)
{
    std::uint64_t hash = fnv1a("serve_mix");
    for (const api::Request &request : inputs.catalog)
        hash = fnv1a(api::toJson(request), hash);
    for (const ServeClientPlan &client : inputs.clients) {
        hash = fnv1a(client.tenant + (client.http ? "/http" : "/rpc"),
                     hash);
        std::string picks;
        for (int pick : client.picks)
            picks += std::to_string(pick) + ',';
        hash = fnv1a(picks, hash);
    }
    return hash;
}

std::uint64_t
inputDigest(const FaultReplayInputs &inputs)
{
    std::uint64_t hash = fnv1a("fault_replay");
    for (const api::ScenarioRequest &request : inputs.timelines)
        hash = fnv1a(api::toJson(api::Request(request)), hash);
    return hash;
}

}  // namespace perfbench
