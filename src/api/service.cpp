#include "api/service.hpp"

#include <chrono>
#include <cstdio>

#include "api/request_key.hpp"
#include "core/schema.hpp"
#include "model/graph.hpp"

namespace temp::api {

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Validates an explicit uniform spec against a die budget; returns an
/// error message or empty.
std::string
checkSpec(const parallel::ParallelSpec &spec, int die_count)
{
    if (!spec.valid())
        return "invalid spec " + spec.str() +
               " (degrees must be >= 1; dp and fsdp are exclusive)";
    // The product in double: two in-range degrees of 2^16 already
    // overflow int, and a wrapped product would pass the check.
    const double dies = static_cast<double>(spec.dp) * spec.fsdp * spec.tp *
                        spec.sp * spec.cp * spec.tatp;
    if (dies > die_count) {
        char needs[64];
        std::snprintf(needs, sizeof(needs), "%.0f", dies);
        return "spec " + spec.str() + " needs " + needs +
               " dies, wafer has " + std::to_string(die_count);
    }
    return "";
}

/**
 * The parsers' field-table checks, for requests built in-process: a
 * value no request document may carry (seq = -4, a zero peak rate)
 * answers an error instead of reaching a model that panics on it. The
 * explicit specs keep their runtime check, checkSpec.
 */
template <typename R>
std::string
fieldsError(const R &request)
{
    const auto check = [](const auto &value, std::string_view what) {
        return core::fieldError(value, core::Source::Wire, what);
    };
    std::string error = check(request.model, "model");
    if constexpr (requires { request.wafer; })
        if (error.empty())
            error = check(request.wafer, "wafer");
    if constexpr (requires { request.pod; })
        if (error.empty())
            error = check(request.pod, "pod");
    return error.empty() ? check(request.options, "options") : error;
}

std::vector<std::string>
opNames(const model::ComputeGraph &graph)
{
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(graph.opCount()));
    for (int i = 0; i < graph.opCount(); ++i)
        names.push_back(graph.op(i).name);
    return names;
}

}  // namespace

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::Optimize: return "optimize";
    case RequestKind::Baseline: return "baseline";
    case RequestKind::Strategy: return "strategy";
    case RequestKind::Fault: return "fault";
    case RequestKind::MultiWafer: return "multiwafer";
    case RequestKind::CacheStats: return "cache-stats";
    case RequestKind::Scenario: return "scenario";
    }
    return "unknown";
}

TempService::TempService(ServiceOptions options)
    : frameworks_(options.cache.max_frameworks),
      pods_(options.cache.max_pods), pool_(options.request_threads)
{
}

void
TempService::applyServiceBudget(const common::CacheBudget &budget)
{
    if (budget.max_frameworks > 0)
        frameworks_.setCapacity(budget.max_frameworks);
    if (budget.max_pods > 0)
        pods_.setCapacity(budget.max_pods);
}

std::shared_ptr<core::TempFramework>
TempService::framework(const hw::WaferConfig &wafer,
                       const core::FrameworkOptions &options)
{
    bool reused = false;
    return frameworkFor(wafer, options, &reused);
}

std::shared_ptr<core::TempFramework>
TempService::frameworkFor(const hw::WaferConfig &wafer,
                          const core::FrameworkOptions &options,
                          bool *reused)
{
    applyServiceBudget(options.cache);
    const std::string key = frameworkKey(wafer, options);
    if (auto cached = frameworks_.get(key)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.framework_cache_hits;
        }
        *reused = true;
        // A block staged after this framework was built (load-after-
        // solve) still warms it: consumption is keyed by content, not
        // by build order.
        consumePendingBlock(key, **cached);
        return *cached;
    }
    // Build outside the cache lock so a slow construction never stalls
    // cache hits for other requests; if two threads race on the same
    // key, the loser's copy is discarded and the winner's is shared.
    auto fw = std::make_shared<core::TempFramework>(wafer, options);
    auto [resident, inserted] = frameworks_.insert(key, std::move(fw));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (inserted)
            ++stats_.frameworks_built;
        else
            ++stats_.framework_cache_hits;
    }
    *reused = !inserted;
    consumePendingBlock(key, *resident);
    return resident;
}

void
TempService::consumePendingBlock(const std::string &key,
                                 const core::TempFramework &fw)
{
    persist::MemoBlock block;
    {
        std::unique_lock<std::mutex> lock(persist_mutex_);
        import_done_.wait(lock, [&] { return !importing_.contains(key); });
        auto it = pending_blocks_.find(key);
        if (it == pending_blocks_.end())
            return;
        // Erase before importing: exactly one caller wins the block,
        // and a concurrent saveSnapshot() never double-writes it (the
        // framework it warmed re-exports the same memos).
        block = std::move(it->second);
        pending_blocks_.erase(it);
        importing_.insert(key);
        ++persist_stats_.frameworks_warmed;
    }
    // Import outside the lock: schedule replay lowers real schedules.
    // Requests racing for the same framework wait above until it ends.
    const auto finish_import = [&] {
        {
            std::lock_guard<std::mutex> lock(persist_mutex_);
            importing_.erase(key);
        }
        import_done_.notify_all();
    };
    try {
        fw.importMemos(block);
    } catch (...) {
        finish_import();
        throw;
    }
    finish_import();
}

bool
TempService::warmStart(const std::string &path, std::string *error)
{
    persist::Snapshot snapshot;
    std::string why;
    if (!persist::loadSnapshotFile(path, &snapshot, &why)) {
        std::lock_guard<std::mutex> lock(persist_mutex_);
        ++persist_stats_.load_failures;
        if (error)
            *error = why;
        return false;
    }
    std::lock_guard<std::mutex> lock(persist_mutex_);
    for (persist::MemoBlock &block : snapshot.blocks) {
        // First stage wins on key collision (self-merge of repeated
        // loads); resident frameworks win over both at import time.
        if (pending_blocks_.emplace(block.framework_key,
                                    std::move(block)).second)
            ++persist_stats_.blocks_staged;
    }
    ++persist_stats_.loads;
    return true;
}

bool
TempService::saveSnapshot(const std::string &path, std::string *error)
{
    persist::Snapshot snapshot;
    frameworks_.forEach(
        [&](const std::string &key,
            const std::shared_ptr<core::TempFramework> &fw) {
            persist::MemoBlock block = fw->exportMemos();
            block.framework_key = key;
            if (!block.empty())
                snapshot.blocks.push_back(std::move(block));
        });
    {
        // Carry unconsumed staged blocks so load -> save round-trips
        // losslessly even when the matching wafer was never requested.
        std::lock_guard<std::mutex> lock(persist_mutex_);
        for (const auto &[key, block] : pending_blocks_) {
            bool exported = false;
            for (const persist::MemoBlock &b : snapshot.blocks)
                if (b.framework_key == key) {
                    exported = true;
                    break;
                }
            if (!exported)
                snapshot.blocks.push_back(block);
        }
    }
    if (!persist::saveSnapshotFile(path, snapshot, error))
        return false;
    std::lock_guard<std::mutex> lock(persist_mutex_);
    ++persist_stats_.saves;
    return true;
}

TempService::PersistStats
TempService::persistStats() const
{
    std::lock_guard<std::mutex> lock(persist_mutex_);
    return persist_stats_;
}

std::shared_ptr<sim::MultiWaferSimulator>
TempService::podFor(const hw::MultiWaferConfig &pod,
                    const core::FrameworkOptions &options, bool *reused)
{
    applyServiceBudget(options.cache);
    const std::string key = podKey(pod, options);
    if (auto cached = pods_.get(key)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.pod_cache_hits;
        *reused = true;
        return *cached;
    }
    auto sim = std::make_shared<sim::MultiWaferSimulator>(
        pod, options.policy, options.training);
    auto [resident, inserted] = pods_.insert(key, std::move(sim));
    std::lock_guard<std::mutex> lock(mutex_);
    if (inserted) {
        ++stats_.pods_built;
        *reused = false;
    } else {
        ++stats_.pod_cache_hits;
        *reused = true;
    }
    return resident;
}

Response
TempService::finish(Response response, double start_time)
{
    response.wall_time_s = now() - start_time;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
    return response;
}

Response
TempService::run(const OptimizeRequest &request,
                 const solver::SolveBudget &budget)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::Optimize;
    response.error = fieldsError(request);
    if (!response.error.empty())
        return finish(std::move(response), t0);
    auto fw = frameworkFor(request.wafer, request.options,
                           &response.framework_reused);
    response.solver = fw->optimize(request.model, budget);
    response.budget_exhausted = response.solver.budget_exhausted;
    response.quanta_used = response.solver.quanta_used;
    response.report = response.solver.report;
    response.op_names =
        opNames(model::ComputeGraph::transformer(request.model));
    response.evaluator_stats = fw->evaluatorStats();
    response.step_stats = fw->stepStats();
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const BaselineRequest &request, const solver::SolveBudget &)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::Baseline;
    response.error = fieldsError(request);
    if (!response.error.empty())
        return finish(std::move(response), t0);
    auto fw = frameworkFor(request.wafer, request.options,
                           &response.framework_reused);
    response.baseline =
        fw->evaluateBaseline(request.kind, request.engine, request.model);
    response.report = response.baseline.report;
    response.evaluator_stats = fw->evaluatorStats();
    response.step_stats = fw->stepStats();
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const StrategyRequest &request, const solver::SolveBudget &)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::Strategy;
    response.error = fieldsError(request);
    if (response.error.empty())
        response.error = checkSpec(request.spec, request.wafer.dieCount());
    if (!response.error.empty())
        return finish(std::move(response), t0);
    auto fw = frameworkFor(request.wafer, request.options,
                           &response.framework_reused);
    response.report = fw->evaluateStrategy(request.model, request.spec);
    response.evaluator_stats = fw->evaluatorStats();
    response.step_stats = fw->stepStats();
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const FaultRequest &request,
                 const solver::SolveBudget &budget)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::Fault;
    response.error = fieldsError(request);
    if (!response.error.empty())
        return finish(std::move(response), t0);
    auto fw = frameworkFor(request.wafer, request.options,
                           &response.framework_reused);

    // Fault localisation input: the caller's explicit map, or random
    // injection drawn exactly like examples/fault_aware_training (one
    // RNG, links first, cores second).
    const hw::Wafer &healthy = fw->wafer();
    hw::FaultMap faults(healthy.dieCount(),
                        healthy.topology().linkCount());
    if (request.faults) {
        faults = *request.faults;
    } else {
        Rng rng(request.fault_seed);
        if (request.link_fault_rate > 0.0)
            faults = hw::FaultMap::randomLinkFaults(
                healthy.topology(), request.link_fault_rate, rng);
        if (request.core_fault_rate > 0.0) {
            const hw::FaultMap cores = hw::FaultMap::randomCoreFaults(
                healthy.topology(), request.core_fault_rate, rng);
            for (hw::DieId die = 0; die < healthy.dieCount(); ++die)
                faults.setCoreFaultFraction(
                    die, cores.coreFaultFraction(die));
        }
    }

    const hw::Wafer degraded(request.wafer, faults);
    response.usable_dies = degraded.usableDieCount();
    response.solver =
        fw->optimizeWithFaults(request.model, faults, budget);
    response.budget_exhausted = response.solver.budget_exhausted;
    response.quanta_used = response.solver.quanta_used;
    response.report = response.solver.report;
    response.op_names =
        opNames(model::ComputeGraph::transformer(request.model));
    response.evaluator_stats = fw->evaluatorStats();
    response.step_stats = fw->stepStats();
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const MultiWaferRequest &request, const solver::SolveBudget &)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::MultiWafer;
    response.error = fieldsError(request);
    if (!response.error.empty())
        return finish(std::move(response), t0);

    // Pre-validate everything MultiWaferSimulator would fatal() on, so
    // a malformed request degrades to an error response instead of
    // terminating the service.
    const int wafers = request.pod.wafer_count;
    const int pp = request.pp;
    const int micro = request.microbatches;
    if (wafers < 1 || pp < 1 || micro < 1) {
        response.error = "pod wafer_count, pp and microbatches must be "
                         "positive";
        return finish(std::move(response), t0);
    }
    if (pp <= wafers ? wafers % pp != 0
                     : (pp % wafers != 0 ||
                        request.pod.wafer.cols % (pp / wafers) != 0)) {
        response.error =
            "pp=" + std::to_string(pp) + " incompatible with " +
            std::to_string(wafers) + " wafers of " +
            std::to_string(request.pod.wafer.cols) + " cols";
        return finish(std::move(response), t0);
    }
    if (request.model.layers % pp != 0) {
        response.error = std::to_string(request.model.layers) +
                         " layers not divisible by pp=" +
                         std::to_string(pp);
        return finish(std::move(response), t0);
    }
    if (request.model.batch % micro != 0) {
        response.error = "batch " + std::to_string(request.model.batch) +
                         " not divisible by m=" + std::to_string(micro);
        return finish(std::move(response), t0);
    }

    auto pod = podFor(request.pod, request.options,
                      &response.framework_reused);
    response.stage_fabric = pod->stageFabric(pp);
    response.error = checkSpec(request.intra_spec,
                               response.stage_fabric.dieCount());
    if (!response.error.empty())
        return finish(std::move(response), t0);

    const model::ComputeGraph graph =
        model::ComputeGraph::transformer(request.model);
    response.report =
        pod->simulate(graph, request.intra_spec, pp, micro);
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const CacheStatsRequest &, const solver::SolveBudget &)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::CacheStats;

    // Service-level maps first, then the per-framework layers
    // aggregated across every cached framework in a fixed order so
    // the JSON stays byte-stable.
    response.cache_layers.push_back(
        {"service_frameworks", frameworks_.stats()});
    response.cache_layers.push_back({"service_pods", pods_.stats()});
    const std::size_t first_layer = response.cache_layers.size();
    frameworks_.forEach(
        [&](const std::string &,
            const std::shared_ptr<core::TempFramework> &fw) {
            const auto layers = fw->cacheStats();
            if (response.cache_layers.size() == first_layer) {
                for (const auto &[name, stats] : layers)
                    response.cache_layers.push_back({name, stats});
                return;
            }
            for (std::size_t i = 0; i < layers.size(); ++i)
                response.cache_layers[first_layer + i].stats +=
                    layers[i].second;
        });
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const ScenarioRequest &request,
                 const solver::SolveBudget &budget)
{
    const double t0 = now();
    Response response;
    response.kind = RequestKind::Scenario;
    if (request.events.empty()) {
        response.error = "scenario: empty event timeline";
        return finish(std::move(response), t0);
    }
    response.error = fieldsError(request);
    for (std::size_t i = 0;
         i < request.events.size() && response.error.empty(); ++i)
        if (request.events[i].kind == scenario::Event::Kind::ModelSwitch)
            response.error = core::fieldError(
                request.events[i].model, core::Source::Wire,
                "events[" + std::to_string(i) + "].model");
    if (!response.error.empty())
        return finish(std::move(response), t0);
    auto fw = frameworkFor(request.wafer, request.options,
                           &response.framework_reused);
    scenario::ScenarioEngine::Options opts;
    opts.warm_seed = request.warm_seed;
    // The caller's budget bounds EACH re-solve in the replay (bounded
    // recovery per fault event), not the whole timeline — a storm of
    // N events gets N bounded recoveries.
    opts.solve_budget = budget;
    scenario::ScenarioEngine engine(fw, opts);
    response.scenario = engine.replay(request.model, request.events);
    response.budget_exhausted =
        response.scenario.budget_exhausted_events > 0;
    response.quanta_used = response.scenario.total_quanta;
    response.evaluator_stats = fw->evaluatorStats();
    response.step_stats = fw->stepStats();
    response.ok = true;
    return finish(std::move(response), t0);
}

Response
TempService::run(const Request &request,
                 const solver::SolveBudget &budget)
{
    return std::visit([&](const auto &r) { return run(r, budget); },
                      request);
}

std::future<Response>
TempService::submit(Request request)
{
    // Stamp the enqueue time here: a submit()ed request's latency is
    // queue wait + execution, and reporting only the execution span
    // (the historical bug) under-reports exactly when the service is
    // busiest.
    const double enqueued = now();
    return pool_.submit([this, enqueued,
                         request = std::move(request)] {
        const double started = now();
        Response response = run(request);
        response.queue_time_s = started - enqueued;
        response.wall_time_s = now() - enqueued;
        return response;
    });
}

TempService::Stats
TempService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace temp::api
