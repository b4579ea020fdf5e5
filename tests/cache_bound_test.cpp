/**
 * @file
 * Cache-governance tests: LRU eviction correctness of the
 * common::LruMap/BoundedCache machinery (order, pinning, honest
 * recounting of evicted keys), bounded-vs-unbounded bit-exactness of
 * a real solve, per-layer budget enforcement observed through
 * CacheStatsRequest, setFaults() clearing every fault-derived layer,
 * and queue-time-aware submit() latency.
 */
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/serialize.hpp"
#include "api/service.hpp"
#include "common/bounded_cache.hpp"
#include "core/framework.hpp"
#include "cost/cost_model.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "solver/strategy_space.hpp"

namespace temp {
namespace {

// ---------------------------------------------------------------
// LruMap / BoundedCache unit behaviour
// ---------------------------------------------------------------

TEST(LruMap, EvictsLeastRecentlyUsedAndCountsEvictions)
{
    common::LruMap<int, int> map(2);
    map.insert(1, 10);
    map.insert(2, 20);
    ASSERT_NE(map.touch(1), nullptr);  // 1 is now most recent
    map.insert(3, 30);                 // evicts 2, the LRU entry
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.peek(2), nullptr);
    ASSERT_NE(map.peek(1), nullptr);
    EXPECT_EQ(*map.peek(1), 10);
    ASSERT_NE(map.peek(3), nullptr);
    EXPECT_EQ(map.evictions(), 1);

    // Shrinking the budget evicts immediately (keeping the MRU).
    map.setCapacity(1);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.evictions(), 2);
}

TEST(LruMap, BudgetAppliedLateListsTheResidentEntries)
{
    // An unbounded map keeps no recency; a budget that first applies
    // lists the resident entries and evicts down to it, and recency
    // holds from then on.
    common::LruMap<int, int> map;
    for (int i = 0; i < 5; ++i)
        map.insert(i, i);
    ASSERT_NE(map.touch(2), nullptr);
    map.setCapacity(3);
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.evictions(), 2);

    int survivor = -1;
    map.forEachResident([&](int key, int) { survivor = key; });
    ASSERT_NE(map.touch(survivor), nullptr);
    map.insert(10, 10);
    map.insert(11, 11);  // evicts the two untouched listed entries
    EXPECT_EQ(map.size(), 3u);
    EXPECT_NE(map.peek(survivor), nullptr);
    EXPECT_NE(map.peek(10), nullptr);
    EXPECT_EQ(map.evictions(), 4);

    // Dropping the budget drops the list; the next one rebuilds it.
    map.setCapacity(0);
    for (int i = 20; i < 30; ++i)
        map.insert(i, i);
    EXPECT_EQ(map.size(), 13u);
    EXPECT_EQ(map.evictions(), 4);
    map.setCapacity(4);
    EXPECT_EQ(map.size(), 4u);
    EXPECT_EQ(map.evictions(), 13);
}

TEST(LruMap, MruIsNeverDropped)
{
    // A byte budget smaller than one entry: every insert is over
    // budget, yet the freshly inserted (MRU) entry stays resident and
    // the pointer insert() returns stays valid.
    common::LruMap<int, std::shared_ptr<int>> map;
    map.setMaxBytes(1);
    map.insert(1, std::make_shared<int>(1));
    auto [resident, inserted] = map.insert(2, std::make_shared<int>(2));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(**resident, 2);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.peek(1), nullptr);
    EXPECT_EQ(map.evictions(), 1);
}

TEST(BoundedCache, EvictedKeysRecountAsMissesHonestly)
{
    common::BoundedCache<std::string, int> cache(2);
    EXPECT_FALSE(cache.get("a").has_value());  // miss 1
    cache.insert("a", 1);
    cache.insert("b", 2);
    EXPECT_TRUE(cache.get("a").has_value());  // hit (a is now MRU)
    cache.insert("c", 3);                     // evicts b
    EXPECT_LE(cache.stats().entries, 2);
    EXPECT_EQ(cache.stats().evictions, 1);

    // The evicted key is gone and honestly recounts as a miss — the
    // cache never pretends evicted work was free.
    EXPECT_FALSE(cache.get("b").has_value());
    const common::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 2);  // the cold "a" probe and the re-probe
    EXPECT_GT(stats.bytes_est, 0);

    // Unbounded caches never evict.
    common::BoundedCache<std::string, int> unbounded;
    for (int i = 0; i < 100; ++i)
        unbounded.insert(std::to_string(i), i);
    EXPECT_EQ(unbounded.stats().entries, 100);
    EXPECT_EQ(unbounded.stats().evictions, 0);
}

TEST(LruMap, ByteBudgetEvictsOverBytesAndKeepsMru)
{
    common::LruMap<int, std::string> map;
    map.setByteEstimate([](const int &, const std::string &value) {
        return static_cast<long>(value.size());
    });
    map.setMaxBytes(100);

    map.insert(1, std::string(40, 'a'));
    map.insert(2, std::string(40, 'b'));
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.bytesEstimate(), 80);

    // The third 40-byte value breaks the 100-byte budget: the LRU
    // entry goes, the gauge stays honest.
    map.insert(3, std::string(40, 'c'));
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.peek(1), nullptr);
    EXPECT_LE(map.bytesEstimate(), 100);
    EXPECT_EQ(map.evictions(), 1);

    // One value larger than the whole budget: everything else is
    // evicted, but the fresh (MRU) entry itself is never dropped —
    // a budget may transiently overshoot rather than refuse work.
    map.insert(4, std::string(400, 'd'));
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.peek(4), nullptr);
    EXPECT_EQ(map.bytesEstimate(), 400);

    // Shrinking the byte budget later cannot drop the lone MRU either.
    map.setMaxBytes(10);
    EXPECT_EQ(map.size(), 1u);

    // The budgets compose: a roomy byte budget with a 1-entry cap
    // still evicts down to one entry.
    map.setMaxBytes(1 << 20);
    map.insert(5, std::string(8, 'e'));
    map.setCapacity(1);
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.peek(5), nullptr);  // the MRU survives
}

TEST(BoundedCache, ByteBudgetComposesWithEntryBudget)
{
    common::BoundedCache<std::string, std::string> cache;
    cache.setMaxBytes(1 << 10);
    EXPECT_TRUE(cache.bounded());  // byte budget alone bounds it

    // ~96 bytes of payload per entry (plus key overhead): a 1 KiB
    // budget holds only a handful of the 64 inserted entries.
    for (int i = 0; i < 64; ++i)
        cache.insert("key-" + std::to_string(i),
                     std::string(96, 'x'));
    common::CacheStats stats = cache.stats();
    EXPECT_LT(stats.entries, 64);
    EXPECT_GT(stats.evictions, 0);
    EXPECT_GT(stats.bytes_est, 0);

    // Evicted values recount as misses; resident ones still hit.
    EXPECT_FALSE(cache.get("key-0").has_value());
    EXPECT_TRUE(cache.get("key-63").has_value());

    // Lifting the byte budget stops further eviction pressure.
    cache.setMaxBytes(0);
    const long evictions_before = cache.stats().evictions;
    for (int i = 64; i < 96; ++i)
        cache.insert("key-" + std::to_string(i),
                     std::string(96, 'x'));
    EXPECT_EQ(cache.stats().evictions, evictions_before);
}

// ---------------------------------------------------------------
// Bounded solves: bit-exact results, budgets enforced end to end
// ---------------------------------------------------------------

core::FrameworkOptions
fastOptions()
{
    core::FrameworkOptions options;
    options.solver.ga_population = 8;
    options.solver.ga_generations = 4;
    options.eval_threads = 2;
    return options;
}

/// Two entries per budgeted memo layer (routes are not budgeted: they
/// live in per-epoch storage that cached entries keep alive).
common::CacheBudget
tinyBudget()
{
    common::CacheBudget budget;
    budget.max_eval_entries = 2;
    budget.max_step_entries = 2;
    budget.max_layout_entries = 2;
    budget.max_schedule_entries = 2;
    return budget;
}

TEST(CacheBound, BudgetTwoSolveIsBitIdenticalToUnbounded)
{
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();

    const core::TempFramework unbounded(wafer, fastOptions());
    const solver::SolverResult expected = unbounded.optimize(model);
    ASSERT_TRUE(expected.feasible);
    EXPECT_EQ(expected.cache_evictions, 0);  // default budgets: none

    core::FrameworkOptions bounded_options = fastOptions();
    bounded_options.cache = tinyBudget();
    const core::TempFramework bounded(wafer, bounded_options);
    const solver::SolverResult result = bounded.optimize(model);

    // Eviction changes memory residency, never answers: every cached
    // value is a pure function of its key, so recomputation is
    // bit-identical.
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.per_op_specs, expected.per_op_specs);
    EXPECT_DOUBLE_EQ(result.step_time_s, expected.step_time_s);
    // ...and the budget pressure is honestly visible.
    EXPECT_GT(result.cache_evictions, 0);

    // A repeat on the bounded framework re-measures evicted cells and
    // recounts them as measurements — unlike the unbounded repeat,
    // which is served entirely from the memo stack.
    const solver::SolverResult repeat = bounded.optimize(model);
    EXPECT_EQ(repeat.per_op_specs, expected.per_op_specs);
    EXPECT_DOUBLE_EQ(repeat.step_time_s, expected.step_time_s);
    EXPECT_GT(repeat.matrix_measurements, 0);
    const solver::SolverResult unbounded_repeat =
        unbounded.optimize(model);
    EXPECT_EQ(unbounded_repeat.matrix_measurements, 0);
    EXPECT_EQ(unbounded_repeat.step_sims, 0);

    // Every layer honours its budget. The cost model's memos (layouts,
    // stream plans, timed phases, op cells) ride the same budgets and
    // were under real pressure.
    std::set<std::string> seen;
    for (const auto &[layer, stats] : bounded.cacheStats()) {
        seen.insert(layer);
        if (layer == "step_reports" || layer == "layouts" ||
            layer == "stream_plans" || layer == "collective_phases" ||
            layer == "sim_cells")
            EXPECT_LE(stats.entries, 2) << layer;
        if (layer == "layouts" || layer == "stream_plans" ||
            layer == "collective_phases" || layer == "sim_cells") {
            EXPECT_GT(stats.evictions, 0) << layer;
            EXPECT_GT(stats.misses, 0) << layer;
        }
        EXPECT_GE(stats.entries, 0) << layer;
    }
    for (const char *layer :
         {"layouts", "stream_plans", "collective_phases", "sim_cells"})
        EXPECT_TRUE(seen.count(layer)) << layer;
    EXPECT_FALSE(seen.count("eval_breakdowns"));
}

TEST(CacheBound, ByteBudgetedSolveIsBitIdenticalAndVisible)
{
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();

    const core::TempFramework unbounded(wafer, fastOptions());
    const solver::SolverResult expected = unbounded.optimize(model);
    ASSERT_TRUE(expected.feasible);

    // Byte budgets only — entry budgets stay unbounded, so every
    // eviction here is driven by the bytes_est estimators.
    core::FrameworkOptions options = fastOptions();
    options.cache.max_eval_bytes = 64 << 10;
    options.cache.max_step_bytes = 8 << 10;
    options.cache.max_layout_bytes = 64 << 10;
    options.cache.max_schedule_bytes = 32 << 10;
    const core::TempFramework bounded(wafer, options);
    const solver::SolverResult result = bounded.optimize(model);

    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.per_op_specs, expected.per_op_specs);
    EXPECT_DOUBLE_EQ(result.step_time_s, expected.step_time_s);
    EXPECT_GT(result.cache_evictions, 0);

    // The gauges respect the budgets they were given (the route pool
    // is unbudgeted here).
    for (const auto &[layer, stats] : bounded.cacheStats()) {
        if (layer == "step_reports")
            EXPECT_LE(stats.bytes_est, 8 << 10) << layer;
        else if (layer == "collective_phases")
            EXPECT_LE(stats.bytes_est, 32 << 10) << layer;
        else if (layer == "layouts" || layer == "stream_plans" ||
                 layer == "sim_cells")
            EXPECT_LE(stats.bytes_est, 64 << 10) << layer;
        EXPECT_GE(stats.bytes_est, 0) << layer;
    }
}

TEST(CacheBound, ServiceBudgetsHoldAfterEveryRequestAndEvictLru)
{
    api::ServiceOptions service_options;
    service_options.cache.max_frameworks = 1;
    api::TempService service(service_options);

    core::FrameworkOptions options = fastOptions();
    options.cache = tinyBudget();
    const api::OptimizeRequest request{
        model::modelByName("GPT-3 6.7B"),
        hw::WaferConfig::paperDefault(), options};

    const auto check_budgets = [&] {
        const api::Response stats =
            service.run(api::CacheStatsRequest{});
        ASSERT_TRUE(stats.ok);
        for (const api::CacheLayerStats &layer : stats.cache_layers) {
            if (layer.layer == "service_frameworks")
                EXPECT_LE(layer.stats.entries, 1);
            else if (layer.layer == "step_reports" ||
                     layer.layer == "layouts" ||
                     layer.layer == "stream_plans" ||
                     layer.layer == "collective_phases" ||
                     layer.layer == "sim_cells")
                EXPECT_LE(layer.stats.entries, 2) << layer.layer;
        }
    };

    const api::Response first = service.run(request);
    ASSERT_TRUE(first.ok);
    check_budgets();

    // A second option set evicts the first framework (LRU, budget 1)...
    api::OptimizeRequest other = request;
    other.options.solver.seed = 99;
    ASSERT_TRUE(service.run(other).ok);
    check_budgets();
    EXPECT_EQ(service.stats().frameworks_built, 2);

    // ...and returning to the first recounts as a fresh build, not a
    // phantom cache hit.
    const api::Response again = service.run(request);
    ASSERT_TRUE(again.ok);
    EXPECT_FALSE(again.framework_reused);
    EXPECT_EQ(service.stats().frameworks_built, 3);
    check_budgets();

    // The repeat against the *resident* framework reuses it — but its
    // budget-2 memos evicted nearly everything, so the re-measurement
    // is honestly reported instead of pretending a phantom cache hit.
    const api::Response repeat = service.run(request);
    EXPECT_TRUE(repeat.framework_reused);
    EXPECT_GT(repeat.solver.matrix_measurements, 0);
    EXPECT_GT(repeat.solver.cache_evictions, 0);
    EXPECT_EQ(repeat.solver.per_op_specs, first.solver.per_op_specs);

    // The stats response itself serializes with every layer present.
    const std::string json =
        api::toJson(service.run(api::CacheStatsRequest{}));
    for (const char *layer :
         {"service_frameworks", "service_pods", "step_reports", "layouts",
          "routes", "stream_plans", "collective_phases", "sim_cells"})
        EXPECT_NE(json.find(layer), std::string::npos) << layer;
    EXPECT_EQ(json.find("eval_breakdowns"), std::string::npos);
    EXPECT_EQ(json.find("\"schedules\""), std::string::npos);
    EXPECT_NE(json.find("\"evictions\":"), std::string::npos);
}

// ---------------------------------------------------------------
// Eager flushing on a fault change
// ---------------------------------------------------------------

TEST(CacheBound, SetFaultsFlushesPhaseMemoAndRoutePoolEagerly)
{
    // Fault-injection sweeps must not retain anything derived from the
    // old fault state until some later lookup: setFaults() clears every
    // fault-derived memo layer of a framework before it returns.
    const core::TempFramework framework(hw::WaferConfig::paperDefault());
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    const model::ComputeGraph graph =
        model::ComputeGraph::transformer(model);
    // A data- and TATP-parallel plan, so collective phases and stream
    // plans are both populated.
    parallel::ParallelSpec tatp;
    for (const parallel::ParallelSpec &spec : solver::enumerateStrategies(
             framework.wafer().dieCount(), model,
             solver::StrategySpaceOptions{}))
        if (spec.dp > 1 && spec.tatp > 1) {
            tatp = spec;
            break;
        }
    ASSERT_GT(tatp.tatp, 1);
    ASSERT_TRUE(framework.stepEvaluator().evaluate(graph, tatp).feasible);
    const auto layers = framework.cacheStats();
    ASSERT_EQ(layers.size(), 6u);
    for (const auto &[layer, stats] : layers)
        EXPECT_GT(stats.entries, 0) << layer;

    // The framework owns its wafer; a live fault swap goes through it.
    hw::Wafer &wafer = const_cast<hw::Wafer &>(framework.wafer());
    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    wafer.setFaults(faults);

    // No lookup has run since the injection: every layer is empty.
    for (const auto &[layer, stats] : framework.cacheStats())
        EXPECT_EQ(stats.entries, 0) << layer;

    // And the next evaluation repopulates against the degraded fabric.
    (void)framework.stepEvaluator().evaluate(graph, tatp);
    for (const auto &[layer, stats] : framework.cacheStats())
        EXPECT_GT(stats.entries, 0) << layer;
}

// ---------------------------------------------------------------
// submit() latency accounting
// ---------------------------------------------------------------

TEST(CacheBound, SubmitReportsQueueTimeAndEndToEndWallTime)
{
    api::ServiceOptions service_options;
    service_options.request_threads = 2;
    api::TempService service(service_options);

    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    const core::FrameworkOptions options = fastOptions();

    parallel::ParallelSpec spec;
    spec.dp = 4;
    spec.tatp = 8;

    // Synchronous run(): no queue, wall time is the execution span.
    const api::Response sync =
        service.run(api::StrategyRequest{model, wafer, options, spec});
    ASSERT_TRUE(sync.ok);
    EXPECT_EQ(sync.queue_time_s, 0.0);
    EXPECT_GT(sync.wall_time_s, 0.0);

    // submit(): wall time is measured from the enqueue, so it always
    // covers the queue wait (the historical bug under-reported by
    // exactly queue_time_s when the pool was busy).
    std::vector<std::future<api::Response>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(service.submit(
            api::StrategyRequest{model, wafer, options, spec}));
    for (std::future<api::Response> &f : futures) {
        const api::Response r = f.get();
        ASSERT_TRUE(r.ok);
        EXPECT_GE(r.queue_time_s, 0.0);
        EXPECT_GE(r.wall_time_s, r.queue_time_s);
        EXPECT_GT(r.wall_time_s, 0.0);
    }

    // queue_time_s is part of the JSON envelope.
    const std::string json = api::toJson(sync);
    EXPECT_NE(json.find("\"queue_time_s\":"), std::string::npos);
}

}  // namespace
}  // namespace temp
