/**
 * @file
 * Tests for the network hot path's schedule layer: ScheduleCache
 * hit/miss accounting, bit-exact cached vs. uncached timings,
 * fault invalidation through the wafer's fault listeners (injected
 * faults must not reuse stale routes), flat-arena CommSchedule invariants, concurrent cold
 * lookups (each task lowered once, outside the lock), the lifetime of
 * per-epoch route storage, and determinism of the whole stack across
 * eval_threads.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "cost/cost_model.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "net/collective.hpp"
#include "net/schedule_cache.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/strategy_space.hpp"

namespace temp::net {
namespace {

CollectiveTask
allReduceTask(const hw::Topology &fabric, const std::vector<DieId> &group,
              double bytes, int tag = 0)
{
    CollectiveTask task;
    task.kind = CollectiveKind::AllReduce;
    task.group = fabric.dieGroups().intern(group);
    task.bytes = bytes;
    task.tag = tag;
    return task;
}

TEST(ScheduleCache, CountsLoweringsAndHitsHonestly)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);

    const CollectiveTask task =
        allReduceTask(wafer.topology(), {0, 1, 2, 3}, 4e6);
    const auto first = cache.lowered(task);
    EXPECT_EQ(cache.stats().lowerings, 1);
    EXPECT_EQ(cache.stats().hits, 0);
    const auto second = cache.lowered(task);
    // Hits share the lowered instance, they do not re-lower.
    EXPECT_EQ(first.get(), second.get());

    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.lowerings, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
    EXPECT_EQ(cache.size(), 1u);

    // A different signature (bytes) is its own entry.
    cache.lowered(allReduceTask(wafer.topology(), {0, 1, 2, 3}, 8e6));
    EXPECT_EQ(cache.stats().lowerings, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ScheduleCache, CachedScheduleTimesBitExactly)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);
    ContentionModel contention(wafer, 200e-9);

    for (int size : {2, 4, 8, 16}) {
        std::vector<DieId> group;
        for (int i = 0; i < size; ++i)
            group.push_back(i);
        const CollectiveTask task =
            allReduceTask(wafer.topology(), group, 1e6 * size);

        const CommSchedule fresh = scheduler.schedule(task);
        const auto cached = cache.lowered(task);
        const auto served = cache.lowered(task);

        const PhaseTiming t_fresh = contention.evaluateSequence(fresh);
        const PhaseTiming t_cached = contention.evaluateSequence(*cached);
        const PhaseTiming t_served = contention.evaluateSequence(*served);
        EXPECT_EQ(t_fresh.time_s, t_cached.time_s);
        EXPECT_EQ(t_fresh.time_s, t_served.time_s);
        EXPECT_EQ(t_fresh.total_bytes, t_cached.total_bytes);
        EXPECT_EQ(t_fresh.bottleneck_link, t_cached.bottleneck_link);
        EXPECT_EQ(fresh.linkBytes(), cached->linkBytes());
    }
}

TEST(ScheduleCache, FaultInjectionBumpsEpochAndInvalidates)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);
    // What an owner's fault listener does (the cost model's does this
    // and more).
    const std::uint64_t listener = wafer.addFaultListener([&] {
        cache.clear();
        router.newEpoch();
    });

    const CollectiveTask task =
        allReduceTask(wafer.topology(), {0, 1, 2, 3}, 4e6);
    const auto healthy = cache.lowered(task);
    EXPECT_TRUE(healthy->feasible);

    // Fail the 1->2 channel (both directions), which the healthy ring
    // crosses.
    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    faults.failLink(wafer.topology().linkId(2, 1));
    wafer.setFaults(faults);
    EXPECT_EQ(cache.size(), 0u);

    // The stale schedule must not be served: the lookup re-lowers
    // against the degraded fabric and the detour shows up as longer
    // routes.
    const auto degraded = cache.lowered(task);
    EXPECT_EQ(cache.stats().lowerings, 2);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_TRUE(degraded->feasible);
    EXPECT_GT(degraded->linkBytes(), healthy->linkBytes());
    for (const Flow &flow : degraded->flows())
        for (LinkId link : flow.route.links())
            EXPECT_TRUE(wafer.linkUsable(link));

    // Same fault state again: served from the rebuilt cache.
    cache.lowered(task);
    EXPECT_EQ(cache.stats().lowerings, 2);
    EXPECT_EQ(cache.stats().hits, 1);
    wafer.removeFaultListener(listener);
}

TEST(ScheduleCache, CostModelReactsToLiveFaultInjection)
{
    // End-to-end: the cost model's shared cache and its wafer-bound
    // contention snapshot must both observe setFaults() on a live
    // wafer.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const std::vector<CollectiveTask> tasks{
        allReduceTask(wafer.topology(), {0, 1, 2, 3}, 64e6)};

    const PhaseTiming healthy = model.timeCollectiveTasks(tasks);
    const net::ScheduleCacheStats before = model.scheduleStats();
    EXPECT_GT(before.lowerings, 0);

    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    faults.failLink(wafer.topology().linkId(2, 1));
    wafer.setFaults(faults);

    const PhaseTiming degraded = model.timeCollectiveTasks(tasks);
    const net::ScheduleCacheStats after = model.scheduleStats();
    // The fault listener forced a re-lowering instead of a stale hit...
    EXPECT_GT(after.lowerings, before.lowerings);
    // ...and the detour costs more wall time than the healthy ring.
    EXPECT_GT(degraded.time_s, healthy.time_s);
}

TEST(CommSchedule, FlatArenaRoundsPartitionTheFlowArena)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);

    const CommSchedule s = scheduler.ringAllReduce(
        {0, 1, 2, 3, 4, 5, 6, 7}, 32e6);
    std::size_t stored = 0;
    for (int i = 0; i < s.runCount(); ++i) {
        const auto run = s.run(i);
        // Runs are contiguous, ordered slices of flows().
        EXPECT_EQ(run.data(), s.flows().data() + stored);
        stored += run.size();
    }
    EXPECT_EQ(stored, s.flows().size());
    // Executed rounds each view the run they repeat.
    std::size_t spanned = 0;
    for (int r = 0; r < s.roundCount(); ++r)
        spanned += s.round(r).size();
    EXPECT_EQ(spanned, s.flowCount());

    // combine() interleaves per round and preserves totals.
    const CommSchedule a = scheduler.p2p(0, 3, 1e6);
    const CommSchedule b = scheduler.ringAllGather({4, 5, 6, 7}, 2e6);
    const CommSchedule *parts[] = {&a, &b};
    const CommSchedule merged = CommSchedule::combine(parts);
    EXPECT_EQ(merged.roundCount(), b.roundCount());
    EXPECT_EQ(merged.flowCount(), a.flowCount() + b.flowCount());
    EXPECT_DOUBLE_EQ(merged.payload_bytes,
                     a.payload_bytes + b.payload_bytes);
    EXPECT_DOUBLE_EQ(merged.linkBytes(), a.linkBytes() + b.linkBytes());
}

TEST(ScheduleCache, SolveIsDeterministicAcrossEvalThreads)
{
    // The flat-arena schedules and the shared cache must not leak any
    // thread-count dependence into results: identical per-op specs and
    // bit-identical step time for 1-thread and 4-thread frameworks,
    // and the same lowerings (a task is lowered once at any width;
    // hits count the lookups that ran, which the width moves).
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    core::FrameworkOptions serial;
    serial.eval_threads = 1;
    serial.solver.ga_population = 8;
    serial.solver.ga_generations = 4;
    core::FrameworkOptions wide = serial;
    wide.eval_threads = 4;

    const core::TempFramework f1(hw::WaferConfig::paperDefault(), serial);
    const core::TempFramework f4(hw::WaferConfig::paperDefault(), wide);
    const solver::SolverResult r1 = f1.optimize(model);
    const solver::SolverResult r4 = f4.optimize(model);

    ASSERT_TRUE(r1.feasible);
    ASSERT_TRUE(r4.feasible);
    EXPECT_EQ(r1.per_op_specs, r4.per_op_specs);
    EXPECT_DOUBLE_EQ(r1.step_time_s, r4.step_time_s);
    EXPECT_GT(r1.schedule_lowerings, 0);
    EXPECT_GT(r1.schedule_cache_hits, 0);
    EXPECT_EQ(r1.schedule_lowerings, r4.schedule_lowerings);
    // Cold-solve acceptance: most lookups are served by the cache.
    const double hit_rate =
        static_cast<double>(r1.schedule_cache_hits) /
        static_cast<double>(r1.schedule_lowerings +
                            r1.schedule_cache_hits);
    EXPECT_GT(hit_rate, 0.5);
}

TEST(ScheduleCache, SolveCountsEveryLoweringOnceAtAnyWidth)
{
    // A solve's schedule counters are the cache's own: a cold solve
    // lowers exactly what the `schedules` layer missed, the same at
    // every width and under every engine, and a warm repeat reaches
    // the cache not at all.
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    for (solver::SearchEngineKind engine :
         {solver::SearchEngineKind::NoRefine,
          solver::SearchEngineKind::Genetic,
          solver::SearchEngineKind::BeamTabu}) {
        std::vector<long> lowerings;
        for (int threads : {1, 4}) {
            core::FrameworkOptions options;
            options.eval_threads = threads;
            options.solver.engine = engine;
            const core::TempFramework framework(
                hw::WaferConfig::paperDefault(), options);
            const std::string label =
                std::string(solver::searchEngineName(engine)) + " @ " +
                std::to_string(threads);
            const solver::SolverResult cold = framework.optimize(model);
            ASSERT_TRUE(cold.feasible) << label;
            long misses = -1;
            for (const auto &[layer, stats] : framework.cacheStats())
                if (layer == "schedules")
                    misses = stats.misses;
            EXPECT_GT(cold.schedule_lowerings, 0) << label;
            EXPECT_EQ(cold.schedule_lowerings, misses) << label;
            lowerings.push_back(cold.schedule_lowerings);

            const solver::SolverResult warm = framework.optimize(model);
            EXPECT_EQ(warm.step_time_s, cold.step_time_s) << label;
            EXPECT_EQ(warm.schedule_lowerings, 0) << label;
            EXPECT_EQ(warm.schedule_cache_hits, 0) << label;
        }
        EXPECT_EQ(lowerings[0], lowerings[1])
            << solver::searchEngineName(engine);
    }
}

/// Runs `lookups` lookups per thread on 4 threads over `unique`
/// overlapping tasks (each thread starts at a different offset).
void
lookUpConcurrently(ScheduleCache &cache, int unique, int lookups)
{
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < lookups; ++i) {
                const int k = (i + 7 * t) % unique;
                const auto schedule = cache.lowered(allReduceTask(
                    cache.scheduler().router().topology(),
                    {0, 1, 2, 3, 4, 5}, 1e6 * (1 + k % 3), k));
                ASSERT_TRUE(schedule->feasible);
            }
        });
    for (std::thread &thread : threads)
        thread.join();
}

TEST(ScheduleCache, ColdConcurrentLookupsLowerEachTaskOnce)
{
    // Four threads miss on the same cold keys at once: one lowers
    // (outside the lock), the others wait for it and count a hit.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    constexpr int kUnique = 24;
    constexpr int kLookups = 300;
    for (int round = 0; round < 5; ++round) {
        ScheduleCache cache(scheduler);
        lookUpConcurrently(cache, kUnique, kLookups);
        const ScheduleCacheStats stats = cache.stats();
        EXPECT_EQ(stats.lowerings, kUnique);
        EXPECT_EQ(stats.lowerings + stats.hits, 4L * kLookups);
        EXPECT_EQ(cache.size(), static_cast<std::size_t>(kUnique));
    }

    // Budget 2, set before the first lookup: at most two entries ever,
    // evicted tasks re-lower, and the books still balance.
    ScheduleCache bounded(scheduler);
    bounded.setMaxEntries(2);
    lookUpConcurrently(bounded, kUnique, kLookups);
    const ScheduleCacheStats stats = bounded.stats();
    EXPECT_LE(bounded.size(), 2u);
    EXPECT_LE(bounded.cacheStats().entries, 2);
    EXPECT_GT(stats.lowerings, kUnique);
    EXPECT_EQ(stats.lowerings + stats.hits, 4L * kLookups);
}

TEST(RouteEpochs, CachedScheduleStaysReadableAfterSetFaults)
{
    // A cached schedule holds its epoch's route storage: after the
    // fault swap clears the cache and the router lets go of the old
    // epoch (what the cost model's fault listener does), a caller still
    // holding the schedule reads valid routes (ASan turns a dangling
    // read here into a failure).
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    ScheduleCache cache(scheduler);
    const std::uint64_t listener = wafer.addFaultListener([&] {
        cache.clear();
        router.newEpoch();
    });
    const CollectiveTask task = allReduceTask(
        wafer.topology(), {0, 1, 2, 3, 11, 10, 9, 8}, 8e6);
    std::shared_ptr<const CommSchedule> held =
        cache.lowered(task);
    std::vector<std::vector<LinkId>> expected;
    for (const Flow &flow : held->flows())
        expected.push_back(flow.route.links());
    EXPECT_EQ(router.liveEpochs(), 1);

    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    wafer.setFaults(faults);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(router.liveEpochs(), 1);  // only `held` keeps it

    // A lookup in the new epoch starts new storage beside the old one.
    const auto degraded = cache.lowered(task);
    EXPECT_TRUE(degraded->feasible);
    EXPECT_EQ(router.liveEpochs(), 2);

    ASSERT_EQ(held->flows().size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f) {
        EXPECT_TRUE(held->flows()[f].route.valid());
        EXPECT_EQ(held->flows()[f].route.links(), expected[f]);
    }
    held.reset();
    EXPECT_EQ(router.liveEpochs(), 1);
    wafer.removeFaultListener(listener);
}

TEST(RouteEpochs, CostModelCycledThroughFaultEpochsRetainsAtMostTwo)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    const core::FrameworkOptions options;
    const sim::TrainingSimulator sim(wafer, options.policy,
                                     options.training);
    const model::ModelConfig model = model::modelByName("GPT-3 6.7B");
    const model::ComputeGraph graph =
        model::ComputeGraph::transformer(model);
    // Plans with TATP streams, so stream plans hold routes as well as
    // schedules.
    std::vector<parallel::ParallelSpec> plans;
    for (const parallel::ParallelSpec &spec : solver::enumerateStrategies(
             wafer.dieCount(), model, solver::StrategySpaceOptions{}))
        if (spec.tatp > 1 && plans.size() < 4)
            plans.push_back(spec);
    ASSERT_FALSE(plans.empty());

    const net::Router &router = sim.costModel().router();
    const int links = wafer.topology().linkCount();
    for (int epoch = 0; epoch < 20; ++epoch) {
        hw::FaultMap faults(wafer.dieCount(), links);
        faults.failLink((epoch * 37) % links);
        wafer.setFaults(faults);
        for (const parallel::ParallelSpec &spec : plans)
            (void)sim.simulate(graph, spec);
        EXPECT_GT(sim.costModel().routePoolStats().entries, 0);
        EXPECT_GE(router.liveEpochs(), 1);
        EXPECT_LE(router.liveEpochs(), 2) << "epoch " << epoch;
    }
}

}  // namespace
}  // namespace temp::net
