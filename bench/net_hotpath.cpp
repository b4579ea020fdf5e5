/**
 * @file
 * Network hot-path microbench: the layer every (op, strategy) cost
 * query bottoms out in.
 *
 * Three measurements, each emitted as a BENCH_JSON line:
 *
 *  - lowering_shape: schedules/sec of flat-arena lowering vs. the same
 *    lowering copied out into the former vector<vector<Flow>> nested
 *    shape (what every schedule build used to allocate);
 *  - schedule_cache: schedules/sec of cold lowering vs. cache-served
 *    re-lowering of the same task mix (the acceptance bar: >= 2x);
 *  - quickstart_solve: the schedule-cache hit rate of a real cold DLS
 *    solve on the quickstart model (the acceptance bar: > 50%);
 *  - bounded_cache: the same task mix against a schedule cache
 *    budgeted to 1/4 of the working set, driven with a service-like
 *    skewed access pattern (a hot quarter plus a cold scan). The
 *    acceptance bars: the LRU keeps the hot set resident (bounded
 *    hit rate >= 25% — graceful degradation, not a cliff), entries
 *    never exceed the budget, and bounded timings stay bit-identical
 *    to unbounded ones.
 *
 * Exit code is non-zero when any acceptance bar fails, so a CI
 * Release build can run this binary as a smoke test and catch perf
 * plumbing rot (a cache that silently stops hitting).
 */
#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "api/service.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "net/collective.hpp"
#include "net/schedule_cache.hpp"
#include "parallel/layout.hpp"

using namespace temp;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// A quickstart-like task mix: ring collectives and P2Ps over snake
/// sub-groups of the paper-default 4x8 wafer, sized like the per-axis
/// groups the matrix fill lowers.
std::vector<net::CollectiveTask>
taskMix(const hw::Wafer &wafer)
{
    const auto snake =
        parallel::GroupLayout::snakeOrder(wafer.topology());
    hw::DieGroupTable &groups = wafer.topology().dieGroups();
    std::vector<net::CollectiveTask> tasks;
    const net::CollectiveKind kinds[] = {net::CollectiveKind::AllReduce,
                                         net::CollectiveKind::AllGather,
                                         net::CollectiveKind::ReduceScatter};
    int tag = 1000;
    for (int size : {2, 4, 8, 16, 32}) {
        for (int start = 0; start + size <= wafer.dieCount();
             start += size) {
            for (const net::CollectiveKind kind : kinds) {
                net::CollectiveTask task;
                task.kind = kind;
                task.group = groups.intern(
                    std::span<const hw::DieId>(snake).subspan(start, size));
                task.bytes = 1e6 * size;
                task.tag = tag++ % 1006;
                tasks.push_back(std::move(task));
            }
        }
    }
    for (int i = 0; i + 1 < wafer.dieCount(); i += 7) {
        net::CollectiveTask task;
        task.kind = net::CollectiveKind::P2P;
        task.group = groups.intern(
            std::span<const hw::DieId>(snake).subspan(i, 2));
        task.bytes = 4e6;
        tasks.push_back(std::move(task));
    }
    return tasks;
}

}  // namespace

int
main()
{
    bench::banner("Network hot path",
                  "flat-arena lowering, schedule cache, contention");

    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    net::Router router(wafer.topology(), &wafer.faults());
    net::CollectiveScheduler scheduler(router);
    const std::vector<net::CollectiveTask> tasks = taskMix(wafer);
    const int reps = 40;

    // --- flat-arena lowering vs the former nested shape ---------------
    double flat_s = 0.0;
    double nested_s = 0.0;
    {
        const double t0 = now();
        std::size_t flows = 0;
        for (int rep = 0; rep < reps; ++rep)
            for (const net::CollectiveTask &task : tasks)
                flows += scheduler.schedule(task).flowCount();
        flat_s = now() - t0;

        const double t1 = now();
        std::size_t nested_flows = 0;
        for (int rep = 0; rep < reps; ++rep) {
            for (const net::CollectiveTask &task : tasks) {
                const net::CommSchedule s = scheduler.schedule(task);
                // The pre-arena shape: one vector per round.
                std::vector<std::vector<net::Flow>> rounds(
                    s.roundCount());
                for (int r = 0; r < s.roundCount(); ++r)
                    rounds[r].assign(s.round(r).begin(),
                                     s.round(r).end());
                nested_flows += rounds.empty() ? 0 : rounds[0].size();
            }
        }
        nested_s = now() - t1;
        (void)flows;
        (void)nested_flows;
    }
    const double lowered = static_cast<double>(tasks.size()) * reps;
    std::printf("Lowering: flat %.0f sched/s, nested-shape %.0f sched/s "
                "(x%.2f)\n",
                lowered / flat_s, lowered / nested_s,
                flat_s > 0.0 ? nested_s / flat_s : 0.0);
    std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                "\"section\":\"lowering_shape\",\"tasks\":%zu,"
                "\"reps\":%d,\"flat_schedules_per_s\":%.1f,"
                "\"nested_schedules_per_s\":%.1f}\n",
                tasks.size(), reps, lowered / flat_s,
                lowered / nested_s);

    // --- cold lowering vs cache-served re-lowering ---------------------
    net::ScheduleCache cache(scheduler);
    const double t2 = now();
    for (const net::CollectiveTask &task : tasks)
        cache.lowered(task);
    const double cold_s = now() - t2;

    const double t3 = now();
    for (int rep = 0; rep < reps; ++rep)
        for (const net::CollectiveTask &task : tasks)
            cache.lowered(task);
    const double warm_s = (now() - t3) / reps;

    const double cold_rate = static_cast<double>(tasks.size()) / cold_s;
    const double warm_rate =
        warm_s > 0.0 ? static_cast<double>(tasks.size()) / warm_s : 0.0;
    const double speedup = warm_rate > 0.0 ? warm_rate / cold_rate : 0.0;
    const net::ScheduleCacheStats cache_stats = cache.stats();
    std::printf("Schedule cache: cold %.0f sched/s, cached %.0f sched/s "
                "(x%.1f), %ld lowerings / %ld hits\n",
                cold_rate, warm_rate, speedup, cache_stats.lowerings,
                cache_stats.hits);
    std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                "\"section\":\"schedule_cache\",\"tasks\":%zu,"
                "\"cold_schedules_per_s\":%.1f,"
                "\"cached_schedules_per_s\":%.1f,"
                "\"cached_speedup\":%.2f,\"lowerings\":%ld,"
                "\"hits\":%ld}\n",
                tasks.size(), cold_rate, warm_rate, speedup,
                cache_stats.lowerings, cache_stats.hits);

    // --- schedule-cache hit rate of a real cold solve -------------------
    api::TempService service;
    const api::Response solve =
        service.run(api::OptimizeRequest{model::modelByName("GPT-3 6.7B")});
    const double solve_hit_rate =
        net::ScheduleCacheStats{solve.solver.schedule_lowerings,
                                solve.solver.schedule_cache_hits}
            .hitRate();
    std::printf("Quickstart cold solve: %ld lowerings / %ld hits "
                "(hit rate %.3f)\n",
                solve.solver.schedule_lowerings,
                solve.solver.schedule_cache_hits, solve_hit_rate);
    std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                "\"section\":\"quickstart_solve\",\"model\":\"GPT-3 "
                "6.7B\",\"schedule_lowerings\":%ld,"
                "\"schedule_cache_hits\":%ld,\"hit_rate\":%.4f,"
                "\"feasible\":%s}\n",
                solve.solver.schedule_lowerings,
                solve.solver.schedule_cache_hits, solve_hit_rate,
                solve.solver.feasible ? "true" : "false");

    // --- bounded mode: 1/4-size budget, skewed access ------------------
    // A long-lived service cannot keep every signature resident; the
    // budget must degrade hit rate gracefully (LRU keeps the hot set),
    // never results. Access pattern: a cold scan of the whole mix
    // interleaved with a hot slice half the budget's size — the skew
    // real request streams have. LRU keeps the hot slice resident
    // (every hot task recurs within a budget's worth of accesses), so
    // roughly half the lookups keep hitting; a recency-blind eviction
    // policy would cliff to ~0 on this pattern.
    net::ScheduleCache bounded(scheduler);
    const std::size_t budget = std::max<std::size_t>(2, tasks.size() / 4);
    bounded.setMaxEntries(budget);
    const std::size_t hot = budget / 2;
    std::size_t over_budget = 0;
    double mismatches = 0.0;
    const double t4 = now();
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const auto b =
                bounded.lowered(tasks[i]);
            // The interleaved hot-slice touch (the skew).
            (void)bounded.lowered(tasks[i % hot]);
            if (bounded.size() > budget)
                ++over_budget;
            // Bit-exactness spot check against the unbounded cache.
            const auto u = cache.lowered(tasks[i]);
            if (b->linkBytes() != u->linkBytes() ||
                b->flowCount() != u->flowCount())
                mismatches += 1.0;
        }
    }
    const double bounded_s = now() - t4;
    const net::ScheduleCacheStats bounded_stats = bounded.stats();
    const double bounded_hit_rate = bounded_stats.hitRate();
    const common::CacheStats bounded_gov = bounded.cacheStats();
    std::printf("Bounded cache (budget %zu of %zu tasks): hit rate %.3f, "
                "%ld evictions, %zu over-budget probes, %.1fs\n",
                budget, tasks.size(), bounded_hit_rate,
                bounded_gov.evictions, over_budget, bounded_s);
    std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                "\"section\":\"bounded_cache\",\"tasks\":%zu,"
                "\"budget\":%zu,\"hit_rate\":%.4f,\"evictions\":%ld,"
                "\"entries\":%ld,\"over_budget_probes\":%zu,"
                "\"timing_mismatches\":%.0f}\n",
                tasks.size(), budget, bounded_hit_rate,
                bounded_gov.evictions, bounded_gov.entries, over_budget,
                mismatches);

    // --- acceptance bars (CI smoke) -------------------------------------
    bool ok = true;
    if (speedup < 2.0) {
        std::printf("FAIL: cached re-lowering %.2fx < 2x cold\n", speedup);
        ok = false;
    }
    if (solve.solver.schedule_cache_hits <= 0 || solve_hit_rate <= 0.5) {
        std::printf("FAIL: cold-solve schedule cache hit rate %.3f "
                    "(want > 0.5 with nonzero hits)\n",
                    solve_hit_rate);
        ok = false;
    }
    if (bounded_hit_rate < 0.25) {
        std::printf("FAIL: bounded (1/4 budget) hit rate %.3f < 0.25 — "
                    "eviction is cliffing instead of degrading\n",
                    bounded_hit_rate);
        ok = false;
    }
    if (over_budget > 0 || bounded_gov.evictions <= 0) {
        std::printf("FAIL: budget not enforced (%zu over-budget probes, "
                    "%ld evictions)\n",
                    over_budget, bounded_gov.evictions);
        ok = false;
    }
    if (mismatches > 0.0) {
        std::printf("FAIL: %.0f bounded lowerings differed from "
                    "unbounded\n",
                    mismatches);
        ok = false;
    }
    if (!ok)
        return 1;
    std::printf("net_hotpath acceptance bars passed\n");
    return 0;
}
