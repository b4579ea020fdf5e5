/**
 * @file
 * Network hot-path microbench: the layer every (op, strategy) cost
 * query bottoms out in.
 *
 * Four measurements, each emitted as a BENCH_JSON line:
 *
 *  - lowering_shape: schedules/sec of flat-arena lowering vs. the same
 *    lowering copied out into the former vector<vector<Flow>> nested
 *    shape (what every schedule build used to allocate);
 *  - phase_lowering: ns per lowered task of a phase lowered straight
 *    into one arena (CollectiveScheduler::lowerPhase, the cost model's
 *    path) vs. the reference path it replaced (each task scheduled on
 *    its own, then CommSchedule::combine). The acceptance bar: the
 *    direct arena equals the reference merge flow by flow and run by
 *    run, with equal payload and feasibility, on every phase;
 *  - optimizer: ns per optimized flow of the traffic optimizer run by
 *    run in a scratch buffer (TrafficOptimizer::optimizePhase, the
 *    cost model's path) vs. optimize() rebuilding the whole schedule,
 *    on a seeded phase mix of the 4x8 wafer (104 links) and an 8x10
 *    one (284 links, beyond the route masks). The acceptance bar: every
 *    run optimized in scratch equals the rebuilt schedule's run flow
 *    for flow;
 *  - quickstart_solve: the collective tasks a real cold DLS solve on
 *    the quickstart model lowers, and a repeat solve on the same
 *    service (the acceptance bars: the cold count is nonzero and the
 *    repeat, answered by the memos, lowers nothing).
 *
 * Exit code is non-zero when any acceptance bar fails, so a CI
 * Release build can run this binary as a smoke test and catch perf
 * plumbing rot.
 */
#include "bench_util.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "api/service.hpp"
#include "common/rng.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "net/collective.hpp"
#include "parallel/layout.hpp"
#include "tcme/optimizer.hpp"

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

/// The mix as phases of concurrent tasks: consecutive runs of one to
/// six tasks, the widths the partitioner's per-op phases have.
std::vector<std::vector<net::CollectiveTask>>
phaseMix(const std::vector<net::CollectiveTask> &tasks)
{
    std::vector<std::vector<net::CollectiveTask>> phases;
    std::size_t width = 1;
    for (std::size_t begin = 0; begin < tasks.size();) {
        const std::size_t end = std::min(tasks.size(), begin + width);
        phases.emplace_back(tasks.begin() + begin, tasks.begin() + end);
        begin = end;
        width = width % 6 + 1;
    }
    return phases;
}

/// Flow by flow (src, dst, bytes, route, tag), run by run, payload and
/// feasibility.
bool
sameSchedule(const net::CommSchedule &a, const net::CommSchedule &b)
{
    if (std::bit_cast<std::uint64_t>(a.payload_bytes) !=
            std::bit_cast<std::uint64_t>(b.payload_bytes) ||
        a.feasible != b.feasible || a.runCount() != b.runCount() ||
        a.flows().size() != b.flows().size())
        return false;
    for (int i = 0; i < a.runCount(); ++i)
        if (a.runEnd(i) != b.runEnd(i) || a.repeat(i) != b.repeat(i))
            return false;
    for (std::size_t f = 0; f < a.flows().size(); ++f) {
        const net::Flow &x = a.flows()[f];
        const net::Flow &y = b.flows()[f];
        if (x.src != y.src || x.dst != y.dst || x.tag != y.tag ||
            std::bit_cast<std::uint64_t>(x.bytes) !=
                std::bit_cast<std::uint64_t>(y.bytes) ||
            x.route.valid() != y.route.valid() ||
            (x.route.valid() && &*x.route != &*y.route))
            return false;
    }
    return true;
}

/// The reference lowering of a phase: each task scheduled on its own,
/// then merged.
net::CommSchedule
referencePhase(const net::CollectiveScheduler &scheduler,
               const std::vector<net::CollectiveTask> &phase)
{
    std::vector<net::CommSchedule> parts;
    parts.reserve(phase.size());
    for (const net::CollectiveTask &task : phase)
        parts.push_back(scheduler.schedule(task));
    std::vector<const net::CommSchedule *> ptrs;
    ptrs.reserve(parts.size());
    for (const net::CommSchedule &part : parts)
        ptrs.push_back(&part);
    return net::CommSchedule::combine(ptrs);
}

/// Flow by flow: src, dst, bytes, tag and the interned route.
bool
sameFlows(std::span<const net::Flow> a, std::span<const net::Flow> b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t f = 0; f < a.size(); ++f)
        if (a[f].src != b[f].src || a[f].dst != b[f].dst ||
            a[f].tag != b[f].tag ||
            std::bit_cast<std::uint64_t>(a[f].bytes) !=
                std::bit_cast<std::uint64_t>(b[f].bytes) ||
            &*a[f].route != &*b[f].route)
            return false;
    return true;
}

/// One optimizer measurement on one wafer grid.
struct OptimizerRun
{
    std::size_t links = 0;
    std::size_t phases = 0;
    std::size_t flows = 0;  ///< input flows of the stored runs
    double scratch_ns_per_flow = 0.0;
    double rebuild_ns_per_flow = 0.0;
    std::size_t mismatched = 0;  ///< runs differing from the rebuild
};

/**
 * Seeded phases of one to six concurrent tasks (rings of 2..9 members
 * of all three kinds, broadcasts and p2p transfers, shards of 1-3 MB
 * on two tags, so duplicate payloads meet and merge) on a wafer of
 * `config`'s grid, optimized run by run in a scratch buffer and by
 * optimize() over the whole schedule.
 */
OptimizerRun
optimizerSection(const hw::WaferConfig &config, int reps)
{
    const hw::Wafer wafer(config);
    const net::Router router(wafer.topology(), &wafer.faults());
    const net::CollectiveScheduler scheduler(router);
    const tcme::TrafficOptimizer optimizer(router);
    hw::DieGroupTable &groups = wafer.topology().dieGroups();
    Rng rng(29);
    std::vector<hw::DieId> dies(static_cast<std::size_t>(wafer.dieCount()));
    for (std::size_t d = 0; d < dies.size(); ++d)
        dies[d] = static_cast<hw::DieId>(d);
    const net::CollectiveKind kinds[] = {
        net::CollectiveKind::AllReduce, net::CollectiveKind::AllGather,
        net::CollectiveKind::ReduceScatter, net::CollectiveKind::Broadcast,
        net::CollectiveKind::P2P};
    std::vector<net::CommSchedule> lowered;
    for (int p = 0; p < 200; ++p) {
        std::vector<net::CollectiveTask> phase(
            static_cast<std::size_t>(rng.uniformInt(1, 6)));
        for (net::CollectiveTask &task : phase) {
            std::shuffle(dies.begin(), dies.end(), rng.engine());
            task.kind = kinds[rng.uniformInt(0, 4)];
            const int n = task.kind == net::CollectiveKind::P2P
                              ? 2
                              : rng.uniformInt(2, 9);
            task.group = groups.intern(
                std::span<const hw::DieId>(dies).first(
                    static_cast<std::size_t>(n)));
            task.bytes = 1e6 * rng.uniformInt(1, 3) * n;
            task.tag = rng.uniformInt(1, 2);
        }
        lowered.push_back(scheduler.lowerPhase(phase));
    }

    OptimizerRun out;
    out.links = static_cast<std::size_t>(wafer.topology().linkCount());
    out.phases = lowered.size();
    std::vector<net::Flow> scratch;
    for (const net::CommSchedule &schedule : lowered) {
        net::CommSchedule rebuilt = schedule;
        optimizer.optimize(rebuilt);
        for (int i = 0; i < schedule.runCount(); ++i) {
            scratch.assign(schedule.run(i).begin(), schedule.run(i).end());
            optimizer.optimizePhase(scratch);
            out.flows += schedule.run(i).size();
            if (i >= rebuilt.runCount() ||
                !sameFlows(scratch, rebuilt.run(i)))
                ++out.mismatched;
        }
    }
    double scratch_s = 0.0;
    double rebuild_s = 0.0;
    std::size_t sink = 0;
    for (int rep = 0; rep < reps; ++rep) {
        // Interleaved, so host noise lands on both paths alike.
        const double t0 = now();
        for (const net::CommSchedule &schedule : lowered)
            for (int i = 0; i < schedule.runCount(); ++i) {
                scratch.assign(schedule.run(i).begin(),
                               schedule.run(i).end());
                optimizer.optimizePhase(scratch);
                sink += scratch.size();
            }
        const double t1 = now();
        for (const net::CommSchedule &schedule : lowered) {
            net::CommSchedule rebuilt = schedule;
            optimizer.optimize(rebuilt);
            sink += rebuilt.flows().size();
        }
        scratch_s += t1 - t0;
        rebuild_s += now() - t1;
    }
    (void)sink;
    const double flows = static_cast<double>(out.flows) * reps;
    out.scratch_ns_per_flow = flows > 0.0 ? scratch_s * 1e9 / flows : 0.0;
    out.rebuild_ns_per_flow = flows > 0.0 ? rebuild_s * 1e9 / flows : 0.0;
    return out;
}

}  // namespace

int
main()
{
    bench::banner("Network hot path",
                  "flat-arena lowering, phase lowering, contention");

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

    // --- phase lowering: one arena vs schedule-per-task + combine ------
    const std::vector<std::vector<net::CollectiveTask>> phases =
        phaseMix(tasks);
    std::size_t mismatched = 0;
    for (const auto &phase : phases)
        if (!sameSchedule(scheduler.lowerPhase(phase),
                          referencePhase(scheduler, phase)))
            ++mismatched;
    double direct_s = 0.0;
    double reference_s = 0.0;
    std::size_t sink = 0;
    for (int rep = 0; rep < reps; ++rep) {
        // Interleaved, so host noise lands on both paths alike.
        const double t2 = now();
        for (const auto &phase : phases)
            sink += scheduler.lowerPhase(phase).flows().size();
        const double t3 = now();
        for (const auto &phase : phases)
            sink += referencePhase(scheduler, phase).flows().size();
        direct_s += t3 - t2;
        reference_s += now() - t3;
    }
    (void)sink;
    const double direct_ns = direct_s * 1e9 / lowered;
    const double reference_ns = reference_s * 1e9 / lowered;
    std::printf("Phase lowering (%zu phases): direct arena %.0f ns/task, "
                "schedule + combine %.0f ns/task (x%.2f), %zu mismatched "
                "phases\n",
                phases.size(), direct_ns, reference_ns,
                direct_ns > 0.0 ? reference_ns / direct_ns : 0.0,
                mismatched);
    std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                "\"section\":\"phase_lowering\",\"tasks\":%zu,"
                "\"phases\":%zu,\"reps\":%d,\"direct_ns_per_task\":%.1f,"
                "\"reference_ns_per_task\":%.1f,\"mismatched\":%zu}\n",
                tasks.size(), phases.size(), reps, direct_ns, reference_ns,
                mismatched);

    // --- traffic optimizer: run by run in scratch vs rebuilt ------------
    std::size_t optimizer_mismatched = 0;
    for (const hw::WaferConfig &config :
         {hw::WaferConfig::paperDefault(),
          hw::WaferConfig::paperDefault().withGrid(8, 10)}) {
        const OptimizerRun run = optimizerSection(config, reps);
        optimizer_mismatched += run.mismatched;
        std::printf("Optimizer %dx%d (%zu links, %zu phases, %zu flows): "
                    "scratch %.1f ns/flow, rebuilt schedule %.1f ns/flow, "
                    "%zu mismatched runs\n",
                    config.rows, config.cols, run.links, run.phases,
                    run.flows, run.scratch_ns_per_flow,
                    run.rebuild_ns_per_flow, run.mismatched);
        std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                    "\"section\":\"optimizer\",\"grid\":\"%dx%d\","
                    "\"links\":%zu,\"phases\":%zu,\"flows\":%zu,"
                    "\"reps\":%d,\"scratch_ns_per_flow\":%.1f,"
                    "\"rebuild_ns_per_flow\":%.1f,\"mismatched\":%zu}\n",
                    config.rows, config.cols, run.links, run.phases,
                    run.flows, reps, run.scratch_ns_per_flow,
                    run.rebuild_ns_per_flow, run.mismatched);
    }

    // --- lowerings of a real cold solve and its repeat ------------------
    api::TempService service;
    const api::OptimizeRequest request{model::modelByName("GPT-3 6.7B")};
    const api::Response solve = service.run(request);
    const api::Response repeat = service.run(request);
    std::printf("Quickstart solve: cold %ld lowerings, repeat %ld\n",
                solve.solver.schedule_lowerings,
                repeat.solver.schedule_lowerings);
    std::printf("BENCH_JSON {\"bench\":\"net_hotpath\","
                "\"section\":\"quickstart_solve\",\"model\":\"GPT-3 "
                "6.7B\",\"schedule_lowerings\":%ld,"
                "\"repeat_schedule_lowerings\":%ld,\"feasible\":%s}\n",
                solve.solver.schedule_lowerings,
                repeat.solver.schedule_lowerings,
                solve.solver.feasible ? "true" : "false");

    // --- acceptance bars (CI smoke) -------------------------------------
    bool ok = true;
    if (mismatched > 0) {
        std::printf("FAIL: %zu phases lowered into one arena differ from "
                    "the reference merge\n",
                    mismatched);
        ok = false;
    }
    if (optimizer_mismatched > 0) {
        std::printf("FAIL: %zu runs optimized in scratch differ from the "
                    "rebuilt schedule\n",
                    optimizer_mismatched);
        ok = false;
    }
    if (!solve.solver.feasible || solve.solver.schedule_lowerings <= 0) {
        std::printf("FAIL: the cold quickstart solve lowered nothing\n");
        ok = false;
    }
    if (repeat.solver.schedule_lowerings != 0) {
        std::printf("FAIL: the repeat solve lowered %ld tasks (want 0: "
                    "the memos answer it)\n",
                    repeat.solver.schedule_lowerings);
        ok = false;
    }
    if (!ok)
        return 1;
    std::printf("net_hotpath acceptance bars passed\n");
    return 0;
}
