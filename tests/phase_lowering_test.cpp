/**
 * @file
 * Tests for collective-phase lowering and the phase memo above it: a
 * phase lowered straight into one flow arena equals CommSchedule::
 * combine of its separately lowered tasks, flow by flow and run by run;
 * WaferCostModel::timeCollectiveTasks times it bit for bit like that
 * reference path under every mapping engine, healthy and faulted;
 * live fault injection empties the phase memo through the wafer's
 * fault listeners (no stale routes are served); lowerings are counted
 * once per memoized phase at any eval_threads; and a cost model cycled
 * through many fault states keeps at most two epochs' routes alive.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/framework.hpp"
#include "cost/cost_model.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "net/collective.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/strategy_space.hpp"
#include "tcme/optimizer.hpp"

namespace temp::net {
namespace {

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

CollectiveTask
allReduceTask(const hw::Topology &fabric, const std::vector<DieId> &group,
              double bytes, int tag = 0)
{
    return {CollectiveKind::AllReduce, tag, bytes,
            fabric.dieGroups().intern(group)};
}

/// A random task of the kinds the partitioner emits: rings of 2..9
/// members (all three kinds), broadcasts of 2..9 and p2p transfers.
CollectiveTask
randomTask(const hw::Topology &fabric, Rng &rng)
{
    std::vector<DieId> dies(static_cast<std::size_t>(fabric.dieCount()));
    std::iota(dies.begin(), dies.end(), 0);
    std::shuffle(dies.begin(), dies.end(), rng.engine());
    const int kind = rng.uniformInt(0, 4);
    const int n = kind == 4 ? 2 : rng.uniformInt(2, 9);
    const std::vector<DieId> group(dies.begin(), dies.begin() + n);
    const CollectiveKind kinds[] = {
        CollectiveKind::AllReduce, CollectiveKind::AllGather,
        CollectiveKind::ReduceScatter, CollectiveKind::Broadcast,
        CollectiveKind::P2P};
    // Non-integral byte counts, as the partitioner's divisions give, so
    // a payload summed in another order shows in the last bits.
    return {kinds[kind], rng.uniformInt(0, 3), rng.uniformReal(1e5, 6.4e7),
            fabric.dieGroups().intern(group)};
}

std::vector<CollectiveTask>
randomPhase(const hw::Topology &fabric, Rng &rng)
{
    std::vector<CollectiveTask> tasks(
        static_cast<std::size_t>(rng.uniformInt(1, 6)));
    for (CollectiveTask &task : tasks)
        task = randomTask(fabric, rng);
    return tasks;
}

/// The reference lowering: every task scheduled on its own, then
/// merged by CommSchedule::combine.
CommSchedule
referencePhase(const CollectiveScheduler &scheduler,
               const std::vector<CollectiveTask> &tasks)
{
    std::vector<CommSchedule> parts;
    for (const CollectiveTask &task : tasks)
        parts.push_back(scheduler.schedule(task));
    std::vector<const CommSchedule *> ptrs;
    for (const CommSchedule &part : parts)
        ptrs.push_back(&part);
    return CommSchedule::combine(ptrs);
}

/// Flow by flow (src, dst, bytes, route, tag) and run by run.
void
expectSameSchedule(const CommSchedule &got, const CommSchedule &want,
                   const std::string &label)
{
    EXPECT_EQ(bits(got.payload_bytes), bits(want.payload_bytes)) << label;
    EXPECT_EQ(got.feasible, want.feasible) << label;
    ASSERT_EQ(got.runCount(), want.runCount()) << label;
    for (int i = 0; i < got.runCount(); ++i) {
        EXPECT_EQ(got.runBegin(i), want.runBegin(i)) << label;
        EXPECT_EQ(got.runEnd(i), want.runEnd(i)) << label;
        EXPECT_EQ(got.repeat(i), want.repeat(i)) << label;
    }
    ASSERT_EQ(got.flows().size(), want.flows().size()) << label;
    for (std::size_t f = 0; f < got.flows().size(); ++f) {
        const Flow &a = got.flows()[f];
        const Flow &b = want.flows()[f];
        EXPECT_EQ(a.src, b.src) << label << " flow " << f;
        EXPECT_EQ(a.dst, b.dst) << label << " flow " << f;
        EXPECT_EQ(bits(a.bytes), bits(b.bytes)) << label << " flow " << f;
        EXPECT_EQ(a.tag, b.tag) << label << " flow " << f;
        ASSERT_EQ(a.route.valid(), b.route.valid()) << label;
        if (a.route.valid())  // the same interned route
            EXPECT_EQ(&*a.route, &*b.route) << label << " flow " << f;
    }
}

void
expectSameTiming(const PhaseTiming &got, const PhaseTiming &want,
                 const std::string &label)
{
    EXPECT_EQ(bits(got.time_s), bits(want.time_s)) << label;
    EXPECT_EQ(bits(got.serial_time_s), bits(want.serial_time_s)) << label;
    EXPECT_EQ(got.bottleneck_link, want.bottleneck_link) << label;
    EXPECT_EQ(bits(got.bottleneck_bytes), bits(want.bottleneck_bytes))
        << label;
    EXPECT_EQ(bits(got.total_bytes), bits(want.total_bytes)) << label;
    EXPECT_EQ(bits(got.link_bytes), bits(want.link_bytes)) << label;
    EXPECT_EQ(got.max_hops, want.max_hops) << label;
    EXPECT_EQ(bits(got.bandwidth_utilization),
              bits(want.bandwidth_utilization))
        << label;
}

/// The fault states the phase tests run under: healthy, a few failed
/// channels (detours), and the die at (1, 1) cut off (infeasible
/// transfers). On the paper's 4x8 wafer the channels are 1-2, 5-13 and
/// 20-21 and the cut-off die is 9.
std::vector<hw::FaultMap>
faultStates(const hw::Wafer &wafer)
{
    const hw::MeshTopology &fabric = wafer.topology();
    std::vector<hw::FaultMap> states(
        3, hw::FaultMap(wafer.dieCount(), fabric.linkCount()));
    for (const auto &[a, b] :
         {std::pair{fabric.dieAt(0, 1), fabric.dieAt(0, 2)},
          std::pair{fabric.dieAt(0, 5), fabric.dieAt(1, 5)},
          std::pair{fabric.dieAt(2, 4), fabric.dieAt(2, 5)}}) {
        states[1].failLink(fabric.linkId(a, b));
        states[1].failLink(fabric.linkId(b, a));
    }
    const DieId cut = fabric.dieAt(1, 1);
    for (DieId nb : fabric.neighbors(cut)) {
        states[2].failLink(fabric.linkId(cut, nb));
        states[2].failLink(fabric.linkId(nb, cut));
    }
    return states;
}

TEST(PhaseLowering, DirectArenaEqualsCombineOfScheduledParts)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    Rng rng(41);
    int infeasible = 0;
    int multi_run = 0;
    for (const hw::FaultMap &faults : faultStates(wafer)) {
        wafer.setFaults(faults);
        router.newEpoch();
        for (int trial = 0; trial < 80; ++trial) {
            const std::vector<CollectiveTask> tasks =
                randomPhase(wafer.topology(), rng);
            const CommSchedule direct = scheduler.lowerPhase(tasks);
            const std::string label = "trial " + std::to_string(trial);
            expectSameSchedule(direct, referencePhase(scheduler, tasks),
                               label);
            if (tasks.size() == 1)
                expectSameSchedule(direct, scheduler.schedule(tasks[0]),
                                   label);
            infeasible += direct.feasible ? 0 : 1;
            multi_run += direct.runCount() > 1 ? 1 : 0;
        }
    }
    // The mixes cut runs, and the cut-off die makes some infeasible.
    EXPECT_GT(multi_run, 40);
    EXPECT_GT(infeasible, 0);
}

TEST(PhaseLowering, CombinePartsMergesMultiRunPartsLikeCombine)
{
    // Tree all-reduce is the lowering whose parts hold many runs of
    // different widths: parts stored back to back in one arena merge
    // like the same parts combined as separate schedules.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Router router(wafer.topology(), &wafer.faults());
    CollectiveScheduler scheduler(router);
    Rng rng(5);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<CommSchedule> parts;
        const int count = rng.uniformInt(1, 6);
        for (int p = 0; p < count; ++p) {
            const CollectiveTask task = randomTask(wafer.topology(), rng);
            parts.push_back(
                rng.uniformInt(0, 1) == 0
                    ? scheduler.treeAllReduce(task.group->dies, task.bytes,
                                              task.tag)
                    : scheduler.schedule(task));
        }
        CommSchedule arena;
        std::vector<std::uint32_t> part_ends;
        for (const CommSchedule &part : parts) {
            for (int i = 0; i < part.runCount(); ++i) {
                for (const Flow &flow : part.run(i))
                    arena.addFlow(flow);
                arena.sealRound(part.repeat(i));
            }
            arena.payload_bytes += part.payload_bytes;
            arena.feasible = arena.feasible && part.feasible;
            part_ends.push_back(static_cast<std::uint32_t>(arena.runCount()));
        }
        std::vector<const CommSchedule *> ptrs;
        for (const CommSchedule &part : parts)
            ptrs.push_back(&part);
        expectSameSchedule(arena.combineParts(part_ends),
                           CommSchedule::combine(ptrs),
                           "trial " + std::to_string(trial));
    }
}

/// timeCollectiveTasks on a wafer of `config`'s grid against the path
/// it replaced: each task scheduled alone, combined, optimized (TCME)
/// or finalized, then timed under contention, in every fault state.
void
expectTimedPhasesMatchReference(const hw::WaferConfig &config)
{
    for (tcme::MappingEngineKind engine :
         {tcme::MappingEngineKind::SMap, tcme::MappingEngineKind::GMap,
          tcme::MappingEngineKind::TCME}) {
        hw::Wafer wafer(config);
        const tcme::MappingPolicy policy{engine};
        const cost::WaferCostModel model(wafer, policy);
        const CollectiveScheduler scheduler(model.router());
        const tcme::TrafficOptimizer optimizer(model.router());
        Rng rng(17);
        for (const hw::FaultMap &faults : faultStates(wafer)) {
            wafer.setFaults(faults);
            const ContentionModel contention(wafer,
                                             wafer.config().d2d.latency_s);
            for (int trial = 0; trial < 40; ++trial) {
                const std::vector<CollectiveTask> tasks =
                    randomPhase(wafer.topology(), rng);
                const std::string label =
                    std::to_string(config.rows) + "x" +
                    std::to_string(config.cols) + " " +
                    tcme::mappingEngineName(engine) + " trial " +
                    std::to_string(trial);
                double link_bytes = 0.0;
                const PhaseTiming got =
                    model.timeCollectiveTasks(tasks, &link_bytes);

                CommSchedule want = referencePhase(scheduler, tasks);
                if (!want.feasible) {
                    EXPECT_EQ(got.time_s,
                              std::numeric_limits<double>::infinity())
                        << label;
                    EXPECT_EQ(link_bytes, 0.0) << label;
                    continue;
                }
                if (policy.contentionOptimization())
                    optimizer.optimize(want);
                else
                    want.finalize();
                expectSameTiming(got, contention.evaluateSequence(want),
                                 label);
                EXPECT_EQ(bits(link_bytes), bits(want.linkBytes()))
                    << label;
            }
        }
    }
}

TEST(PhaseLowering, TimedPhasesMatchTheReferencePathBitForBit)
{
    // The paper's 4x8 wafer (104 links) and an 8x10 one (284 links,
    // beyond the route masks), each healthy, link-faulted and with a
    // die cut off.
    expectTimedPhasesMatchReference(hw::WaferConfig::paperDefault());
    expectTimedPhasesMatchReference(
        hw::WaferConfig::paperDefault().withGrid(8, 10));
}

TEST(PhaseMemo, LiveFaultInjectionEmptiesItAndRelowers)
{
    // The memo and the cost model's wafer-bound contention snapshot
    // must both observe setFaults() on a live wafer: the stale timing
    // is not served, the phase re-lowers against the degraded fabric,
    // and the same fault state is then served from the memo again.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    cost::WaferCostModel model(
        wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const std::vector<CollectiveTask> tasks{
        allReduceTask(wafer.topology(), {0, 1, 2, 3}, 64e6),
        allReduceTask(wafer.topology(), {8, 9, 10, 11}, 64e6)};

    double healthy_bytes = 0.0;
    const PhaseTiming healthy =
        model.timeCollectiveTasks(tasks, &healthy_bytes);
    EXPECT_EQ(model.scheduleLowerings(), 2);
    EXPECT_EQ(model.phaseMemoStats().entries, 1);

    // Fail the 1->2 channel (both directions), which the first ring
    // crosses.
    hw::FaultMap faults(wafer.dieCount(), wafer.topology().linkCount());
    faults.failLink(wafer.topology().linkId(1, 2));
    faults.failLink(wafer.topology().linkId(2, 1));
    wafer.setFaults(faults);
    EXPECT_EQ(model.phaseMemoStats().entries, 0);

    double degraded_bytes = 0.0;
    const PhaseTiming degraded =
        model.timeCollectiveTasks(tasks, &degraded_bytes);
    EXPECT_EQ(model.scheduleLowerings(), 4);
    // The detour costs more fabric occupancy and more wall time.
    EXPECT_GT(degraded_bytes, healthy_bytes);
    EXPECT_GT(degraded.time_s, healthy.time_s);

    // Same fault state again: served, nothing re-lowers.
    const long hits = model.phaseMemoStats().hits;
    double again_bytes = 0.0;
    const PhaseTiming again = model.timeCollectiveTasks(tasks, &again_bytes);
    EXPECT_EQ(model.scheduleLowerings(), 4);
    EXPECT_EQ(model.phaseMemoStats().hits, hits + 1);
    EXPECT_EQ(bits(again.time_s), bits(degraded.time_s));
    EXPECT_EQ(bits(again_bytes), bits(degraded_bytes));
}

TEST(PhaseMemo, ConcurrentMissesCountEachPhaseOnce)
{
    // Four threads time the same cold phases at once on one cost
    // model: racing misses each lower and time the phase, but only the
    // winning insert counts its tasks, and every thread reads the same
    // bits.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    Rng rng(3);
    std::vector<std::vector<CollectiveTask>> phases(24);
    long tasks = 0;
    for (std::vector<CollectiveTask> &phase : phases) {
        phase = randomPhase(wafer.topology(), rng);
        tasks += static_cast<long>(phase.size());
    }
    for (int round = 0; round < 5; ++round) {
        const cost::WaferCostModel model(
            wafer, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
        std::vector<std::vector<std::uint64_t>> seen(4);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back([&, t] {
                for (int pass = 0; pass < 3; ++pass)
                    for (const auto &phase : phases)
                        seen[t].push_back(
                            bits(model.timeCollectiveTasks(phase).time_s));
            });
        for (std::thread &thread : threads)
            thread.join();
        EXPECT_EQ(model.scheduleLowerings(), tasks);
        EXPECT_EQ(model.phaseMemoStats().entries,
                  static_cast<long>(phases.size()));
        for (int t = 1; t < 4; ++t)
            EXPECT_EQ(seen[t], seen[0]);
    }
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

TEST(PhaseMemo, SolveIsDeterministicAcrossEvalThreads)
{
    // The flat-arena lowering and the shared phase memo must not leak
    // any thread-count dependence into results: identical per-op specs
    // and bit-identical step time for 1-thread and 4-thread
    // frameworks, and the same lowerings (a racing duplicate miss of a
    // phase counts once).
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
    EXPECT_EQ(r1.schedule_lowerings, r4.schedule_lowerings);
    EXPECT_EQ(r1.schedule_cache_hits, 0);
    EXPECT_EQ(r4.schedule_cache_hits, 0);
}

TEST(PhaseMemo, SolveCountsEveryLoweringOnceAtAnyWidth)
{
    // A cold solve lowers the tasks of every phase the memo holds (at
    // least one each), the same count at every width and under every
    // engine, and a warm repeat lowers nothing.
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
            long phases = -1;
            for (const auto &[layer, stats] : framework.cacheStats())
                if (layer == "collective_phases")
                    phases = stats.entries;
            EXPECT_GT(phases, 0) << label;
            EXPECT_GE(cold.schedule_lowerings, phases) << label;
            EXPECT_EQ(cold.schedule_lowerings,
                      framework.evaluatorStats().schedule_lowerings)
                << label;
            lowerings.push_back(cold.schedule_lowerings);

            const solver::SolverResult warm = framework.optimize(model);
            EXPECT_EQ(warm.step_time_s, cold.step_time_s) << label;
            EXPECT_EQ(warm.schedule_lowerings, 0) << label;
        }
        EXPECT_EQ(lowerings[0], lowerings[1])
            << solver::searchEngineName(engine);
    }
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
    // Plans with TATP streams, so stream plans hold route epochs.
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
