/**
 * @file
 * The robustness suite: fault-delta plumbing, fault churn on a live
 * wafer, and the scenario engine's determinism / warm-recovery /
 * degraded-answer contracts (src/scenario/README.md). Runs under TSan
 * in CI — the listener-storm tests exist precisely for that build.
 */
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "api/serialize.hpp"
#include "api/service.hpp"
#include "core/framework.hpp"
#include "hw/wafer.hpp"
#include "model/model_zoo.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace temp;

// ---------------------------------------------------------------------
// hw: fault deltas and fingerprints.
// ---------------------------------------------------------------------

TEST(FaultDelta, ApplyFailsRestoresAndSetsFractions)
{
    hw::FaultMap map(4, 16);
    map.failLink(3);

    hw::FaultDelta delta;
    delta.fail_links = {5, 7};
    delta.restore_links = {3};
    delta.core_fractions = {{1, 0.25}};
    EXPECT_FALSE(delta.empty());
    map.applyDelta(delta);

    EXPECT_FALSE(map.linkFailed(3));
    EXPECT_TRUE(map.linkFailed(5));
    EXPECT_TRUE(map.linkFailed(7));
    EXPECT_DOUBLE_EQ(map.coreFaultFraction(1), 0.25);
    EXPECT_TRUE(hw::FaultDelta{}.empty());
}

TEST(FaultDelta, DeltaBetweenRoundTrips)
{
    hw::FaultMap from(4, 16);
    from.failLink(1);
    from.failLink(2);
    from.setCoreFaultFraction(0, 0.5);

    hw::FaultMap to(4, 16);
    to.failLink(2);
    to.failLink(9);
    to.setCoreFaultFraction(3, 0.125);

    const hw::FaultDelta delta = hw::FaultMap::deltaBetween(from, to);
    from.applyDelta(delta);
    EXPECT_EQ(from.failedLinks(), to.failedLinks());
    for (int die = 0; die < 4; ++die)
        EXPECT_DOUBLE_EQ(from.coreFaultFraction(die),
                         to.coreFaultFraction(die));
    EXPECT_EQ(from.contentFingerprint(), to.contentFingerprint());
}

TEST(FaultDelta, FingerprintIsContentAddressed)
{
    // Same content reached along different histories must match.
    hw::FaultMap a(4, 16);
    a.failLink(9);
    a.failLink(2);

    hw::FaultMap b(4, 16);
    b.failLink(2);
    b.failLink(4);
    b.restoreLink(4);
    b.failLink(9);

    EXPECT_EQ(a.contentFingerprint(), b.contentFingerprint());

    // Probing a healthy die (trailing zero fraction) must not change
    // the fingerprint; a real fraction must.
    hw::FaultMap c = a;
    c.setCoreFaultFraction(3, 0.0);
    EXPECT_EQ(a.contentFingerprint(), c.contentFingerprint());
    c.setCoreFaultFraction(3, 0.5);
    EXPECT_NE(a.contentFingerprint(), c.contentFingerprint());
}

// ---------------------------------------------------------------------
// hw: fault churn on a live wafer.
// ---------------------------------------------------------------------

/// Applies a delta to the wafer's live fault map the way a storm does
/// (copy, apply, swap) and returns the new map's fingerprint.
std::uint64_t
applyToWafer(hw::Wafer &wafer, const hw::FaultDelta &delta)
{
    hw::FaultMap next = wafer.faults();
    next.applyDelta(delta);
    const std::uint64_t fingerprint = next.contentFingerprint();
    wafer.setFaults(std::move(next));
    return fingerprint;
}

TEST(WaferChurn, BackToBackDeltasEachReachTheWafer)
{
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    for (int i = 0; i < 32; ++i) {
        hw::FaultDelta delta;
        if (i % 3 == 2)
            delta.restore_links.push_back(i - 1);
        else
            delta.fail_links.push_back(i);
        delta.core_fractions.emplace_back(i % wafer.dieCount(),
                                          (i % 2) ? 0.25 : 0.0);
        const std::uint64_t applied = applyToWafer(wafer, delta);
        EXPECT_EQ(wafer.faults().contentFingerprint(), applied);
        for (hw::LinkId link : delta.fail_links)
            EXPECT_FALSE(wafer.linkUsable(link));
        for (hw::LinkId link : delta.restore_links)
            EXPECT_TRUE(wafer.linkUsable(link));
    }
}

TEST(WaferChurn, ListenersSeeEveryFaultSwapDuringStorm)
{
    // Each setFaults() notifies once, after the swap: the listener
    // reads the new fault state.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    std::vector<std::uint64_t> seen;
    const std::uint64_t id = wafer.addFaultListener([&] {
        seen.push_back(wafer.faults().contentFingerprint());
    });
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 64; ++i) {
        hw::FaultDelta delta;
        delta.fail_links.push_back(i % 8);
        delta.core_fractions.emplace_back(i % wafer.dieCount(),
                                          0.125 * (i % 4));
        expected.push_back(applyToWafer(wafer, delta));
    }
    wafer.removeFaultListener(id);
    // Removed: a further storm event must not reach the listener.
    wafer.setFaults(hw::FaultMap(wafer.dieCount(),
                                 wafer.topology().linkCount()));
    EXPECT_EQ(seen, expected);
}

TEST(WaferChurn, ListenerRegistrationRacesStormSafely)
{
    // One thread storms deltas; another registers/unregisters
    // listeners the whole time. TSan verifies the registry locking;
    // the assertion verifies no notification is lost or reordered for
    // a listener held across the storm.
    hw::Wafer wafer(hw::WaferConfig::paperDefault());
    std::vector<std::uint64_t> seen;
    const std::uint64_t stable = wafer.addFaultListener([&] {
        seen.push_back(wafer.faults().contentFingerprint());
    });

    std::vector<std::uint64_t> expected;
    std::atomic<bool> storm_done{false};
    std::thread churner([&] {
        for (int i = 0; i < 200; ++i) {
            hw::FaultDelta delta;
            delta.fail_links.push_back(i % 16);
            if (i % 4 == 3)
                delta.restore_links.push_back((i - 2) % 16);
            expected.push_back(applyToWafer(wafer, delta));
        }
        storm_done.store(true);
    });
    while (!storm_done.load()) {
        const std::uint64_t id = wafer.addFaultListener([] {});
        wafer.removeFaultListener(id);
    }
    churner.join();

    wafer.removeFaultListener(stable);
    ASSERT_EQ(seen.size(), 200u);
    EXPECT_EQ(seen, expected);
}

// ---------------------------------------------------------------------
// Scenario engine contracts. NoRefine keeps the solves cheap; the
// contracts under test are engine-independent.
// ---------------------------------------------------------------------

core::FrameworkOptions
cheapOptions()
{
    core::FrameworkOptions options;
    options.solver.engine = solver::SearchEngineKind::NoRefine;
    options.eval_threads = 2;
    return options;
}

std::shared_ptr<core::TempFramework>
freshFramework()
{
    return std::make_shared<core::TempFramework>(
        hw::WaferConfig::paperDefault(), cheapOptions());
}

scenario::Event
faultEvent(double at_s, double link_rate, std::uint64_t seed,
           double core_rate = 0.0)
{
    scenario::Event event;
    event.kind = scenario::Event::Kind::SetFaults;
    event.at_s = at_s;
    event.link_fault_rate = link_rate;
    event.core_fault_rate = core_rate;
    event.fault_seed = seed;
    return event;
}

scenario::Event
plainEvent(scenario::Event::Kind kind, double at_s)
{
    scenario::Event event;
    event.kind = kind;
    event.at_s = at_s;
    return event;
}

const model::ModelConfig kModel = model::modelByName("Llama2 7B");

std::vector<scenario::Event>
stormTimeline()
{
    using Kind = scenario::Event::Kind;
    return {faultEvent(10, 0.08, 7),
            plainEvent(Kind::WaferJoin, 20),
            faultEvent(30, 0.05, 13, 0.10),
            plainEvent(Kind::Reoptimize, 40),
            plainEvent(Kind::ClearFaults, 50),
            faultEvent(60, 0.08, 7),
            plainEvent(Kind::WaferLeave, 70)};
}

TEST(ScenarioEngine, ReplaysBitIdentically)
{
    const std::vector<scenario::Event> events = stormTimeline();
    scenario::ScenarioEngine first(freshFramework());
    scenario::ScenarioEngine second(freshFramework());
    const scenario::ScenarioReport a = first.replay(kModel, events);
    const scenario::ScenarioReport b = second.replay(kModel, events);

    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const scenario::EventReport &x = a.events[i];
        const scenario::EventReport &y = b.events[i];
        EXPECT_EQ(x.index, y.index);
        EXPECT_EQ(x.at_s, y.at_s);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.step_sims, y.step_sims);
        EXPECT_EQ(x.matrix_measurements, y.matrix_measurements);
        EXPECT_EQ(x.step_cache_hits, y.step_cache_hits);
        EXPECT_EQ(x.matrix_cache_hits, y.matrix_cache_hits);
        // Bit-identical, not approximately equal: the determinism
        // contract covers every mantissa bit.
        EXPECT_EQ(x.throughput_before, y.throughput_before);
        EXPECT_EQ(x.throughput_after, y.throughput_after);
        EXPECT_EQ(x.step_time_s, y.step_time_s);
        EXPECT_EQ(x.usable_dies, y.usable_dies);
        EXPECT_EQ(x.failed_links, y.failed_links);
        EXPECT_EQ(x.wafer_count, y.wafer_count);
        EXPECT_EQ(x.fault_fingerprint, y.fault_fingerprint);
        EXPECT_EQ(x.resolved, y.resolved);
        EXPECT_EQ(x.warm_seeded, y.warm_seeded);
        EXPECT_EQ(x.context_reused, y.context_reused);
        EXPECT_EQ(x.fallback_to_last_feasible,
                  y.fallback_to_last_feasible);
        EXPECT_EQ(x.degradation, y.degradation);
    }
    EXPECT_EQ(a.replay_digest, b.replay_digest);
    EXPECT_EQ(a.total_step_sims, b.total_step_sims);
    EXPECT_EQ(a.total_matrix_measurements,
              b.total_matrix_measurements);
}

TEST(ScenarioEngine, WarmRecoveryRunsFewerStepSimsThanCold)
{
    const std::vector<scenario::Event> events = stormTimeline();
    scenario::ScenarioEngine::Options cold_options;
    cold_options.warm_seed = false;
    scenario::ScenarioEngine warm_engine(freshFramework());
    scenario::ScenarioEngine cold_engine(freshFramework(),
                                         cold_options);
    const scenario::ScenarioReport warm =
        warm_engine.replay(kModel, events);
    const scenario::ScenarioReport cold =
        cold_engine.replay(kModel, events);

    ASSERT_EQ(warm.events.size(), cold.events.size());
    bool compared = false;
    for (std::size_t i = 0; i < warm.events.size(); ++i) {
        const scenario::EventReport &w = warm.events[i];
        EXPECT_FALSE(cold.events[i].warm_seeded);
        // Fresh-fault-state warm solves only: a revisited context is
        // memo-served (near-free) in both replays.
        if (!w.warm_seeded || w.context_reused)
            continue;
        compared = true;
        EXPECT_LT(w.step_sims, cold.events[i].step_sims)
            << "event " << i;
    }
    EXPECT_TRUE(compared);
    EXPECT_LT(warm.total_step_sims, cold.total_step_sims);
}

TEST(ScenarioEngine, RevisitedFaultStateReusesContextForFree)
{
    const std::vector<scenario::Event> events = stormTimeline();
    scenario::ScenarioEngine engine(freshFramework());
    const scenario::ScenarioReport report =
        engine.replay(kModel, events);

    // Event 5 re-draws event 0's faults on the repaired wafer: same
    // content fingerprint, so the context — and its memos — must be
    // reused with zero new matrix measurements.
    ASSERT_EQ(report.events.size(), events.size());
    const scenario::EventReport &revisit = report.events[5];
    EXPECT_EQ(revisit.fault_fingerprint,
              report.events[0].fault_fingerprint);
    EXPECT_TRUE(revisit.context_reused);
    EXPECT_EQ(revisit.matrix_measurements, 0);
    // The reoptimize of an unchanged state is served from the resident
    // context's memos too.
    const scenario::EventReport &repeat = report.events[3];
    EXPECT_TRUE(repeat.context_reused);
    EXPECT_EQ(repeat.matrix_measurements, 0);
    EXPECT_EQ(repeat.step_sims, 0);
}

TEST(ScenarioEngine, InfeasibleResolveFallsBackExplicitly)
{
    // Bricking every die is the one genuinely infeasible state: as
    // long as a single die lives, a degree-1 plan exists (random
    // draws clamp at 0.9 precisely so dies stay usable — hence the
    // deterministic kill_dies payload).
    scenario::Event kill;
    kill.kind = scenario::Event::Kind::SetFaults;
    kill.at_s = 10;
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    for (int die = 0; die < wafer.rows * wafer.cols; ++die)
        kill.kill_dies.push_back(die);
    std::vector<scenario::Event> events = {kill};
    scenario::ScenarioEngine engine(freshFramework());
    const scenario::ScenarioReport report =
        engine.replay(kModel, events);

    ASSERT_EQ(report.events.size(), 1u);
    const scenario::EventReport &er = report.events[0];
    EXPECT_EQ(er.usable_dies, 0);
    EXPECT_EQ(er.degradation, "infeasible");
    EXPECT_TRUE(er.fallback_to_last_feasible);
    EXPECT_EQ(report.infeasible_events, 1);
    EXPECT_EQ(report.fallback_events, 1);
    // Degraded-answer policy: the reported operating point is the last
    // feasible assignment (the healthy baseline), not zero and not the
    // infeasible solve's garbage.
    EXPECT_EQ(er.throughput_after, er.throughput_before);
    EXPECT_GT(er.throughput_after, 0.0);
}

TEST(ScenarioEngine, DigestCoversDeterministicFieldsOnly)
{
    scenario::EventReport er;
    er.index = 1;
    er.step_sims = 10;
    er.degradation = "degraded";
    const std::uint64_t base =
        scenario::foldEventReport(14695981039346656037ULL, er);

    scenario::EventReport wall = er;
    wall.recovery_wall_s = 123.456;  // the one nondeterministic field
    EXPECT_EQ(scenario::foldEventReport(14695981039346656037ULL, wall),
              base);

    scenario::EventReport changed = er;
    changed.step_sims = 11;
    EXPECT_NE(
        scenario::foldEventReport(14695981039346656037ULL, changed),
        base);
    scenario::EventReport flagged = er;
    flagged.fallback_to_last_feasible = true;
    EXPECT_NE(
        scenario::foldEventReport(14695981039346656037ULL, flagged),
        base);
}

// ---------------------------------------------------------------------
// Cache-layer accounting across fault epochs.
// ---------------------------------------------------------------------

TEST(ScenarioEngine, CacheLayerCountersStayHonestAcrossEpochs)
{
    api::TempService service;
    api::OptimizeRequest healthy{kModel,
                                 hw::WaferConfig::paperDefault(),
                                 cheapOptions()};
    ASSERT_TRUE(service.run(healthy).ok);
    const api::Response before = service.run(api::CacheStatsRequest{});
    ASSERT_TRUE(before.ok);

    api::FaultRequest fault{kModel, hw::WaferConfig::paperDefault(),
                            cheapOptions()};
    fault.link_fault_rate = 0.08;
    fault.fault_seed = 7;
    ASSERT_TRUE(service.run(fault).ok);
    ASSERT_TRUE(service.run(healthy).ok);
    const api::Response after = service.run(api::CacheStatsRequest{});
    ASSERT_TRUE(after.ok);

    // Counters are cumulative and monotonic: a fault epoch in between
    // must never reset or double-count a layer.
    ASSERT_EQ(before.cache_layers.size(), after.cache_layers.size());
    for (std::size_t i = 0; i < before.cache_layers.size(); ++i) {
        const api::CacheLayerStats &b = before.cache_layers[i];
        const api::CacheLayerStats &a = after.cache_layers[i];
        EXPECT_EQ(b.layer, a.layer);
        EXPECT_GE(a.stats.hits, b.stats.hits) << a.layer;
        EXPECT_GE(a.stats.misses, b.stats.misses) << a.layer;
        EXPECT_GE(a.stats.evictions, b.stats.evictions) << a.layer;
    }
}

// ---------------------------------------------------------------------
// api: the scenario request surface.
// ---------------------------------------------------------------------

api::ScenarioRequest
sampleRequest()
{
    api::ScenarioRequest request;
    request.model = kModel;
    request.options = cheapOptions();
    request.warm_seed = true;
    request.events = stormTimeline();
    request.events[0].kill_dies = {3, 5};
    scenario::Event model_switch;
    model_switch.kind = scenario::Event::Kind::ModelSwitch;
    model_switch.at_s = 80;
    model_switch.model = model::modelByName("GPT-3 6.7B");
    request.events.push_back(model_switch);
    return request;
}

TEST(ScenarioRequestIo, JsonRoundTripPreservesRequestKey)
{
    const api::Request original = sampleRequest();
    const std::string json = api::toJson(original, "tenant-a");

    api::ParsedRequest parsed;
    std::string error;
    ASSERT_TRUE(api::parseRequest(json, &parsed, &error)) << error;
    EXPECT_EQ(parsed.tenant, "tenant-a");
    ASSERT_TRUE(std::holds_alternative<api::ScenarioRequest>(
        parsed.request));
    EXPECT_EQ(api::requestKey(parsed.request),
              api::requestKey(original));
    // Byte-stable re-serialization (the coalescing key's foundation).
    EXPECT_EQ(api::toJson(parsed.request, "tenant-a"), json);
}

TEST(ScenarioRequestIo, RejectsMalformedTimelines)
{
    api::ParsedRequest parsed;
    std::string error;

    EXPECT_FALSE(api::parseRequest(
        R"({"kind":"scenario","model":{"base":"Llama2 7B"}})", &parsed,
        &error));
    EXPECT_NE(error.find("'events' is required"), std::string::npos);

    EXPECT_FALSE(api::parseRequest(
        R"({"kind":"scenario","model":{"base":"Llama2 7B"},)"
        R"("events":[{"type":"warp_core_breach"}]})",
        &parsed, &error));
    EXPECT_NE(error.find("unknown events[0] type"), std::string::npos);

    EXPECT_FALSE(api::parseRequest(
        R"({"kind":"scenario","model":{"base":"Llama2 7B"},)"
        R"("events":[{"type":"reoptimize","link_fault_rate":0.5}]})",
        &parsed, &error));
    EXPECT_NE(error.find("not a set_faults"), std::string::npos);

    EXPECT_FALSE(api::parseRequest(
        R"({"kind":"scenario","model":{"base":"Llama2 7B"},)"
        R"("events":[{"type":"model_switch"}]})",
        &parsed, &error));
    EXPECT_NE(error.find("requires 'model'"), std::string::npos);

    EXPECT_FALSE(api::parseRequest(
        R"({"kind":"scenario","model":{"base":"Llama2 7B"},)"
        R"("events":[{"type":"set_faults","kill_dies":[-1]}]})",
        &parsed, &error));
    EXPECT_NE(error.find("must be >= 0"), std::string::npos);

    // The kind list in the unknown-kind error advertises scenario.
    EXPECT_FALSE(api::parseRequest(R"({"kind":"nope"})", &parsed,
                                   &error));
    EXPECT_NE(error.find("scenario"), std::string::npos);
}

TEST(ScenarioService, RunsTimelineAndRejectsEmptyOne)
{
    api::TempService service;

    api::ScenarioRequest empty;
    empty.model = kModel;
    empty.options = cheapOptions();
    const api::Response bad = service.run(empty);
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("empty event timeline"),
              std::string::npos);

    api::ScenarioRequest request;
    request.model = kModel;
    request.options = cheapOptions();
    request.events = {faultEvent(10, 0.08, 7),
                      plainEvent(scenario::Event::Kind::ClearFaults,
                                 20)};
    const api::Response response = service.run(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.kind, api::RequestKind::Scenario);
    ASSERT_EQ(response.scenario.events.size(), 2u);
    EXPECT_TRUE(response.scenario.events[0].resolved);
    EXPECT_NE(response.scenario.replay_digest, 0u);
    // The JSON face carries the payload.
    const std::string json = api::toJson(response);
    EXPECT_NE(json.find("\"replay_digest\""), std::string::npos);
    EXPECT_NE(json.find("\"deadline_exceeded\":false"),
              std::string::npos);
}

TEST(ScenarioEngine, QuantumBudgetBoundsEveryRecoveryDeterministically)
{
    // A refining engine so the unbudgeted replay has real work the
    // budget can cut off.
    core::FrameworkOptions options = cheapOptions();
    options.solver.engine = solver::SearchEngineKind::Genetic;
    options.solver.ga_population = 8;
    options.solver.ga_generations = 4;
    auto framework = [&] {
        return std::make_shared<core::TempFramework>(
            hw::WaferConfig::paperDefault(), options);
    };
    const std::vector<scenario::Event> events = stormTimeline();

    scenario::ScenarioEngine free_engine(framework());
    const scenario::ScenarioReport free_replay =
        free_engine.replay(kModel, events);

    // The budget bounds EACH re-solve (baseline included), not the
    // whole timeline: a fault storm of N events costs at most N bounded
    // recoveries.
    scenario::ScenarioEngine::Options bounded;
    bounded.solve_budget.max_quanta = 1;
    scenario::ScenarioEngine first(framework(), bounded);
    scenario::ScenarioEngine second(framework(), bounded);
    const scenario::ScenarioReport a = first.replay(kModel, events);
    const scenario::ScenarioReport b = second.replay(kModel, events);

    // Quantum budgets keep the replay bit-identical; the budget fields
    // are folded into the digest, so equality covers them too.
    EXPECT_EQ(a.replay_digest, b.replay_digest);
    EXPECT_EQ(a.total_quanta, b.total_quanta);
    EXPECT_EQ(a.budget_exhausted_events, b.budget_exhausted_events);

    // Every re-solve was truncated (flagged, not silent) yet still
    // produced a fully simulated feasible plan from the preamble.
    ASSERT_EQ(a.events.size(), events.size());
    EXPECT_GT(a.budget_exhausted_events, 0);
    for (const scenario::EventReport &er : a.events) {
        if (!er.resolved)
            continue;
        EXPECT_TRUE(er.budget_exhausted) << "event " << er.index;
        EXPECT_GT(er.quanta_used, 0) << "event " << er.index;
        EXPECT_FALSE(er.fallback_to_last_feasible)
            << "event " << er.index;
    }

    // Bounded recovery is strictly cheaper than open-ended recovery,
    // and the truncation is visible in the replay identity.
    EXPECT_GT(free_replay.total_quanta, a.total_quanta);
    EXPECT_EQ(free_replay.budget_exhausted_events, 0);
    EXPECT_NE(free_replay.replay_digest, a.replay_digest);
}

}  // namespace
