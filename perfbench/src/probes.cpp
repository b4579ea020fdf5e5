#include "probes.hpp"

#include <filesystem>
#include <memory>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "api/serialize.hpp"
#include "api/service.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace temp;

namespace {

/// Runs @p fn inside a span named @p name; returns its duration in
/// microseconds.
template <typename Fn>
double
timedUs(const char *name, Fn &&fn)
{
    ScopedSpan span(name);
    const double t0 = nowS();
    fn();
    return (nowS() - t0) * 1e6;
}

/// Samples of one metric, reduced at the end to a median (whole-phase
/// times), a mean (single calls, whose cost is heavy-tailed: a few
/// calls lower and route, most hit caches) or a sum (counters).
struct Samples
{
    std::map<std::string, std::vector<double>> times;
    std::map<std::string, std::pair<double, long>> calls;
    std::map<std::string, double> sums;

    void time(const std::string &name, double value)
    {
        times[name].push_back(value);
    }
    void call(const std::string &name, double us)
    {
        calls[name].first += us;
        ++calls[name].second;
    }
    void count(const std::string &name, double value) { sums[name] += value; }

    void reduceInto(std::map<std::string, double> &out) const
    {
        for (const auto &[name, values] : times)
            out[name] = median(values);
        for (const auto &[name, total] : calls)
            out[name] = total.first / static_cast<double>(total.second);
        for (const auto &[name, value] : sums)
            out[name] = value;
    }
};

struct SimStack
{
    hw::Wafer wafer;
    sim::TrainingSimulator sim;

    SimStack(const hw::WaferConfig &config, const core::FrameworkOptions &o)
        : wafer(config), sim(wafer, o.policy, o.training)
    {
    }
};

solver::SolverConfig
solverConfig(const core::FrameworkOptions &options)
{
    solver::SolverConfig config = options.solver;
    config.eval_threads = options.eval_threads;
    return config;
}

/// The solver, eval and sim probes of one model.
void
probeSolve(const model::ModelConfig &model,
           const core::FrameworkOptions &options, Samples &s)
{
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    const solver::SolverConfig config = solverConfig(options);

    // The monolithic cold solve.
    SimStack cold(wafer, options);
    const solver::DlsSolver monolithic(cold.sim, config);
    solver::SolverResult result;
    const double solve_us =
        timedUs("solver.solve", [&] { result = monolithic.solve(graph); });
    s.time("solver.solve_ms", solve_us * 1e-3);
    s.count("solver.evaluations", static_cast<double>(result.evaluations));
    s.count("solver.step_sims", static_cast<double>(result.step_sims));
    s.count("solver.quanta_used", static_cast<double>(result.quanta_used));
    s.count("sim.simulate_calls", static_cast<double>(result.step_sims));
    s.count("net.schedule_lowerings",
            static_cast<double>(result.schedule_lowerings));
    s.count("net.schedule_cache_hits",
            static_cast<double>(result.schedule_cache_hits));
    const eval::EvalStats evals = monolithic.evaluator().stats();
    const eval::StepStats steps = monolithic.stepEvaluator().stats();
    s.count("eval.measurements", static_cast<double>(evals.measurements));
    s.count("eval.cache_hits", static_cast<double>(evals.cache_hits));
    s.count("eval.layouts_built", static_cast<double>(evals.layouts_built));
    s.count("eval.layout_hits", static_cast<double>(evals.layout_hits));
    s.count("eval.step_sims", static_cast<double>(steps.sims));
    s.count("eval.step_cache_hits", static_cast<double>(steps.cache_hits));

    // The same solve in parts, on shared evaluators.
    SimStack parts(wafer, options);
    ThreadPool pool(options.eval_threads);
    eval::ExactEvaluator exact(parts.sim.costModel(), &pool,
                               /*memoize_breakdowns=*/false);
    eval::CachingEvaluator cached(exact);
    eval::StepEvaluator stepper(parts.sim, &pool);
    std::vector<parallel::ParallelSpec> candidates;
    const double enumerate_us = timedUs("solver.enumerate", [&] {
        candidates = solver::enumerateStrategies(
            parts.wafer.usableDieCount(), model, config.space);
    });
    std::vector<eval::EvalRequest> cells;
    for (int i = 0; i < graph.opCount(); ++i)
        for (const parallel::ParallelSpec &spec : candidates)
            cells.push_back({i, spec, true});
    const double fill_us = timedUs(
        "eval.matrix_fill", [&] { cached.evaluateBatch(graph, cells); });
    std::vector<std::vector<parallel::ParallelSpec>> uniform;
    for (const parallel::ParallelSpec &spec : candidates)
        uniform.emplace_back(static_cast<std::size_t>(graph.opCount()), spec);
    const double uniform_us = timedUs(
        "eval.uniform_batch", [&] { stepper.evaluateBatch(graph, uniform); });
    const solver::DlsSolver warmed(parts.sim, config, &cached, &stepper);
    const double search_us =
        timedUs("solver.search", [&] { warmed.solve(graph); });
    s.time("solver.enumerate_ms", enumerate_us * 1e-3);
    s.time("eval.matrix_fill_ms", fill_us * 1e-3);
    s.time("eval.uniform_batch_ms", uniform_us * 1e-3);
    s.time("solver.search_ms", search_us * 1e-3);
    s.time("solver.decomposition_coverage",
           (enumerate_us + fill_us + uniform_us + search_us) / solve_us);

    // Warm memo lookups.
    {
        ScopedSpan span("eval.hit_lookup");
        const std::size_t lookups = std::min<std::size_t>(cells.size(), 2000);
        const double t0 = nowS();
        for (std::size_t k = 0; k < lookups; ++k)
            cached.evaluate(graph, cells[k]);
        s.time("eval.hit_lookup_us",
               (nowS() - t0) * 1e6 / static_cast<double>(lookups));
    }

    // The matrix fill at one thread.
    {
        SimStack serial(wafer, options);
        eval::ExactEvaluator exact1(serial.sim.costModel(), nullptr, false);
        eval::CachingEvaluator cached1(exact1);
        const double fill1_us = timedUs("eval.matrix_fill_1t", [&] {
            cached1.evaluateBatch(graph, cells);
        });
        s.time("eval.matrix_fill_ms_1t", fill1_us * 1e-3);
        s.time("eval.fill_speedup", fill1_us / fill_us);
    }

    // Level-2 refinement against the DP-only plan.
    {
        SimStack dp_stack(wafer, options);
        solver::SolverConfig dp_config = config;
        dp_config.engine = solver::SearchEngineKind::NoRefine;
        const solver::DlsSolver dp_only(dp_stack.sim, dp_config);
        solver::SolverResult dp;
        timedUs("solver.dp_only", [&] { dp = dp_only.solve(graph); });
        if (dp.feasible && result.feasible)
            s.time("solver.refine_gain_pct",
                   (dp.step_time_s / result.step_time_s - 1.0) * 100.0);
        s.count("solver.refine_step_sims",
                static_cast<double>(result.step_sims - dp.step_sims));
    }

    // Full-step simulation of the plan on the warm stack.
    if (result.feasible)
        for (int k = 0; k < 3; ++k)
            s.time("sim.simulate_ms", timedUs("sim.simulate", [&] {
                       parts.sim.simulate(graph, result.per_op_specs);
                   }) * 1e-3);
}

/// The cost, tatp, tcme and net probes of one model, on a cold stack.
void
probeCost(const model::ModelConfig &model,
          const core::FrameworkOptions &options, Samples &s)
{
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    SimStack stack(hw::WaferConfig::paperDefault(), options);
    const cost::WaferCostModel &cm = stack.sim.costModel();
    const net::Router &router = cm.router();
    const net::CollectiveScheduler scheduler(router);
    const net::ContentionModel contention(stack.wafer,
                                          stack.wafer.config().d2d.latency_s);
    const tcme::TrafficOptimizer optimizer(router);
    const tatp::ChainMapper mapper(stack.wafer.topology());
    const tatp::TatpExecutor executor(stack.wafer.config().d2d);

    const std::vector<parallel::ParallelSpec> candidates =
        solver::enumerateStrategies(stack.wafer.dieCount(), model,
                                    solver::StrategySpaceOptions{});
    for (std::size_t c = 0; c < candidates.size(); c += 5) {
        const parallel::ParallelSpec &spec = candidates[c];
        std::unique_ptr<parallel::GroupLayout> layout;
        s.call("cost.build_layout_us", timedUs("cost.build_layout", [&] {
                   layout = std::make_unique<parallel::GroupLayout>(
                       cm.buildLayout(graph, spec));
               }));
        for (int i = 0; i < graph.opCount(); ++i) {
            const model::Operator &op = graph.op(i);
            s.call("cost.op_cost_us", timedUs("cost.op_cost", [&] {
                       cm.opCost(op, *layout, true);
                   }));
            if (i > 0)
                s.call("cost.inter_op_us", timedUs("cost.inter_op", [&] {
                           cm.interOpTime(graph.op(i - 1), spec,
                                          candidates[(c + 1) %
                                                     candidates.size()]);
                       }));
            const parallel::OpExecution exec =
                cm.partitioner().analyze(op, *layout);
            if (exec.tatp.active) {
                std::vector<tatp::ChainInfo> chains;
                for (const std::vector<hw::DieId> &group :
                     layout->groups(parallel::Axis::TATP)) {
                    std::vector<hw::DieId> ordered;
                    s.call("tatp.order_as_chain_us",
                           timedUs("tatp.order_as_chain", [&] {
                               ordered = mapper.orderAsChain(group);
                           }));
                    chains.push_back(mapper.analyzeChain(ordered));
                }
                s.call("tatp.stream_flows_us", timedUs("tatp.stream_flows", [&] {
                           executor.streamFlows(exec.tatp, chains, router,
                                                false);
                       }));
            }
            std::vector<net::CommSchedule> lowered;
            for (const auto *tasks :
                 {&exec.fwd_collectives, &exec.bwd_collectives,
                  &exec.step_collectives})
                for (const net::CollectiveTask &task : *tasks) {
                    net::CommSchedule schedule;
                    s.call("net.lower_us", timedUs("net.lower", [&] {
                               schedule = scheduler.schedule(task);
                           }));
                    lowered.push_back(std::move(schedule));
                }
            if (lowered.empty())
                continue;
            std::vector<const net::CommSchedule *> parts;
            for (const net::CommSchedule &schedule : lowered)
                parts.push_back(&schedule);
            net::CommSchedule combined = net::CommSchedule::combine(parts);
            combined.finalize();
            s.call("net.contention_us", timedUs("net.contention", [&] {
                       contention.evaluateSequence(combined);
                   }));
            net::CommSchedule rewritten = combined;
            tcme::OptimizationStats stats;
            s.call("tcme.optimize_us", timedUs("tcme.optimize", [&] {
                       stats = optimizer.optimize(rewritten);
                   }));
            s.time("tcme.improvement_pct", (stats.improvement() - 1.0) * 100);
        }
    }

    // Pooled route lookups (warm pool, the lowering hot path).
    const int dies = stack.wafer.dieCount();
    for (int pass = 0; pass < 2; ++pass) {
        ScopedSpan span("net.safe_route");
        const double t0 = nowS();
        for (int a = 0; a < dies; ++a)
            for (int b = 0; b < dies; ++b)
                router.safeRouteRef(a, b);
        if (pass == 1)
            s.time("net.safe_route_us",
                   (nowS() - t0) * 1e6 / static_cast<double>(dies * dies));
    }
}

/// hw and core: fault swaps with listeners, framework and degraded
/// context construction.
void
probeFaults(const ProbeInputs &inputs, Samples &s)
{
    const hw::WaferConfig config = hw::WaferConfig::paperDefault();
    const model::ComputeGraph graph =
        model::ComputeGraph::transformer(inputs.models.front());
    hw::Wafer wafer(config);
    const sim::TrainingSimulator sim(wafer, inputs.options.policy,
                                     inputs.options.training);
    const std::vector<parallel::ParallelSpec> candidates =
        solver::enumerateStrategies(wafer.dieCount(), inputs.models.front(),
                                    solver::StrategySpaceOptions{});
    const hw::FaultMap healthy(wafer.dieCount(),
                               wafer.topology().linkCount());
    for (int k = 0; k < 5; ++k) {
        sim.simulate(graph, candidates[static_cast<std::size_t>(k) %
                                       candidates.size()]);
        s.time("hw.set_faults_ms", timedUs("hw.set_faults", [&] {
                   wafer.setFaults(inputs.faults);
               }) * 1e-3);
        wafer.setFaults(healthy);
    }
    for (int k = 0; k < 5; ++k) {
        std::unique_ptr<core::TempFramework> fw;
        s.time("core.framework_build_ms",
               timedUs("core.framework_build", [&] {
                   fw = std::make_unique<core::TempFramework>(config,
                                                              inputs.options);
               }) * 1e-3);
        s.time("core.degraded_context_ms",
               timedUs("core.degraded_context", [&] {
                   fw->degradedContext(inputs.faults);
               }) * 1e-3);
    }
}

/// api, serve, persist and scenario through a service and a loopback
/// server.
void
probeService(const ProbeInputs &inputs, Samples &s)
{
    for (const api::Request &request : inputs.requests)
        for (int k = 0; k < 5; ++k) {
            std::string json;
            s.time("api.request_key_us", timedUs("api.request_key", [&] {
                       api::requestKey(request);
                   }));
            json = api::toJson(request);
            api::ParsedRequest parsed;
            std::string error;
            s.time("api.parse_us", timedUs("api.parse", [&] {
                       api::parseRequest(json, &parsed, &error);
                   }));
        }

    const api::Request &sample = inputs.requests.front();
    std::filesystem::create_directories(inputs.workdir);
    const std::string path = inputs.workdir + "/probe.snap";
    {
        api::TempService first;
        api::Response response;
        timedUs("api.run", [&] { response = first.run(sample); });
        for (int k = 0; k < 20; ++k)
            s.time("api.to_json_us", timedUs("api.to_json", [&] {
                       api::toJson(response);
                   }));
        s.time("persist.save_ms", timedUs("persist.save", [&] {
                   first.saveSnapshot(path);
               }) * 1e-3);
        std::error_code ec;
        s.count("persist.snapshot_bytes",
                static_cast<double>(std::filesystem::file_size(path, ec)));
        api::TempService second;
        s.time("persist.load_ms", timedUs("persist.load", [&] {
                   second.warmStart(path);
               }) * 1e-3);
        second.run(sample);
        s.count("persist.frameworks_warmed",
                static_cast<double>(second.persistStats().frameworks_warmed));
    }

    {
        api::TempService service;
        serve::ServerOptions options;
        serve::Server server(service, options);
        std::string error;
        serve::Client client;
        if (server.start(&error) &&
            client.connect("127.0.0.1", server.port(), &error)) {
            std::vector<double> overhead;
            for (int k = 0; k < 10; ++k) {
                const api::Request &request =
                    inputs.requests[static_cast<std::size_t>(k) %
                                    std::min<std::size_t>(
                                        2, inputs.requests.size())];
                std::string body;
                const double t0 = nowS();
                {
                    ScopedSpan span("serve.call");
                    client.call(request, "probe", &body, &error);
                }
                const double rtt_ms = (nowS() - t0) * 1e3;
                common::JsonValue response;
                if (common::parseJson(body, &response, &error))
                    if (const common::JsonValue *wall =
                            response.find("wall_time_s"))
                        overhead.push_back(rtt_ms - wall->number * 1e3);
            }
            s.time("serve.overhead_ms_p50", median(overhead));
        }
        client.close();
        server.stop();
        const serve::DispatchStats stats = server.stats();
        s.time("serve.coalesce_frac",
               stats.accepted > 0
                   ? static_cast<double>(stats.coalesced) / stats.accepted
                   : 0.0);
        s.count("serve.executed", static_cast<double>(stats.executed));
        s.count("serve.shed", static_cast<double>(stats.shed));
        s.count("serve.deadline_expired",
                static_cast<double>(stats.deadline_expired));
    }

    if (!inputs.scenario.events.empty()) {
        api::TempService service;
        api::Response response;
        timedUs("scenario.replay",
                [&] { response = service.run(inputs.scenario); });
        std::vector<double> recoveries;
        long reused = 0, degraded = 0;
        for (const scenario::EventReport &event : response.scenario.events)
            if (event.resolved) {
                recoveries.push_back(event.recovery_wall_s * 1e3);
                if (event.degradation == "degraded") {
                    ++degraded;
                    reused += event.context_reused ? 1 : 0;
                }
            }
        s.time("scenario.recovery_ms_p50", median(recoveries));
        s.count("scenario.step_sims",
                static_cast<double>(response.scenario.total_step_sims));
        s.count("scenario.matrix_measurements",
                static_cast<double>(
                    response.scenario.total_matrix_measurements));
        s.time("scenario.context_reuse_frac",
               degraded > 0 ? static_cast<double>(reused) / degraded : 0.0);
        s.count("scenario.fallback_events",
                static_cast<double>(response.scenario.fallback_events));
    }
}

}  // namespace

std::map<std::string, double>
runProbes(const ProbeInputs &inputs)
{
    Samples samples;
    for (const model::ModelConfig &model : inputs.models) {
        probeSolve(model, inputs.options, samples);
        probeCost(model, inputs.options, samples);
    }
    probeFaults(inputs, samples);
    probeService(inputs, samples);

    std::map<std::string, double> metrics;
    samples.reduceInto(metrics);
    const double lookups = metrics["eval.measurements"] +
                           metrics["eval.cache_hits"];
    metrics["eval.hit_rate"] =
        lookups > 0 ? metrics["eval.cache_hits"] / lookups : 0.0;
    const double schedule_lookups = metrics["net.schedule_lowerings"] +
                                    metrics["net.schedule_cache_hits"];
    metrics["net.schedule_hit_rate"] =
        schedule_lookups > 0
            ? metrics["net.schedule_cache_hits"] / schedule_lookups
            : 0.0;
    return metrics;
}

}  // namespace perfbench
