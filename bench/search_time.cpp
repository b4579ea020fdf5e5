/**
 * @file
 * Reproduces the Sec. VIII-H search-time comparison: the dual-level
 * search (graph partition + DP + GA) vs the exhaustive branch-and-bound
 * baseline standing in for the ILP of [144] (Alpa), which the paper
 * reports at ~40 hours for GPT-3 76B on 64 dies vs ~3 minutes for DLS
 * (>200x).
 */
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "eval/cost_evaluator.hpp"
#include "sim/trainer_sim.hpp"
#include "solver/dls_solver.hpp"
#include "solver/strategy_space.hpp"

using namespace temp;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The evaluation-layer micro-bench: fills the full (op, candidate)
 * matrix cold (all measurements) and then warm (all cache hits) at
 * several thread counts, and runs the DLS search with the same pool
 * width. Emits one BENCH_JSON line per thread count so trajectories
 * can track evaluations/sec and hit-rate across commits.
 */
void
evaluatorThroughput(const sim::TrainingSimulator &sim,
                    const model::ComputeGraph &graph)
{
    std::vector<parallel::ParallelSpec> candidates =
        solver::enumerateStrategies(sim.wafer().dieCount(),
                                    graph.config(), {});
    std::vector<eval::EvalRequest> requests;
    for (int i = 0; i < graph.opCount(); ++i)
        for (const parallel::ParallelSpec &spec : candidates)
            requests.push_back({i, spec, true});

    const int hw_threads = std::max(
        4u, std::thread::hardware_concurrency());
    TablePrinter t({"Threads", "Cold fill (s)", "Evals/s (cold)",
                    "Warm refill (s)", "Warm hit rate", "DLS solve (s)",
                    "Speedup vs 1T"});
    double base_cold = 0.0;
    // Each width fills, and then solves on, simulators of its own: the
    // op-cell memo lives in the cost model, so a shared one would make
    // every fill after the first a warm refill.
    const auto fresh = [&] {
        return std::make_unique<sim::TrainingSimulator>(
            sim.wafer(), sim.costModel().policy(),
            sim.costModel().partitioner().options());
    };
    for (int threads : {1, 2, hw_threads}) {
        ThreadPool pool(threads);
        const auto fill_sim = fresh();
        eval::ExactEvaluator evaluator(fill_sim->costModel(), &pool);

        const double t0 = now();
        evaluator.evaluateBatch(graph, requests);
        const double cold = now() - t0;
        const eval::EvalStats after_cold = evaluator.stats();
        const double t1 = now();
        evaluator.evaluateBatch(graph, requests);
        const double warm = now() - t1;

        // Hit rate of the warm pass alone (expected 1.0; anything less
        // is a cache regression), not the cumulative cold+warm ratio,
        // which is 0.5 by construction.
        const eval::EvalStats warm_stats =
            evaluator.stats() - after_cold;
        const double hit_rate =
            static_cast<double>(warm_stats.cache_hits) /
            static_cast<double>(warm_stats.cache_hits +
                                warm_stats.measurements);
        const double evals_per_s =
            cold > 0.0 ? static_cast<double>(requests.size()) / cold
                       : 0.0;

        solver::SolverConfig cfg;
        cfg.eval_threads = threads;
        const double t2 = now();
        const solver::SolverResult solved =
            solver::DlsSolver(*fresh(), cfg).solve(graph);
        const double solve = now() - t2;

        if (threads == 1)
            base_cold = cold;
        t.addRow({std::to_string(threads), TablePrinter::fmt(cold, 3),
                  TablePrinter::fmt(evals_per_s, 0),
                  TablePrinter::fmt(warm, 4),
                  TablePrinter::fmt(hit_rate, 3),
                  TablePrinter::fmt(solve, 2),
                  TablePrinter::fmtX(
                      base_cold > 0.0 && cold > 0.0 ? base_cold / cold
                                                    : 0.0,
                      2)});
        std::printf("BENCH_JSON {\"bench\":\"search_time\","
                    "\"section\":\"evaluator_throughput\","
                    "\"model\":\"%s\",\"threads\":%d,"
                    "\"matrix_cells\":%zu,\"cold_fill_s\":%.6f,"
                    "\"evals_per_s\":%.1f,\"warm_refill_s\":%.6f,"
                    "\"cache_hit_rate\":%.4f,\"dls_solve_s\":%.4f,"
                    "\"solver_feasible\":%s}\n",
                    graph.config().name.c_str(), threads,
                    requests.size(), cold, evals_per_s, warm, hit_rate,
                    solve, solved.feasible ? "true" : "false");
    }
    t.print("Evaluator batch throughput (memoized exact backend)");
    std::printf("Warm refills are pure cache hits; the solver's matrix "
                "fill sees the same hit-rate when phases share one "
                "evaluator.\n");
}

/**
 * The refiner-batch micro-bench: the genetic refinement with serial
 * (1-thread) vs batched (N-thread) StepEvaluator fitness, plus the
 * step-cache hit rate of a repeat solve on the same solver. The
 * counters — and the bit-identical plans — validate the batching
 * contract on any core count.
 */
void
refinerBatch(const sim::TrainingSimulator &sim,
             const model::ComputeGraph &graph)
{
    const int hw_threads = std::max(
        4u, std::thread::hardware_concurrency());
    TablePrinter t({"Threads", "Solve (s)", "Step sims", "Step hits",
                    "Repeat sims", "Repeat hit rate"});
    for (int threads : {1, hw_threads}) {
        solver::SolverConfig cfg;
        cfg.eval_threads = threads;
        solver::DlsSolver solver(sim, cfg);

        const double t0 = now();
        const solver::SolverResult first = solver.solve(graph);
        const double solve_s = now() - t0;
        const double t1 = now();
        const solver::SolverResult repeat = solver.solve(graph);
        const double repeat_s = now() - t1;

        const long repeat_queries =
            repeat.step_sims + repeat.step_cache_hits;
        const double repeat_hit_rate =
            repeat_queries > 0
                ? static_cast<double>(repeat.step_cache_hits) /
                      static_cast<double>(repeat_queries)
                : 0.0;
        t.addRow({std::to_string(threads), TablePrinter::fmt(solve_s, 2),
                  std::to_string(first.step_sims),
                  std::to_string(first.step_cache_hits),
                  std::to_string(repeat.step_sims),
                  TablePrinter::fmt(repeat_hit_rate, 3)});
        std::printf(
            "BENCH_JSON {\"bench\":\"search_time\","
            "\"section\":\"refiner_batch\",\"model\":\"%s\","
            "\"engine\":\"genetic\",\"threads\":%d,"
            "\"solve_s\":%.4f,\"step_sims\":%ld,"
            "\"step_cache_hits\":%ld,\"repeat_solve_s\":%.4f,"
            "\"repeat_step_sims\":%ld,"
            "\"repeat_step_hit_rate\":%.4f,"
            "\"feasible\":%s}\n",
            graph.config().name.c_str(), threads, solve_s,
            first.step_sims, first.step_cache_hits, repeat_s,
            repeat.step_sims, repeat_hit_rate,
            first.feasible ? "true" : "false");
    }
    t.print("Refiner fitness: serial vs batched, repeat hit rate");
    std::printf("Repeat solves re-simulate nothing (step memo); plans "
                "are bit-identical across thread counts.\n");
}

}  // namespace

namespace {

/**
 * The service-cache section: the same OptimizeRequest twice through
 * one TempService. The first solve fills the shared evaluator; the
 * repeat must be served entirely from it — zero new matrix
 * measurements — which is exactly what a serving process gets when
 * traffic repeats (model, wafer) pairs.
 */
void
serviceCacheReuse(const char *name)
{
    api::TempService service;  // fresh caches: first = cold fill
    api::OptimizeRequest request{model::modelByName(name)};
    const api::Response first = service.run(request);
    const api::Response repeat = service.run(request);
    std::printf("Repeat OptimizeRequest(%s): framework %s, "
                "%ld new measurements (first solve: %ld), "
                "%ld cache hits, %ld new step sims (first: %ld), "
                "%.3f s vs %.3f s\n",
                name, repeat.framework_reused ? "reused" : "rebuilt",
                repeat.solver.matrix_measurements,
                first.solver.matrix_measurements,
                repeat.solver.cache_hits, repeat.solver.step_sims,
                first.solver.step_sims, repeat.wall_time_s,
                first.wall_time_s);
    std::printf("BENCH_JSON {\"bench\":\"search_time\","
                "\"section\":\"service_cache\",\"model\":\"%s\","
                "\"framework_reused\":%s,"
                "\"first_measurements\":%ld,"
                "\"repeat_measurements\":%ld,\"repeat_cache_hits\":%ld,"
                "\"first_step_sims\":%ld,\"repeat_step_sims\":%ld,"
                "\"repeat_step_cache_hits\":%ld,"
                "\"first_s\":%.6f,\"repeat_s\":%.6f}\n",
                name, repeat.framework_reused ? "true" : "false",
                first.solver.matrix_measurements,
                repeat.solver.matrix_measurements,
                repeat.solver.cache_hits, first.solver.step_sims,
                repeat.solver.step_sims,
                repeat.solver.step_cache_hits, first.wall_time_s,
                repeat.wall_time_s);
}

}  // namespace

namespace {

/**
 * The lowering section: the network layer under everything. A cold
 * solve lowers the collective tasks of every phase it times once (the
 * phase memo serves each repeat), so its count is exact at any width;
 * a repeat solve lowers nothing: the cell, phase and step memos answer
 * every query.
 */
void
loweringSection(const char *name)
{
    api::TempService service;  // fresh memos: first = cold lowering
    api::OptimizeRequest request{model::modelByName(name)};
    const api::Response first = service.run(request);
    const api::Response repeat = service.run(request);

    std::printf("Collective lowering (%s): cold %ld tasks lowered; "
                "repeat %ld\n",
                name, first.solver.schedule_lowerings,
                repeat.solver.schedule_lowerings);
    std::printf("BENCH_JSON {\"bench\":\"search_time\","
                "\"section\":\"lowering\",\"model\":\"%s\","
                "\"cold_lowerings\":%ld,\"repeat_lowerings\":%ld}\n",
                name, first.solver.schedule_lowerings,
                repeat.solver.schedule_lowerings);
}

/**
 * The persistent-tier section: the service-cache experiment across a
 * process boundary. A cold service solves and saves a snapshot; a
 * *fresh* service warm-starts from the file and answers the same
 * request from the imported memos. Five such cold/warm pairs run, each
 * on fresh services. The acceptance bars are the repo's warm-start
 * contract — zero new matrix measurements, zero new step simulations
 * and bit-identical specs on every pair, and a median speedup >= 5x
 * (one pair's ratio is too noisy on a shared host to gate on) —
 * enforced through the exit code so CI fails when the persist path
 * rots.
 */
int
warmStartSection(const char *name)
{
    constexpr int kPairs = 5;
    const std::string path = "warm_start.bench.snap";
    const api::OptimizeRequest request{model::modelByName(name)};

    TablePrinter t({"Model", "Pair", "Cold (s)", "Warm (s)", "Speedup",
                    "Warm meas.", "Warm sims", "Identical"});
    std::vector<double> cold_s, warm_s, speedups;
    long warm_measurements = 0;
    long warm_sims = 0;
    long warm_hits = 0;
    bool identical = true;
    api::TempService::PersistStats persist;
    for (int pair = 0; pair < kPairs; ++pair) {
        std::remove(path.c_str());
        api::Response cold;
        std::string error;
        {
            api::TempService service;  // the "first process"
            cold = service.run(request);
            if (!cold.ok || !service.saveSnapshot(path, &error)) {
                std::printf("warm_start: cold solve/save failed: %s\n",
                            error.c_str());
                return 1;
            }
        }

        api::TempService warmed;  // the "restarted process"
        if (!warmed.warmStart(path, &error)) {
            std::printf("warm_start: load failed: %s\n", error.c_str());
            std::remove(path.c_str());
            return 1;
        }
        const api::Response warm = warmed.run(request);
        std::remove(path.c_str());

        const double speedup = warm.wall_time_s > 0.0
                                   ? cold.wall_time_s / warm.wall_time_s
                                   : 0.0;
        const bool same =
            warm.solver.per_op_specs == cold.solver.per_op_specs &&
            warm.solver.step_time_s == cold.solver.step_time_s;
        cold_s.push_back(cold.wall_time_s);
        warm_s.push_back(warm.wall_time_s);
        speedups.push_back(speedup);
        warm_measurements =
            std::max(warm_measurements, warm.solver.matrix_measurements);
        warm_sims = std::max(warm_sims, warm.solver.step_sims);
        warm_hits = warm.solver.cache_hits;
        identical = identical && same;
        persist = warmed.persistStats();
        t.addRow({name, std::to_string(pair + 1),
                  TablePrinter::fmt(cold.wall_time_s, 3),
                  TablePrinter::fmt(warm.wall_time_s, 3),
                  TablePrinter::fmtX(speedup, 1),
                  std::to_string(warm.solver.matrix_measurements),
                  std::to_string(warm.solver.step_sims),
                  same ? "yes" : "NO"});
    }
    t.print("Snapshot warm start across a process boundary");

    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double speedup = median(speedups);
    const auto [min_it, max_it] =
        std::minmax_element(speedups.begin(), speedups.end());
    std::printf("BENCH_JSON {\"bench\":\"search_time\","
                "\"section\":\"warm_start\",\"model\":\"%s\","
                "\"pairs\":%d,\"cold_s\":%.6f,\"warm_s\":%.6f,"
                "\"speedup\":%.2f,\"speedup_min\":%.2f,"
                "\"speedup_max\":%.2f,"
                "\"warm_matrix_measurements\":%ld,"
                "\"warm_step_sims\":%ld,\"warm_cache_hits\":%ld,"
                "\"blocks_staged\":%ld,\"frameworks_warmed\":%ld,"
                "\"bit_identical\":%s}\n",
                name, kPairs, median(cold_s), median(warm_s), speedup,
                *min_it, *max_it, warm_measurements, warm_sims, warm_hits,
                persist.blocks_staged, persist.frameworks_warmed,
                identical ? "true" : "false");

    int failures = 0;
    const auto bar = [&](bool ok, const char *what) {
        std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
        if (!ok)
            ++failures;
    };
    bar(warm_measurements == 0, "every warm solve re-measures nothing");
    bar(warm_sims == 0, "every warm solve re-simulates nothing");
    bar(identical, "every warm answer is bit-identical to its cold one");
    bar(speedup >= 5.0, "warm start is >= 5x faster (median of pairs)");
    // The target of ROADMAP item 8 (warm answers at table speed),
    // reported beside the enforced bar until it is met.
    std::printf("  [%s] warm start median %.2fx against the >= 8x target "
                "(ROADMAP item 8, not enforced)\n",
                speedup >= 8.0 ? "MET" : "OPEN", speedup);
    return failures;
}

/**
 * The engines section: every level-2 engine on the six Table II
 * models, reported as the step-time gain over the DP plan and what it
 * cost (step sims, quanta), plus the genetic engine's best-found curve
 * under growing quantum budgets. Bars, enforced through the exit code:
 * no refining engine ends worse than DP; the curve improves
 * monotonically (a budgeted run is the bit-exact prefix of the
 * unbudgeted one); the full-budget point is the unbudgeted answer.
 */
int
enginesSection(const sim::TrainingSimulator &sim)
{
    int failures = 0;
    const auto bar = [&](bool ok, const std::string &what) {
        std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
        if (!ok)
            ++failures;
    };
    const auto solveWith = [&](const model::ComputeGraph &graph,
                               solver::SearchEngineKind kind,
                               long max_quanta = 0) {
        solver::SolverConfig cfg;
        cfg.engine = kind;
        cfg.deadline.max_quanta = max_quanta;
        return solver::DlsSolver(sim, cfg).solve(graph);
    };

    TablePrinter engines({"Model", "Engine", "Step time (s)",
                          "Gain vs DP", "Step sims", "Quanta"});
    for (const model::ModelConfig &config : model::evaluationModels()) {
        const auto graph = model::ComputeGraph::transformer(config);
        const solver::SolverResult dp =
            solveWith(graph, solver::SearchEngineKind::NoRefine);
        for (const solver::SearchEngineKind kind :
             {solver::SearchEngineKind::NoRefine,
              solver::SearchEngineKind::Genetic,
              solver::SearchEngineKind::BeamTabu}) {
            const solver::SolverResult r =
                kind == solver::SearchEngineKind::NoRefine
                    ? dp
                    : solveWith(graph, kind);
            const double gain = dp.step_time_s / r.step_time_s - 1.0;
            const char *engine = solver::searchEngineName(kind);
            engines.addRow({config.name, engine,
                            TablePrinter::fmt(r.step_time_s, 5),
                            TablePrinter::fmt(gain * 100.0, 2) + "%",
                            std::to_string(r.step_sims),
                            std::to_string(r.quanta_used)});
            std::printf("BENCH_JSON {\"bench\":\"search_time\","
                        "\"section\":\"engines\",\"model\":\"%s\","
                        "\"engine\":\"%s\",\"step_time_s\":%.9f,"
                        "\"gain_vs_dp\":%.6f,\"step_sims\":%ld,"
                        "\"quanta_used\":%ld}\n",
                        config.name.c_str(), engine, r.step_time_s, gain,
                        r.step_sims, r.quanta_used);
            if (kind != solver::SearchEngineKind::NoRefine)
                bar(r.feasible &&
                        r.step_time_s <= dp.step_time_s * 1.0001,
                    std::string(engine) + " never worse than DP (" +
                        config.name + ")");
        }
    }
    engines.print("Level-2 engines vs the DP plan (unbudgeted)");

    // Llama2 7B: the zoo model where the genetic engine improves on DP,
    // so the curve has something to climb.
    const auto graph = model::ComputeGraph::transformer(
        model::modelByName("Llama2 7B"));
    const solver::SolverResult unbudgeted =
        solveWith(graph, solver::SearchEngineKind::Genetic);
    TablePrinter curve({"Budget (quanta)", "Used", "Exhausted",
                        "Step time (s)"});
    double previous = 0.0;
    bool monotone = true;
    for (const int percent : {25, 50, 75, 100}) {
        const long budget =
            std::max<long>(1, unbudgeted.quanta_used * percent / 100);
        const solver::SolverResult capped =
            solveWith(graph, solver::SearchEngineKind::Genetic, budget);
        if (previous > 0.0 && capped.step_time_s > previous * 1.0001)
            monotone = false;
        previous = capped.step_time_s;
        curve.addRow({std::to_string(budget),
                      std::to_string(capped.quanta_used),
                      capped.budget_exhausted ? "yes" : "no",
                      TablePrinter::fmt(capped.step_time_s, 5)});
        std::printf("BENCH_JSON {\"bench\":\"search_time\","
                    "\"section\":\"budget_curve\","
                    "\"model\":\"Llama2 7B\",\"engine\":\"genetic\","
                    "\"budget_quanta\":%ld,\"quanta_used\":%ld,"
                    "\"budget_exhausted\":%s,\"step_time_s\":%.9f}\n",
                    budget, capped.quanta_used,
                    capped.budget_exhausted ? "true" : "false",
                    capped.step_time_s);
    }
    curve.print("Genetic best-found vs quantum budget (bit-exact prefixes)");
    bar(monotone, "best-found improves monotonically with budget");
    bar(previous == unbudgeted.step_time_s,
        "full-budget run matches the unbudgeted answer");
    return failures;
}

}  // namespace

int
main()
{
    bench::banner("Sec. VIII-H", "search time: DLS vs exhaustive (ILP)");

    // The DLS side goes through the service API; the exhaustive
    // baseline (not a service workflow) borrows the same cached
    // framework's simulator, so both sides price against one wafer.
    api::TempService service;
    const sim::TrainingSimulator &sim =
        service.framework(hw::WaferConfig::paperDefault(), {})
            ->simulator();

    TablePrinter t({"Model", "DLS time (s)", "DLS evals",
                    "Exhaustive time (s)", "Exhaustive evals",
                    "Exhaustive scope", "Speedup"});
    for (const char *name : {"GPT-3 6.7B", "Llama2 7B", "GPT-3 76B"}) {
        const auto graph =
            model::ComputeGraph::transformer(model::modelByName(name));

        solver::SolverConfig cfg;
        const api::Response dls_response =
            service.run(api::OptimizeRequest{model::modelByName(name)});
        const solver::SolverResult &fast = dls_response.solver;

        // The exhaustive baseline explodes exponentially; cap it at the
        // first 5 operators and a 60 s budget, then report the per-op
        // extrapolated cost of the full 12-op instance.
        solver::ExhaustiveSolver exhaustive(sim, cfg.space);
        const auto slow = exhaustive.solve(graph, /*op_limit=*/5,
                                           /*time_budget_s=*/60.0);

        const double covered_ops = 5.0;
        const double branch =
            slow.evaluations > 0
                ? std::pow(static_cast<double>(slow.evaluations),
                           1.0 / covered_ops)
                : 0.0;
        const double full_est =
            slow.search_time_s *
            std::pow(branch, graph.opCount() - covered_ops);

        char scope[64];
        std::snprintf(scope, sizeof(scope), "5/%d ops (full est %.2g s)",
                      graph.opCount(), full_est);
        const double work_ratio =
            fast.evaluations > 0
                ? static_cast<double>(slow.evaluations) /
                      static_cast<double>(fast.evaluations)
                : 0.0;
        t.addRow({name, TablePrinter::fmt(fast.search_time_s, 2),
                  std::to_string(fast.evaluations),
                  TablePrinter::fmt(slow.search_time_s, 2),
                  std::to_string(slow.evaluations), scope,
                  TablePrinter::fmtX(work_ratio, 0) + " (5-op work)"});
        std::printf("BENCH_JSON {\"bench\":\"search_time\","
                    "\"section\":\"dls_vs_exhaustive\",\"model\":\"%s\","
                    "\"dls_time_s\":%.4f,\"dls_evaluations\":%ld,"
                    "\"dls_matrix_measurements\":%ld,"
                    "\"dls_cache_hits\":%ld,\"exhaustive_time_s\":%.4f,"
                    "\"exhaustive_evaluations\":%ld}\n",
                    name, fast.search_time_s, fast.evaluations,
                    fast.matrix_measurements, fast.cache_hits,
                    slow.search_time_s, slow.evaluations);
    }
    t.print("Single-wafer strategy search");
    std::printf("\nPaper: ILP ~40 h vs DLS ~3 min (>200x). Here the "
                "exhaustive baseline is capped at 5 of 12 operators and "
                "extrapolated; DLS covers the full chain in seconds.\n");

    bench::banner("Evaluation layer",
                  "batch matrix fill: threads and cache hit-rate");
    evaluatorThroughput(sim, model::ComputeGraph::transformer(
                                 model::modelByName("GPT-3 6.7B")));

    bench::banner("Refinement layer",
                  "full-step fitness: serial vs batched, step cache");
    refinerBatch(sim, model::ComputeGraph::transformer(
                          model::modelByName("GPT-3 6.7B")));

    bench::banner("Service layer",
                  "framework cache: repeated requests re-measure "
                  "nothing");
    serviceCacheReuse("GPT-3 6.7B");

    bench::banner("Network layer",
                  "collective lowerings: cold solve vs repeat");
    loweringSection("GPT-3 6.7B");

    bench::banner("Engines",
                  "gain over DP per engine, genetic budget curve");
    int failures = enginesSection(sim);

    bench::banner("Persistent tier",
                  "snapshot warm start: restart without re-measuring");
    failures += warmStartSection("GPT-3 6.7B");
    if (failures > 0) {
        std::printf("\nsearch_time acceptance bars FAILED (%d)\n",
                    failures);
        return 1;
    }
    std::printf("\nsearch_time acceptance bars passed\n");
    return 0;
}
