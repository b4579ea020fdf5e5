/**
 * @file
 * temp_cli: the one driver for the TEMP service layer. Every workflow
 * the bench/example binaries hand-rolled is a subcommand routed
 * through TempService, so repeated invocations of one process share
 * cached frameworks, and --json turns any result into one
 * machine-consumable document on stdout.
 *
 *   temp_cli <command> [model] [options]
 *
 * commands:
 *   optimize    full DLWS pipeline (strategy space -> DP -> GA -> sim)
 *   baseline    tune a baseline scheme (--kind, --engine)
 *   faults      degraded-wafer re-optimisation (--link-rate, ...)
 *   multiwafer  pipeline plan on a wafer pod (--wafers, --pp, ...)
 *   sweep       ranked explicit-strategy line-up plus the solver pick
 *   cache-stats run an optimize to warm the memo stack, then report
 *               every cache layer's governance counters (entries,
 *               bytes, hits, misses, evictions); pair with --opts
 *               budget keys (eval.cache.max_entries, ...) to watch
 *               bounded eviction live
 *   serve       network front end: framed-RPC + HTTP/1.1 on one port,
 *               with in-flight coalescing, admission control and
 *               per-tenant fair dequeue; SIGINT drains gracefully
 *               (and writes the persist snapshot when configured)
 *   request     run one request-JSON document: parse, then execute
 *               in-process or (--connect HOST:PORT) against a server;
 *               --retries N retries a refused connection under
 *               jittered exponential backoff
 *   scenario    replay a timeline FILE (a kind:scenario request
 *               document) deterministically: fault storms, repairs,
 *               model switches, pod churn — each event re-solved
 *               warm-seeded with an explicit degraded-answer policy
 *               (see src/scenario/README.md)
 *   snapshot    persistent memo tier: `snapshot save FILE [model]`
 *               warms the memo stack with one solve and writes a
 *               snapshot; `snapshot load FILE [model]` warm-starts a
 *               fresh process from it and re-solves (zero new matrix
 *               measurements on a matching snapshot); `snapshot info
 *               FILE` describes a snapshot without executing anything
 *
 * model: a zoo name ("GPT-3 6.7B") or a path/to/model.conf; options:
 *   --wafer FILE.conf   custom wafer (default: the Table I 4x8)
 *   --opts FILE.conf    framework options (policy, solver.*, training.*,
 *                       persist.path, persist.save_on_exit, ...)
 *   --load FILE         warm-start the service from a snapshot first
 *   --save FILE         write a snapshot after the command runs
 *   --json              machine-readable output
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/request_io.hpp"
#include "api/serialize.hpp"
#include "api/service.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/config_io.hpp"
#include "persist/snapshot.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace temp;

namespace {

struct CliArgs
{
    std::string command;
    std::string model;
    std::string wafer_file;
    std::string opts_file;
    std::string refiner;  ///< level-2 engine override (empty = config)
    bool json = false;
    // baseline
    std::string kind = "mesp";
    std::string engine = "tcme";
    // faults
    double link_rate = 0.15;
    double core_rate = 0.0;
    std::uint64_t seed = 11;
    // multiwafer
    int wafers = 6;
    int pp = 0;  ///< 0 = wafer count
    int micro = 8;
    int dp = 2, tp = 1, sp = 1, tatp = 16;
    // serve / request
    std::string host = "127.0.0.1";
    int port = 7411;
    int workers = 2;
    int max_queue = 64;
    std::string request_file;  ///< "" or "-" = stdin
    std::string connect;       ///< HOST:PORT ("" = run in-process)
    int retries = 0;           ///< --connect dial retries (0 = off)
    /// --deadline-ms: wall-clock budget per solve (and, for `serve`,
    /// the per-request queue deadline). -1 = unset, config wins.
    int deadline_ms = -1;
    // scenario
    std::string scenario_file;  ///< timeline document (positional)
    // snapshot / persist
    std::string sub;            ///< snapshot verb (save | load | info)
    std::string snapshot_file;  ///< snapshot subcommand file
    std::string load_path;      ///< --load: warm-start before the run
    std::string save_path;      ///< --save: snapshot after the run
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <command> [model] [options]\n\n"
        "commands:\n"
        "  optimize    full DLWS pipeline on one model\n"
        "  baseline    tune a baseline scheme "
        "(--kind mega|mesp|fsdp, --engine smap|gmap|tcme)\n"
        "  faults      degraded-wafer re-optimisation "
        "(--link-rate R, --core-rate R, --seed N)\n"
        "  multiwafer  pipeline plan on a wafer pod "
        "(--wafers N, --pp N, --micro N, --dp/--tp/--sp/--tatp N)\n"
        "  sweep       ranked explicit-strategy line-up + solver pick\n"
        "  cache-stats optimize once, then report every cache "
        "layer's counters\n"
        "  serve       framed-RPC/HTTP front end "
        "(--host A, --port N, --workers N, --max-queue N)\n"
        "  request     run one request-JSON document "
        "(--file F|stdin, --connect HOST:PORT, --retries N)\n"
        "  scenario    replay a timeline FILE "
        "(a kind:scenario request document)\n"
        "  snapshot    persistent memo tier: "
        "snapshot save|load|info FILE [model]\n\n"
        "model: zoo name (e.g. \"GPT-3 6.7B\") or path/to/model.conf\n"
        "options: --wafer FILE.conf, --opts FILE.conf,\n"
        "  --refiner none|genetic|beamtabu\n"
        "    (level-2 search engine),\n"
        "  --deadline-ms N (wall-clock budget per solve; for serve,\n"
        "    also the per-request queue deadline),\n"
        "  --load FILE (warm-start from a snapshot), --save FILE,\n"
        "  --json\n",
        argv0);
    return 1;
}

bool
parseArgs(int argc, char **argv, CliArgs *args)
{
    if (argc < 2)
        return false;
    args->command = argv[1];
    int positional = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--json")
            args->json = true;
        else if (arg == "--wafer")
            args->wafer_file = value();
        else if (arg == "--opts")
            args->opts_file = value();
        else if (arg == "--refiner")
            args->refiner = value();
        else if (arg == "--kind")
            args->kind = value();
        else if (arg == "--engine")
            args->engine = value();
        else if (arg == "--link-rate")
            args->link_rate = std::atof(value());
        else if (arg == "--core-rate")
            args->core_rate = std::atof(value());
        else if (arg == "--seed")
            args->seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--wafers")
            args->wafers = std::atoi(value());
        else if (arg == "--pp")
            args->pp = std::atoi(value());
        else if (arg == "--micro")
            args->micro = std::atoi(value());
        else if (arg == "--dp")
            args->dp = std::atoi(value());
        else if (arg == "--tp")
            args->tp = std::atoi(value());
        else if (arg == "--sp")
            args->sp = std::atoi(value());
        else if (arg == "--tatp")
            args->tatp = std::atoi(value());
        else if (arg == "--host")
            args->host = value();
        else if (arg == "--port")
            args->port = std::atoi(value());
        else if (arg == "--workers")
            args->workers = std::atoi(value());
        else if (arg == "--max-queue")
            args->max_queue = std::atoi(value());
        else if (arg == "--file")
            args->request_file = value();
        else if (arg == "--connect")
            args->connect = value();
        else if (arg == "--retries")
            args->retries = std::atoi(value());
        else if (arg == "--deadline-ms")
            args->deadline_ms = std::atoi(value());
        else if (arg == "--load")
            args->load_path = value();
        else if (arg == "--save")
            args->save_path = value();
        else if (!arg.empty() && arg[0] == '-')
            return false;
        else {
            // The snapshot subcommand takes two extra positionals
            // (verb, file) ahead of the usual optional model.
            const int slot = positional++;
            if (args->command == "snapshot") {
                if (slot == 0)
                    args->sub = arg;
                else if (slot == 1)
                    args->snapshot_file = arg;
                else if (slot == 2)
                    args->model = arg;
                else
                    return false;
            } else if (args->command == "scenario") {
                // The scenario positional is the timeline file, not a
                // model name (the document carries its own model).
                if (slot == 0)
                    args->scenario_file = arg;
                else
                    return false;
            } else if (slot == 0) {
                args->model = arg;
            } else {
                return false;
            }
        }
    }
    return true;
}

model::ModelConfig
resolveModel(const CliArgs &args, const char *fallback)
{
    const std::string name = args.model.empty() ? fallback : args.model;
    return core::isConfigFile(name)
               ? core::modelFromConfig(core::loadConfigFile(name))
               : model::modelByName(name);
}

hw::WaferConfig
resolveWafer(const CliArgs &args)
{
    return args.wafer_file.empty()
               ? hw::WaferConfig::paperDefault()
               : core::waferFromConfig(
                     core::loadConfigFile(args.wafer_file));
}

core::FrameworkOptions
resolveOptions(const CliArgs &args)
{
    core::FrameworkOptions options =
        args.opts_file.empty()
            ? core::FrameworkOptions()
            : core::frameworkOptionsFromConfig(
                  core::loadConfigFile(args.opts_file));
    if (!args.refiner.empty() &&
        !solver::searchEngineFromName(args.refiner,
                                      &options.solver.engine)) {
        std::fprintf(
            stderr,
            "unknown --refiner '%s' "
            "(use none/genetic/beamtabu)\n",
            args.refiner.c_str());
        std::exit(1);
    }
    // The flag is a one-stop deadline: it caps every solve's wall
    // clock (solver.deadline.wall_ms) and, for `serve`, doubles as
    // the per-request queue deadline (serve.deadline_ms). Quantum
    // caps — the deterministic budget — come from the config surface.
    if (args.deadline_ms >= 0) {
        options.solver.deadline.max_wall_ms =
            static_cast<double>(args.deadline_ms);
        options.serve.deadline_ms = args.deadline_ms;
    }
    return options;
}

/// Resolved persistent-tier policy for this invocation: explicit
/// --load/--save flags win; otherwise the --opts file's persist.path
/// (load at start; save at exit when persist.save_on_exit).
struct PersistPlan
{
    std::string load;
    std::string save;
    double period_s = 0.0;  ///< serve mode: seconds between snapshots
};

PersistPlan
persistPlan(const CliArgs &args)
{
    const core::PersistOptions persist = resolveOptions(args).persist;
    PersistPlan plan;
    plan.load = !args.load_path.empty() ? args.load_path : persist.path;
    plan.save = !args.save_path.empty()
                    ? args.save_path
                    : (persist.save_on_exit ? persist.path : "");
    plan.period_s = persist.period_s;
    return plan;
}

/// Best-effort warm start: a missing/corrupt/mismatched snapshot is a
/// cold start with a stderr note, never a failure.
void
tryWarmStart(api::TempService &service, const std::string &path)
{
    if (path.empty())
        return;
    std::string error;
    if (!service.warmStart(path, &error))
        std::fprintf(stderr,
                     "temp_cli: cold start (snapshot '%s': %s)\n",
                     path.c_str(), error.c_str());
}

/// Best-effort snapshot write with a stderr note on failure.
void
trySaveSnapshot(api::TempService &service, const std::string &path)
{
    if (path.empty())
        return;
    std::string error;
    if (!service.saveSnapshot(path, &error))
        std::fprintf(stderr, "temp_cli: snapshot not written: %s\n",
                     error.c_str());
}

/// Prints the per-operator table + step report shared by optimize and
/// faults.
void
printSolverResponse(const api::Response &response)
{
    const solver::SolverResult &result = response.solver;
    std::printf("Per-operator strategies (search %.2f s over %d "
                "candidates, %ld evaluations):\n",
                result.search_time_s, result.candidate_count,
                result.evaluations);
    for (std::size_t i = 0; i < result.per_op_specs.size(); ++i) {
        const char *op = i < response.op_names.size()
                             ? response.op_names[i].c_str()
                             : "?";
        std::printf("  %-10s -> %s\n", op,
                    result.per_op_specs[i].str().c_str());
    }
    const sim::PerfReport &r = result.report;
    std::printf("\nSimulated training step:\n");
    std::printf("  step time           %.1f ms  (grad accum x%d%s)\n",
                r.step_time * 1e3, r.grad_accum,
                r.recompute ? ", activation recompute" : "");
    std::printf("  compute             %.1f ms\n", r.comp_time * 1e3);
    std::printf("  exposed comm        %.1f ms\n", r.exposed_comm * 1e3);
    std::printf("  peak memory/die     %.1f GB %s\n",
                r.peak_mem_bytes / 1e9, r.oom ? "(OOM!)" : "");
    std::printf("  throughput          %.0f tokens/s\n",
                r.throughput_tokens_per_s);
    std::printf("  matrix fill         %ld measured, %ld cache hits\n",
                result.matrix_measurements, result.cache_hits);
    std::printf("  step sims           %ld simulated, %ld cache hits\n",
                result.step_sims, result.step_cache_hits);
}

int
emit(const api::Response &response)
{
    std::printf("%s\n", api::toJson(response).c_str());
    return response.ok && response.report.feasible ? 0 : 1;
}

int
runOptimize(api::TempService &service, const CliArgs &args)
{
    api::OptimizeRequest request{resolveModel(args, "GPT-3 6.7B"),
                                 resolveWafer(args),
                                 resolveOptions(args)};
    const api::Response response = service.run(request);
    if (args.json)
        return emit(response);
    std::printf("TEMP optimize — %s on a %dx%d wafer\n\n",
                request.model.name.c_str(), request.wafer.rows,
                request.wafer.cols);
    if (!response.ok || !response.solver.feasible) {
        std::printf("No feasible strategy found. %s\n",
                    response.error.c_str());
        return 1;
    }
    printSolverResponse(response);
    return 0;
}

int
runBaseline(api::TempService &service, const CliArgs &args)
{
    api::BaselineRequest request{resolveModel(args, "GPT-3 6.7B"),
                                 resolveWafer(args),
                                 resolveOptions(args)};
    if (args.kind == "mega")
        request.kind = baselines::BaselineKind::Megatron1;
    else if (args.kind == "mesp")
        request.kind = baselines::BaselineKind::MegatronSP;
    else if (args.kind == "fsdp")
        request.kind = baselines::BaselineKind::Fsdp;
    else {
        std::fprintf(stderr, "unknown --kind '%s'\n", args.kind.c_str());
        return 1;
    }
    if (args.engine == "smap")
        request.engine = tcme::MappingEngineKind::SMap;
    else if (args.engine == "gmap")
        request.engine = tcme::MappingEngineKind::GMap;
    else if (args.engine == "tcme")
        request.engine = tcme::MappingEngineKind::TCME;
    else {
        std::fprintf(stderr, "unknown --engine '%s'\n",
                     args.engine.c_str());
        return 1;
    }
    const api::Response response = service.run(request);
    if (args.json)
        return emit(response);
    const baselines::TunedBaseline &tuned = response.baseline;
    std::printf("Baseline %s under %s — %s\n",
                baselines::baselineName(request.kind),
                tcme::mappingEngineName(request.engine),
                request.model.name.c_str());
    std::printf("  tuned spec   %s%s\n", tuned.spec.str().c_str(),
                tuned.all_oom ? "  (every configuration OOMs)" : "");
    std::printf("  step time    %.1f ms\n",
                tuned.report.step_time * 1e3);
    std::printf("  peak memory  %.1f GB/die\n",
                tuned.report.peak_mem_bytes / 1e9);
    std::printf("  throughput   %.0f tokens/s\n",
                tuned.report.throughput_tokens_per_s);
    return tuned.all_oom ? 1 : 0;
}

int
runFaults(api::TempService &service, const CliArgs &args)
{
    api::FaultRequest request{resolveModel(args, "Llama2 7B"),
                              resolveWafer(args), resolveOptions(args)};
    request.link_fault_rate = args.link_rate;
    request.core_fault_rate = args.core_rate;
    request.fault_seed = args.seed;
    const api::Response response = service.run(request);
    if (args.json)
        return emit(response);
    std::printf("Fault-aware re-optimisation — %s "
                "(%.0f%% link, %.0f%% core faults, seed %llu)\n\n",
                request.model.name.c_str(), args.link_rate * 100,
                args.core_rate * 100,
                static_cast<unsigned long long>(args.seed));
    std::printf("Usable dies: %d of %d\n", response.usable_dies,
                request.wafer.dieCount());
    if (!response.ok || !response.solver.feasible) {
        std::printf("Unrecoverable: no feasible strategy. %s\n",
                    response.error.c_str());
        return 1;
    }
    printSolverResponse(response);
    return 0;
}

int
runMultiWafer(api::TempService &service, const CliArgs &args)
{
    api::MultiWaferRequest request;
    request.model = resolveModel(args, "GPT-3 504B");
    request.pod.wafer = resolveWafer(args);
    request.pod.wafer_count = args.wafers;
    request.options = resolveOptions(args);
    request.pp = args.pp > 0 ? args.pp : args.wafers;
    request.microbatches = args.micro;
    request.intra_spec.dp = args.dp;
    request.intra_spec.tp = args.tp;
    request.intra_spec.sp = args.sp;
    request.intra_spec.tatp = args.tatp;
    const api::Response response = service.run(request);
    if (args.json)
        return emit(response);
    std::printf("Multi-wafer plan — %s on %d wafers, pp=%d, m=%d, "
                "intra %s\n\n",
                request.model.name.c_str(), args.wafers, request.pp,
                request.microbatches, request.intra_spec.str().c_str());
    if (!response.ok) {
        std::printf("Invalid plan: %s\n", response.error.c_str());
        return 1;
    }
    const sim::PerfReport &r = response.report;
    if (!r.feasible) {
        std::printf("Plan infeasible on this pod.\n");
        return 1;
    }
    std::printf("  stage fabric   %dx%d dies\n",
                response.stage_fabric.rows, response.stage_fabric.cols);
    std::printf("  step time      %.2f s\n", r.step_time);
    std::printf("  bubble         %.1f%%\n",
                100.0 * r.bubble_time / r.step_time);
    std::printf("  peak memory    %.1f GB/die %s\n",
                r.peak_mem_bytes / 1e9, r.oom ? "(OOM!)" : "");
    std::printf("  throughput     %.0f tokens/s\n",
                r.throughput_tokens_per_s);
    return r.oom ? 1 : 0;
}

int
runSweep(api::TempService &service, const CliArgs &args)
{
    const model::ModelConfig model = resolveModel(args, "Llama2 7B");
    const hw::WaferConfig wafer = resolveWafer(args);
    const core::FrameworkOptions options = resolveOptions(args);

    struct Candidate
    {
        const char *label;
        int dp, tp, sp, tatp;
    };
    const std::vector<Candidate> lineup = {
        {"pure DP", 32, 1, 1, 1},        {"TP8 x DP4", 4, 8, 1, 1},
        {"SP8 x DP4", 4, 1, 8, 1},       {"pure TATP", 1, 1, 1, 32},
        {"TATP8 x DP4", 4, 1, 1, 8},     {"TATP16 x TP2", 1, 2, 1, 16},
    };

    struct Row
    {
        std::string label;
        std::string spec;
        api::Response response;
    };
    std::vector<Row> rows;
    for (const Candidate &c : lineup) {
        api::StrategyRequest request{model, wafer, options};
        request.spec.dp = c.dp;
        request.spec.tp = c.tp;
        request.spec.sp = c.sp;
        request.spec.tatp = c.tatp;
        api::Response response = service.run(request);
        if (response.ok && response.report.feasible)
            rows.push_back({c.label, request.spec.str(),
                            std::move(response)});
    }
    api::Response solved =
        service.run(api::OptimizeRequest{model, wafer, options});
    if (solved.ok && solved.solver.feasible)
        rows.push_back({"DLWS solver pick", "(per-op mix)",
                        std::move(solved)});

    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.response.report.step_time < b.response.report.step_time;
    });

    if (args.json) {
        std::vector<std::string> entries;
        for (const Row &row : rows)
            entries.push_back(api::JsonObject()
                                  .add("label", row.label)
                                  .add("spec", row.spec)
                                  .addRaw("response",
                                          api::toJson(row.response))
                                  .str());
        std::printf("%s\n", api::JsonObject()
                                .add("kind", "sweep")
                                .add("model", model.name)
                                .addRaw("ranked", api::jsonArray(entries))
                                .str()
                                .c_str());
        return rows.empty() ? 1 : 0;
    }

    std::printf("Strategy sweep — %s on %d dies (ranked, fastest "
                "first)\n\n",
                model.name.c_str(), wafer.dieCount());
    TablePrinter t({"Strategy", "Spec", "Step (ms)", "Mem (GB)",
                    "Exposed comm", "Status"});
    for (const Row &row : rows) {
        const sim::PerfReport &r = row.response.report;
        t.addRow({row.label, row.spec,
                  TablePrinter::fmt(r.step_time * 1e3, 1),
                  TablePrinter::fmt(r.peak_mem_bytes / 1e9, 1),
                  TablePrinter::fmtPct(r.exposed_comm / r.step_time),
                  r.oom ? "OOM" : (r.recompute ? "recompute" : "ok")});
    }
    t.print("Ranked strategies");
    const api::TempService::Stats stats = service.stats();
    std::printf("\nService: %ld requests over %ld framework(s), "
                "%ld cache reuses\n",
                stats.requests, stats.frameworks_built,
                stats.framework_cache_hits);
    return rows.empty() ? 1 : 0;
}

int
runCacheStats(api::TempService &service, const CliArgs &args)
{
    // Warm the whole memo stack with one real solve so the counters
    // describe a working service, then snapshot every layer.
    api::OptimizeRequest warm{resolveModel(args, "GPT-3 6.7B"),
                              resolveWafer(args), resolveOptions(args)};
    const api::Response solve = service.run(warm);
    const api::Response stats = service.run(api::CacheStatsRequest{});

    if (args.json) {
        // One document carrying both: the layers plus the warming
        // solve's eviction-aware accounting.
        std::printf("%s\n",
                    api::JsonObject()
                        .add("kind", "cache-stats")
                        .add("model", warm.model.name)
                        .add("warm_ok", solve.ok)
                        .add("warm_cache_evictions",
                             solve.solver.cache_evictions)
                        .add("warm_matrix_measurements",
                             solve.solver.matrix_measurements)
                        .addRaw("response", api::toJson(stats))
                        .str()
                        .c_str());
        return stats.ok && solve.ok ? 0 : 1;
    }

    std::printf("Cache governance — after one optimize of %s\n\n",
                warm.model.name.c_str());
    TablePrinter t({"Layer", "Entries", "Bytes(est)", "Hits", "Misses",
                    "Evictions"});
    for (const api::CacheLayerStats &layer : stats.cache_layers)
        t.addRow({layer.layer, std::to_string(layer.stats.entries),
                  std::to_string(layer.stats.bytes_est),
                  std::to_string(layer.stats.hits),
                  std::to_string(layer.stats.misses),
                  std::to_string(layer.stats.evictions)});
    t.print("Memo layers");
    std::printf("\nSolve: %ld matrix measurements, %ld step sims, "
                "%ld schedule lowerings, %ld evictions\n",
                solve.solver.matrix_measurements, solve.solver.step_sims,
                solve.solver.schedule_lowerings,
                solve.solver.cache_evictions);
    return stats.ok && solve.ok ? 0 : 1;
}

volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void
handleStopSignal(int)
{
    g_stop_requested = 1;
}

int
runServe(api::TempService &service, const CliArgs &args)
{
    serve::ServerOptions options;
    options.host = args.host;
    options.port = args.port;
    options.dispatcher.workers = args.workers;
    options.dispatcher.max_queue = args.max_queue;
    // Per-request queue deadline from the config surface (the --opts
    // file's serve.deadline_ms; 0 = off).
    options.dispatcher.deadline_ms =
        resolveOptions(args).serve.deadline_ms;

    serve::Server server(service, options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "temp_cli serve: %s\n", error.c_str());
        return 1;
    }
    // Machine-parsable first line (tests bind --port 0 and read the
    // resolved port back from here).
    std::printf("temp_cli serve: listening on %s:%d "
                "(workers=%d, max_queue=%d)\n",
                args.host.c_str(), server.port(), args.workers,
                args.max_queue);
    std::fflush(stdout);

    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    const PersistPlan plan = persistPlan(args);
    double since_save_s = 0.0;
    while (!g_stop_requested) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (plan.save.empty() || plan.period_s <= 0.0)
            continue;
        since_save_s += 0.05;
        if (since_save_s >= plan.period_s) {
            since_save_s = 0.0;
            trySaveSnapshot(service, plan.save);
        }
    }

    server.stop();
    // Snapshot after the drain: every in-flight request has answered,
    // so the file captures the fullest memo state of this process.
    trySaveSnapshot(service, plan.save);
    const serve::DispatchStats stats = server.stats();
    std::fprintf(stderr,
                 "temp_cli serve: drained (accepted=%ld "
                 "coalesced=%ld executed=%ld shed=%ld "
                 "deadline_expired=%ld deadline_cancelled=%ld "
                 "completed=%ld)\n",
                 stats.accepted, stats.coalesced, stats.executed,
                 stats.shed, stats.deadline_expired,
                 stats.deadline_cancelled, stats.completed);
    return 0;
}

int
runRequest(api::TempService &service, const CliArgs &args)
{
    std::string text;
    if (args.request_file.empty() || args.request_file == "-") {
        std::stringstream buffer;
        buffer << std::cin.rdbuf();
        text = buffer.str();
    } else {
        std::ifstream file(args.request_file);
        if (!file) {
            std::fprintf(stderr, "temp_cli request: cannot open '%s'\n",
                         args.request_file.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << file.rdbuf();
        text = buffer.str();
    }

    // Parse locally first either way: a malformed document must exit
    // nonzero without touching the network (or the service).
    api::ParsedRequest parsed;
    std::string error;
    if (!api::parseRequest(text, &parsed, &error)) {
        std::fprintf(stderr, "temp_cli request: %s\n", error.c_str());
        return 1;
    }

    std::string response_json;
    if (!args.connect.empty()) {
        const std::size_t colon = args.connect.rfind(':');
        if (colon == std::string::npos) {
            std::fprintf(stderr,
                         "temp_cli request: --connect wants HOST:PORT, "
                         "got '%s'\n",
                         args.connect.c_str());
            return 1;
        }
        serve::Client client;
        serve::RetryPolicy retry;
        retry.retries = std::max(0, args.retries);
        if (!client.connect(args.connect.substr(0, colon),
                            std::atoi(args.connect.c_str() + colon + 1),
                            retry, &error) ||
            !client.callRaw(text, &response_json, &error)) {
            std::fprintf(stderr, "temp_cli request: %s\n",
                         error.c_str());
            return 1;
        }
        std::printf("%s\n", response_json.c_str());
        common::JsonValue response;
        std::string parse_error;
        if (!common::parseJson(response_json, &response, &parse_error))
            return 1;
        const common::JsonValue *ok = response.find("ok");
        return ok != nullptr && ok->isBool() && ok->bool_value ? 0 : 1;
    }

    api::Response response = service.run(parsed.request);
    response.tenant = parsed.tenant;
    std::printf("%s\n", api::toJson(response).c_str());
    return response.ok ? 0 : 1;
}

int
runScenario(api::TempService &service, const CliArgs &args)
{
    if (args.scenario_file.empty()) {
        std::fprintf(stderr,
                     "usage: temp_cli scenario FILE.json [--json]\n");
        return 1;
    }
    std::ifstream file(args.scenario_file);
    if (!file) {
        std::fprintf(stderr, "temp_cli scenario: cannot open '%s'\n",
                     args.scenario_file.c_str());
        return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();

    api::ParsedRequest parsed;
    std::string error;
    if (!api::parseRequest(buffer.str(), &parsed, &error)) {
        std::fprintf(stderr, "temp_cli scenario: %s\n", error.c_str());
        return 1;
    }
    if (!std::holds_alternative<api::ScenarioRequest>(parsed.request)) {
        std::fprintf(stderr,
                     "temp_cli scenario: '%s' is not a kind:scenario "
                     "document\n",
                     args.scenario_file.c_str());
        return 1;
    }

    api::Response response = service.run(parsed.request);
    response.tenant = parsed.tenant;
    if (args.json) {
        std::printf("%s\n", api::toJson(response).c_str());
        return response.ok ? 0 : 1;
    }

    const api::ScenarioRequest &request =
        std::get<api::ScenarioRequest>(parsed.request);
    std::printf("Scenario replay — %s, %zu event(s), warm_seed=%s\n\n",
                request.model.name.c_str(), request.events.size(),
                request.warm_seed ? "on" : "off");
    if (!response.ok) {
        std::printf("Replay failed: %s\n", response.error.c_str());
        return 1;
    }
    const scenario::ScenarioReport &report = response.scenario;
    TablePrinter t({"#", "Event", "State", "Recovery (ms)", "Step sims",
                    "Matrix meas", "Tokens/s", "Wafers", "How"});
    for (const scenario::EventReport &er : report.events) {
        std::string how;
        if (er.resolved) {
            how = er.warm_seeded ? "warm" : "cold";
            if (er.context_reused)
                how += "+reuse";
            if (er.fallback_to_last_feasible)
                how += " fallback";
        } else {
            how = "-";
        }
        t.addRow({std::to_string(er.index),
                  scenario::eventKindName(er.kind), er.degradation,
                  TablePrinter::fmt(er.recovery_wall_s * 1e3, 1),
                  std::to_string(er.step_sims),
                  std::to_string(er.matrix_measurements),
                  TablePrinter::fmt(er.throughput_after, 0),
                  std::to_string(er.wafer_count), how});
    }
    t.print("Timeline");
    std::printf("\nReplay digest %llu — %ld step sims, %ld matrix "
                "measurements, %d infeasible event(s) (%d explicit "
                "fallback(s)), %.2f s total recovery\n",
                static_cast<unsigned long long>(report.replay_digest),
                report.total_step_sims,
                report.total_matrix_measurements,
                report.infeasible_events, report.fallback_events,
                report.total_wall_s);
    return response.ok ? 0 : 1;
}

int
runSnapshot(api::TempService &service, const CliArgs &args)
{
    const std::string &file = args.snapshot_file;
    std::string error;
    if (file.empty()) {
        std::fprintf(stderr, "usage: temp_cli snapshot "
                             "save|load|info FILE [model]\n");
        return 1;
    }

    if (args.sub == "info") {
        persist::Snapshot snapshot;
        if (!persist::loadSnapshotFile(file, &snapshot, &error)) {
            std::fprintf(stderr, "temp_cli snapshot: %s\n",
                         error.c_str());
            return 1;
        }
        if (args.json) {
            std::vector<std::string> blocks;
            for (const persist::MemoBlock &block : snapshot.blocks)
                blocks.push_back(
                    api::JsonObject()
                        .add("framework_key", block.framework_key)
                        .add("cells", static_cast<long>(block.cells.size()))
                        .add("step_reports",
                             static_cast<long>(
                                 block.step_reports.size()))
                        .str());
            std::printf("%s\n",
                        api::JsonObject()
                            .add("kind", "snapshot-info")
                            .add("file", file)
                            .add("format_version",
                                 static_cast<long>(
                                     persist::kFormatVersion))
                            .addRaw("blocks", api::jsonArray(blocks))
                            .str()
                            .c_str());
            return 0;
        }
        std::printf("Snapshot %s (format v%u, %zu block(s))\n",
                    file.c_str(), persist::kFormatVersion,
                    snapshot.blocks.size());
        for (const persist::MemoBlock &block : snapshot.blocks)
            std::printf("  %zu cells, %zu step reports  "
                        "[%.40s...]\n",
                        block.cells.size(),
                        block.step_reports.size(),
                        block.framework_key.c_str());
        return 0;
    }

    if (args.sub == "save") {
        // Warm the memo stack with one real solve, then persist it.
        api::OptimizeRequest request{resolveModel(args, "GPT-3 6.7B"),
                                     resolveWafer(args),
                                     resolveOptions(args)};
        const api::Response response = service.run(request);
        if (!response.ok) {
            std::fprintf(stderr, "temp_cli snapshot: solve failed: "
                                 "%s\n",
                         response.error.c_str());
            return 1;
        }
        if (!service.saveSnapshot(file, &error)) {
            std::fprintf(stderr, "temp_cli snapshot: %s\n",
                         error.c_str());
            return 1;
        }
        if (args.json)
            return emit(response);
        std::printf("Snapshot written to %s (after one optimize of "
                    "%s: %ld matrix measurements, %ld step sims)\n",
                    file.c_str(), request.model.name.c_str(),
                    response.solver.matrix_measurements,
                    response.solver.step_sims);
        return 0;
    }

    if (args.sub == "load") {
        if (!service.warmStart(file, &error)) {
            std::fprintf(stderr, "temp_cli snapshot: %s\n",
                         error.c_str());
            return 1;
        }
        api::OptimizeRequest request{resolveModel(args, "GPT-3 6.7B"),
                                     resolveWafer(args),
                                     resolveOptions(args)};
        const api::Response response = service.run(request);
        const api::TempService::PersistStats persist_stats =
            service.persistStats();
        if (args.json) {
            // The optimize response plus the warm-start counters the
            // CI smoke asserts on, as one document.
            std::printf(
                "%s\n",
                api::JsonObject()
                    .add("kind", "snapshot-load")
                    .add("blocks_staged", persist_stats.blocks_staged)
                    .add("frameworks_warmed",
                         persist_stats.frameworks_warmed)
                    .addRaw("response", api::toJson(response))
                    .str()
                    .c_str());
            return response.ok ? 0 : 1;
        }
        std::printf("Warm start from %s: %ld block(s) staged, %ld "
                    "framework(s) warmed\n\n",
                    file.c_str(), persist_stats.blocks_staged,
                    persist_stats.frameworks_warmed);
        if (!response.ok || !response.solver.feasible) {
            std::printf("No feasible strategy found. %s\n",
                        response.error.c_str());
            return 1;
        }
        printSolverResponse(response);
        return 0;
    }

    std::fprintf(stderr, "unknown snapshot verb '%s' "
                         "(use save, load or info)\n",
                 args.sub.c_str());
    return 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    if (!parseArgs(argc, argv, &args))
        return usage(argv[0]);

    api::TempService service;
    // The snapshot subcommand manages the persistent tier itself;
    // every other command honours --load/--save and the --opts
    // persist.* keys around its run (serve writes its own snapshots:
    // periodic plus post-drain).
    const bool plain_command = args.command != "snapshot";
    PersistPlan plan;
    if (plain_command) {
        plan = persistPlan(args);
        tryWarmStart(service, plan.load);
    }
    int rc = 1;
    if (args.command == "optimize")
        rc = runOptimize(service, args);
    else if (args.command == "baseline")
        rc = runBaseline(service, args);
    else if (args.command == "faults")
        rc = runFaults(service, args);
    else if (args.command == "multiwafer")
        rc = runMultiWafer(service, args);
    else if (args.command == "sweep")
        rc = runSweep(service, args);
    else if (args.command == "cache-stats")
        rc = runCacheStats(service, args);
    else if (args.command == "serve")
        return runServe(service, args);
    else if (args.command == "request")
        rc = runRequest(service, args);
    else if (args.command == "scenario")
        rc = runScenario(service, args);
    else if (args.command == "snapshot")
        rc = runSnapshot(service, args);
    else
        return usage(argv[0]);
    if (plain_command)
        trySaveSnapshot(service, plan.save);
    return rc;
}
