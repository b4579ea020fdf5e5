/**
 * @file
 * The benchmark driver:
 *
 *   perfbench --workload <cold_plan|serve_mix|fault_replay> --seed <n>
 *             --seconds <s> --trace <0|1> [--workdir <dir>]
 *
 * Untraced (--trace 0) it runs the workload for the given seconds and
 * prints every end-to-end metric by name with its unit. Traced
 * (--trace 1) it runs the workload untraced and then traced for half
 * the time each (their difference is the tracing overhead), runs the
 * layer probes, and prints the span dump, the per-layer table and every
 * per-layer metric. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The exit code is
 * non-zero when any operation failed or an answer was rejected.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "checker.hpp"
#include "generator.hpp"
#include "model/model_zoo.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace temp;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/perfbench/work";
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args->workload = value;
        else if (key == "--seed")
            args->seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args->seconds = std::atof(value);
        else if (key == "--trace")
            args->trace = std::atoi(value) != 0;
        else if (key == "--workdir")
            args->workdir = value;
        else
            return false;
    }
    return (argc % 2) == 1 && args->seconds > 0.0 &&
           (args->workload == "cold_plan" || args->workload == "serve_mix" ||
            args->workload == "fault_replay");
}

Outcome
runWorkload(const Args &args, double seconds, std::size_t min_samples)
{
    if (args.workload == "cold_plan")
        return runColdPlan(args.seed, seconds, min_samples);
    if (args.workload == "serve_mix")
        return runServeMix(args.seed, seconds, args.workdir);
    return runFaultReplay(args.seed, seconds, min_samples);
}

/// The workload's own inputs, reused by the layer probes.
ProbeInputs
probeInputs(const Args &args)
{
    ProbeInputs in;
    in.workdir = args.workdir;
    api::FaultRequest draw;
    draw.link_fault_rate = 0.04;
    draw.core_fault_rate = 0.05;
    draw.fault_seed = args.seed + 1;
    in.faults = drawFaults(draw);
    in.scenario = makeFaultReplay(args.seed).timelines.front();
    in.scenario.events.resize(4);
    if (args.workload == "cold_plan") {
        const ColdPlanInputs cold = makeColdPlan(args.seed);
        for (std::size_t i = 0; i < 3; ++i) {
            in.models.push_back(cold.requests[i].model);
            in.requests.push_back(cold.requests[i]);
        }
        in.options = cold.requests.front().options;
    } else if (args.workload == "serve_mix") {
        const ServeMixInputs serve = makeServeMix(args.seed);
        for (std::size_t i = 0; i < 2; ++i)
            in.models.push_back(
                std::get<api::OptimizeRequest>(serve.catalog[i]).model);
        in.requests = serve.catalog;
        in.options =
            std::get<api::OptimizeRequest>(serve.catalog.front()).options;
    } else {
        const FaultReplayInputs replay = makeFaultReplay(args.seed);
        in.options = replay.timelines.front().options;
        for (const std::string &name : replayModels()) {
            in.models.push_back(model::modelByName(name));
            api::OptimizeRequest request;
            request.model = in.models.back();
            request.options = in.options;
            in.requests.push_back(request);
        }
        in.requests.push_back(replay.timelines.front());
    }
    in.scenario.options = in.options;
    return in;
}

struct Metric
{
    const char *name;
    const char *unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"plan_tokens_per_s", "tokens/s"},
    {"peak_rss_mb", "MiB"},
    {"cpu_ms_per_request", "ms"},
};

const Metric kPerLayer[] = {
    {"solver.solve_ms", "ms"},
    {"solver.enumerate_ms", "ms"},
    {"solver.search_ms", "ms"},
    {"solver.decomposition_coverage", "ratio"},
    {"solver.evaluations", "count"},
    {"solver.step_sims", "count"},
    {"solver.quanta_used", "count"},
    {"solver.refine_gain_pct", "%"},
    {"solver.refine_step_sims", "count"},
    {"eval.matrix_fill_ms", "ms"},
    {"eval.matrix_fill_ms_1t", "ms"},
    {"eval.fill_speedup", "ratio"},
    {"eval.uniform_batch_ms", "ms"},
    {"eval.measurements", "count"},
    {"eval.cache_hits", "count"},
    {"eval.layouts_built", "count"},
    {"eval.layout_hits", "count"},
    {"eval.step_sims", "count"},
    {"eval.step_cache_hits", "count"},
    {"eval.hit_rate", "ratio"},
    {"eval.hit_lookup_us", "us"},
    {"sim.simulate_ms", "ms"},
    {"sim.simulate_calls", "count"},
    {"cost.op_cost_us", "us"},
    {"cost.build_layout_us", "us"},
    {"cost.inter_op_us", "us"},
    {"tatp.order_as_chain_us", "us"},
    {"tatp.stream_flows_us", "us"},
    {"tcme.optimize_us", "us"},
    {"tcme.improvement_pct", "%"},
    {"net.lower_us", "us"},
    {"net.contention_us", "us"},
    {"net.safe_route_us", "us"},
    {"net.schedule_lowerings", "count"},
    {"net.schedule_cache_hits", "count"},
    {"net.schedule_hit_rate", "ratio"},
    {"hw.set_faults_ms", "ms"},
    {"core.framework_build_ms", "ms"},
    {"core.degraded_context_ms", "ms"},
    {"scenario.recovery_ms_p50", "ms"},
    {"scenario.step_sims", "count"},
    {"scenario.matrix_measurements", "count"},
    {"scenario.context_reuse_frac", "ratio"},
    {"scenario.fallback_events", "count"},
    {"api.parse_us", "us"},
    {"api.request_key_us", "us"},
    {"api.to_json_us", "us"},
    {"api.frameworks_built", "count"},
    {"api.framework_cache_hits", "count"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.coalesce_frac", "ratio"},
    {"serve.executed", "count"},
    {"serve.shed", "count"},
    {"serve.deadline_expired", "count"},
    {"persist.load_ms", "ms"},
    {"persist.save_ms", "ms"},
    {"persist.snapshot_bytes", "bytes"},
    {"persist.frameworks_warmed", "count"},
    {"trace.overhead_pct", "%"},
};

void
printSummary(const Outcome &out)
{
    std::printf("input digest: %s\n", hex64(out.input_digest).c_str());
    std::printf("set-up: %zu samples, median %.6f s\n", out.setup_s.size(),
                median(out.setup_s));
    const Timed timed = fasterHalf(out);
    if (timed.rounds > 0)
        std::printf("timed window: %zu rounds, %.3f s; the metrics are taken "
                    "over the faster %zu (%.3f s)\n",
                    out.rounds.size(), out.timed_wall_s, timed.rounds,
                    timed.wall_s);
    const std::size_t n = timed.latencies_ms.size();
    const double top = highestReportablePercentile(n);
    std::printf("latency: %zu samples (%zu in the window), p50 %.3f ms, "
                "p90 %.3f ms",
                n, out.latencies_ms.size(),
                percentile(timed.latencies_ms, 0.5),
                percentile(timed.latencies_ms, 0.9));
    if (top > 0.0)
        std::printf("; highest percentile with >=10 samples beyond it: "
                    "p%g = %.3f ms",
                    top * 100.0, percentile(timed.latencies_ms, top));
    if (timed.rounds > 0)
        std::printf("; whole window p50 %.3f ms",
                    percentile(out.latencies_ms, 0.5));
    std::printf("\n");
    std::printf("counters (%s):", out.counters_exact ? "exact"
                                                     : "timing-dependent");
    for (const auto &[name, value] : out.counters)
        std::printf(" %s=%ld", name.c_str(), value);
    std::printf("\n");
    std::printf("failed_frac: %.6f (%ld of %ld attempted)\n",
                out.attempted > 0
                    ? static_cast<double>(out.failed) / out.attempted
                    : 1.0,
                out.failed, out.attempted);
    for (const std::string &reason : out.rejections)
        std::printf("  rejected: %s\n", reason.c_str());
}

std::string
metricsJson(const std::map<std::string, double> &values,
            const Metric *metrics, std::size_t count)
{
    std::string json = "{";
    for (std::size_t i = 0; i < count; ++i) {
        const auto it = values.find(metrics[i].name);
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                                        "\"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name,
                      it != values.end() ? it->second : 0.0, metrics[i].unit);
        json += buf;
    }
    return json + "}";
}

void
printMetrics(const std::map<std::string, double> &values,
             const Metric *metrics, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const auto it = values.find(metrics[i].name);
        if (it == values.end())
            std::printf("  %-32s (not measured)\n", metrics[i].name);
        else
            std::printf("  %-32s %16.6f %s\n", metrics[i].name, it->second,
                        metrics[i].unit);
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: %s --workload <cold_plan|serve_mix|"
                     "fault_replay> --seed <n> --seconds <s> --trace <0|1> "
                     "[--workdir <dir>]\n",
                     argv[0]);
        return 2;
    }
    std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    std::map<std::string, double> values;
    long attempted = 0, failed = 0;
    const Metric *metrics = kEndToEnd;
    std::size_t metric_count = std::size(kEndToEnd);
    if (!args.trace) {
        const Outcome out = runWorkload(args, args.seconds, kMinSamples);
        printSummary(out);
        attempted = out.attempted;
        failed = out.failed;
        const Timed timed = fasterHalf(out);
        values["setup_s"] = median(out.setup_s);
        values["latency_p50_ms"] = percentile(timed.latencies_ms, 0.5);
        values["latency_p90_ms"] = percentile(timed.latencies_ms, 0.9);
        values["throughput_rps"] =
            static_cast<double>(timed.completed) / timed.wall_s;
        values["plan_tokens_per_s"] = geomean(out.plan_tokens);
        values["peak_rss_mb"] = out.peak_rss_mb;
        values["cpu_ms_per_request"] =
            timed.cpu_s * 1e3 / static_cast<double>(timed.completed);
        std::printf("end-to-end metrics:\n");
        printMetrics(values, metrics, metric_count);
    } else {
        // No percentile beyond the median is taken here, so the halves
        // need no minimum sample count.
        const Outcome plain = runWorkload(args, args.seconds / 2, 0);
        tracer().setEnabled(true);
        const Outcome traced = runWorkload(args, args.seconds / 2, 0);
        std::printf("traced run:\n");
        printSummary(traced);
        values = runProbes(probeInputs(args));
        for (const auto &[name, value] : traced.layer)
            values[name] = value;
        tracer().setEnabled(false);
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;

        const std::vector<double> plain_ms = fasterHalf(plain).latencies_ms;
        const std::vector<double> traced_ms = fasterHalf(traced).latencies_ms;
        const double plain_p50 = percentile(plain_ms, 0.5);
        const double traced_p50 = percentile(traced_ms, 0.5);
        values["trace.overhead_pct"] =
            (traced_p50 / plain_p50 - 1.0) * 100.0;

        const std::string dump = args.workdir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".spans.tsv";
        const bool written = tracer().writeDump(dump);
        std::printf("span dump (%zu spans%s%s):\n", tracer().spans().size(),
                    written ? ", all written to " : ", not written",
                    written ? dump.c_str() : "");
        tracer().printDump(stdout, 40);
        std::printf("per-layer table (spans around the benchmark's calls "
                    "into each layer):\n");
        std::printf("  %-10s %8s %12s %12s %7s\n", "layer", "calls",
                    "busy_ms", "self_ms", "share");
        for (const LayerRow &row : tracer().layerTable())
            std::printf("  %-10s %8ld %12.3f %12.3f %6.1f%%\n",
                        row.layer.c_str(), row.calls, row.busy_ms,
                        row.self_ms, row.share * 100.0);
        std::printf("solver.decomposition_coverage: %.4f (enumerate + "
                    "matrix fill + uniform batch + warmed search over a "
                    "cold solve)\n",
                    values["solver.decomposition_coverage"]);
        std::printf("tracing overhead: traced p50 %.3f ms over %zu samples "
                    "vs untraced p50 %.3f ms over %zu samples (%+.2f%%)\n",
                    traced_p50, traced_ms.size(), plain_p50,
                    plain_ms.size(), values["trace.overhead_pct"]);
        metrics = kPerLayer;
        metric_count = std::size(kPerLayer);
        std::printf("per-layer metrics:\n");
        printMetrics(values, metrics, metric_count);
    }

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metricsJson(values, metrics, metric_count).c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
