#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include <sched.h>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "api/service.hpp"
#include "bench.hpp"
#include "checker.hpp"
#include "common/json.hpp"
#include "generator.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace temp;

void
Outcome::fail(const std::string &reason)
{
    ++failed;
    if (rejections.size() < 8)
        rejections.push_back(reason);
}

Timed
fasterHalf(const Outcome &out)
{
    Timed timed;
    if (out.rounds.empty()) {
        timed.latencies_ms = out.latencies_ms;
        timed.completed = out.completed;
        timed.wall_s = out.timed_wall_s;
        timed.cpu_s = out.timed_cpu_s;
        return timed;
    }
    std::vector<const Round *> kept;
    for (const Round &round : out.rounds)
        kept.push_back(&round);
    std::stable_sort(kept.begin(), kept.end(),
                     [](const Round *a, const Round *b) {
                         return a->wall_s < b->wall_s;
                     });
    kept.resize((kept.size() + 1) / 2);
    for (const Round *round : kept) {
        const auto begin =
            out.latencies_ms.begin() + static_cast<std::ptrdiff_t>(round->first);
        timed.latencies_ms.insert(
            timed.latencies_ms.end(), begin,
            begin + static_cast<std::ptrdiff_t>(round->samples));
        timed.completed += round->completed;
        timed.wall_s += round->wall_s;
        timed.cpu_s += round->cpu_s;
    }
    timed.rounds = kept.size();
    return timed;
}

namespace {

/// Opens and closes the rounds of a timed loop.
class RoundClock
{
  public:
    explicit RoundClock(Outcome &out) : out_(out) {}

    void open()
    {
        round_ = Round{};
        round_.first = out_.latencies_ms.size();
        completed0_ = out_.completed;
        wall0_ = nowS();
        cpu0_ = cpuS();
        open_ = true;
    }
    /// Closes the open round, if any.
    void close()
    {
        if (!open_)
            return;
        open_ = false;
        round_.samples = out_.latencies_ms.size() - round_.first;
        round_.completed = out_.completed - completed0_;
        round_.wall_s = nowS() - wall0_;
        round_.cpu_s = cpuS() - cpu0_;
        out_.rounds.push_back(round_);
    }

  private:
    Outcome &out_;
    Round round_;
    bool open_ = false;
    long completed0_ = 0;
    double wall0_ = 0.0;
    double cpu0_ = 0.0;
};

/// A fresh service per request or timeline: request_threads 1 keeps
/// submit() inline, since the benchmark only calls run().
std::unique_ptr<api::TempService>
freshService()
{
    api::ServiceOptions options;
    options.request_threads = 1;
    return std::make_unique<api::TempService>(options);
}

/**
 * Moves the calling thread round the CPUs of the process's affinity
 * mask, restoring the mask on destruction. A serial workload drives one
 * timeline per CPU in turn, so a run averages over every CPU's speed
 * instead of inheriting the one CPU the scheduler kept it on (on a
 * shared host, CPUs differ by tens of percent at the same moment).
 * Threads the caller creates inherit its affinity, so only a workload
 * that runs no pool threads may use this.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&mask_);
        if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &mask_))
                cpus_.push_back(cpu);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(mask_), &mask_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /// Pins the calling thread to the k-th CPU (mod the CPU count).
    void moveTo(std::size_t k) const
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t mask_;
    std::vector<int> cpus_;
};

void
addServiceStats(std::map<std::string, double> &layer,
                const api::TempService::Stats &stats)
{
    layer["api.frameworks_built"] += static_cast<double>(stats.frameworks_built);
    layer["api.framework_cache_hits"] +=
        static_cast<double>(stats.framework_cache_hits);
}

}  // namespace

Outcome
runColdPlan(std::uint64_t seed, double seconds, std::size_t min_samples)
{
    const ColdPlanInputs inputs = makeColdPlan(seed);
    Outcome out;
    out.input_digest = inputDigest(inputs);

    struct Answer
    {
        solver::SolverResult result;
        /// A fresh framework's cumulative count is its one solve's.
        long layouts_built = 0;
        std::string error;  ///< the service's error when not ok
    };
    std::vector<Answer> answers;
    RoundClock rounds(out);
    const double cpu0 = cpuS();
    const double t0 = nowS();
    for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
        // A round is one cycle: every run sees the six models equally
        // often.
        if (i % inputs.cycle == 0) {
            rounds.close();
            if (i >= inputs.quality_prefix && nowS() - t0 >= seconds &&
                fasterHalf(out).latencies_ms.size() >= min_samples)
                break;
            rounds.open();
        }
        const api::OptimizeRequest &request = inputs.requests[i];
        const long id = static_cast<long>(i);
        const double s0 = nowS();
        std::unique_ptr<api::TempService> service;
        {
            ScopedSpan span("api.setup", id);
            service = freshService();
            service->framework(request.wafer, request.options);
        }
        const double s1 = nowS();
        api::Response response;
        {
            ScopedSpan span("api.run", id);
            response = service->run(request);
        }
        const double s2 = nowS();
        out.setup_s.push_back(s1 - s0);
        out.latencies_ms.push_back((s2 - s1) * 1e3);
        ++out.attempted;
        ++out.completed;
        addServiceStats(out.layer, service->stats());
        answers.push_back({std::move(response.solver),
                           response.evaluator_stats.layouts_built,
                           response.ok ? "" : response.error});
    }
    rounds.close();
    out.timed_wall_s = nowS() - t0;
    out.timed_cpu_s = cpuS() - cpu0;
    out.peak_rss_mb = peakRssMb();

    long measurements = 0, step_sims = 0, lowerings = 0, layouts = 0,
         evaluations = 0, quanta = 0;
    for (std::size_t i = 0; i < answers.size(); ++i) {
        const api::OptimizeRequest &request = inputs.requests[i];
        const solver::SolverResult &result = answers[i].result;
        const std::string reason =
            !answers[i].error.empty()
                ? answers[i].error
                : Checker::checkPlan(request.wafer, hw::FaultMap(),
                                     request.options, request.model, result);
        if (!reason.empty())
            out.fail("optimize " + request.model.name + ": " + reason);
        if (i < inputs.quality_prefix) {
            out.plan_tokens.push_back(result.report.throughput_tokens_per_s);
            measurements += result.matrix_measurements;
            step_sims += result.step_sims;
            lowerings += result.schedule_lowerings;
            evaluations += result.evaluations;
            quanta += result.quanta_used;
            layouts += answers[i].layouts_built;
        }
    }
    out.counters = {{"matrix_measurements", measurements},
                    {"step_sims", step_sims},
                    {"schedule_lowerings", lowerings},
                    {"layouts_built", layouts},
                    {"evaluations", evaluations},
                    {"quanta", quanta}};
    out.counters_exact = true;
    return out;
}

Outcome
runFaultReplay(std::uint64_t seed, double seconds, std::size_t min_samples)
{
    const FaultReplayInputs inputs = makeFaultReplay(seed);
    Outcome out;
    out.input_digest = inputDigest(inputs);

    std::vector<std::size_t> replayed;  ///< timeline index of each report
    std::vector<scenario::ScenarioReport> reports;
    std::vector<eval::EvalStats> eval_stats;
    // kReplayThreads is 1: no pool thread inherits the pinned affinity.
    static_assert(kReplayThreads == 1);
    std::optional<CpuRotation> rotation;
    rotation.emplace();
    RoundClock rounds(out);
    const double cpu0 = cpuS();
    const double t0 = nowS();
    for (std::size_t t = 0; t < inputs.timelines.size(); ++t) {
        // A round is one timeline starting on each replay model.
        if (t % inputs.round == 0) {
            rounds.close();
            if (t >= inputs.quality_prefix && nowS() - t0 >= seconds &&
                fasterHalf(out).latencies_ms.size() >= min_samples)
                break;
            rounds.open();
        }
        rotation->moveTo(t);
        const api::ScenarioRequest &request = inputs.timelines[t];
        const long id = static_cast<long>(t);
        const double s0 = nowS();
        std::unique_ptr<api::TempService> service;
        {
            ScopedSpan span("api.setup", id);
            service = freshService();
            service->framework(request.wafer, request.options);
        }
        out.setup_s.push_back(nowS() - s0);
        api::Response response;
        {
            ScopedSpan span("api.run", id);
            response = service->run(request);
        }
        addServiceStats(out.layer, service->stats());
        out.attempted += static_cast<long>(request.events.size());
        if (!response.ok) {
            out.fail("scenario: " + response.error);
            continue;
        }
        out.completed += static_cast<long>(response.scenario.events.size());
        for (const scenario::EventReport &event : response.scenario.events)
            if (event.resolved)
                out.latencies_ms.push_back(event.recovery_wall_s * 1e3);
        replayed.push_back(t);
        reports.push_back(std::move(response.scenario));
        eval_stats.push_back(response.evaluator_stats);
    }
    rounds.close();
    out.timed_wall_s = nowS() - t0;
    out.timed_cpu_s = cpuS() - cpu0;
    out.peak_rss_mb = peakRssMb();
    rotation.reset();

    // The untimed second replay of every timed timeline, each on a
    // fresh service: its digest must match. Replays are independent and
    // deterministic, so they run side by side to keep the run short.
    std::vector<api::Response> second_replays(reports.size());
    {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        const unsigned width =
            std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
        for (unsigned w = 0; w < width; ++w)
            workers.emplace_back([&] {
                for (std::size_t k = next++; k < reports.size(); k = next++)
                    second_replays[k] =
                        freshService()->run(inputs.timelines[replayed[k]]);
            });
        for (std::thread &worker : workers)
            worker.join();
    }
    long step_sims = 0, measurements = 0, quanta = 0, lowerings = 0,
         layouts = 0, reused = 0, degraded = 0, fallbacks = 0;
    for (std::size_t k = 0; k < reports.size(); ++k) {
        const std::size_t t = replayed[k];
        const api::Response &second = second_replays[k];
        ++out.attempted;
        const scenario::ScenarioReport &report = reports[k];
        const std::string reason =
            second.ok ? Checker::checkReplay(report, second.scenario)
                      : "second replay failed: " + second.error;
        if (!reason.empty())
            out.fail("timeline " + std::to_string(t) + ": " + reason);
        fallbacks += report.fallback_events;
        for (const scenario::EventReport &event : report.events)
            if (event.resolved && event.degradation == "degraded") {
                ++degraded;
                reused += event.context_reused ? 1 : 0;
            }
        if (t < inputs.quality_prefix) {
            for (const scenario::EventReport &event : report.events)
                if (event.resolved && event.wafer_count > 0)
                    out.plan_tokens.push_back(event.throughput_after /
                                              event.wafer_count);
            step_sims += report.total_step_sims;
            measurements += report.total_matrix_measurements;
            quanta += report.total_quanta;
            lowerings += eval_stats[k].schedule_lowerings;
            layouts += eval_stats[k].layouts_built;
        }
    }
    out.counters = {{"matrix_measurements", measurements},
                    {"step_sims", step_sims},
                    {"quanta", quanta},
                    {"healthy_schedule_lowerings", lowerings},
                    {"healthy_layouts_built", layouts}};
    out.counters_exact = true;

    std::vector<double> recoveries = out.latencies_ms;
    out.layer["scenario.recovery_ms_p50"] = median(recoveries);
    out.layer["scenario.step_sims"] = static_cast<double>(step_sims);
    out.layer["scenario.matrix_measurements"] =
        static_cast<double>(measurements);
    out.layer["scenario.context_reuse_frac"] =
        degraded > 0 ? static_cast<double>(reused) / degraded : 0.0;
    out.layer["scenario.fallback_events"] = static_cast<double>(fallbacks);
    return out;
}

Exchange
classifyExchange(int pick, double rtt_ms, bool transport_ok,
                 int http_status, const std::string &body)
{
    Exchange exchange;
    exchange.pick = pick;
    exchange.rtt_ms = rtt_ms;
    common::JsonValue response;
    std::string error;
    if (!transport_ok)
        exchange.failure = "dropped connection";
    else if (!common::parseJson(body, &response, &error))
        exchange.failure = "unparseable response: " + error;
    else if (const common::JsonValue *shed = response.find("shed");
             shed != nullptr && shed->bool_value)
        exchange.failure = "shed";
    else if (const common::JsonValue *ok = response.find("ok");
             ok == nullptr || !ok->bool_value || http_status != 200)
        exchange.failure = "refused (HTTP " + std::to_string(http_status) +
                           ")";
    if (!exchange.failure.empty())
        return exchange;
    if (const common::JsonValue *wall = response.find("wall_time_s"))
        exchange.wall_ms = wall->number * 1e3;
    exchange.answer = hex64(fnv1a(Checker::answerFingerprint(response)));
    return exchange;
}

namespace {

/// A closed-loop client: the next request goes out when the previous
/// answer arrived, until @p stop is raised.
void
clientLoop(const ServeClientPlan &plan,
           const std::vector<api::Request> &catalog, int port,
           const std::atomic<bool> &stop, std::vector<Exchange> *log)
{
    serve::Client rpc;
    serve::HttpClient http;
    std::string error;
    const bool connected = plan.http
                               ? http.connect("127.0.0.1", port, &error)
                               : rpc.connect("127.0.0.1", port, &error);
    for (std::size_t n = 0; n < plan.picks.size() && !stop.load(); ++n) {
        const int pick = plan.picks[n];
        const api::Request &request = catalog[static_cast<std::size_t>(pick)];
        std::string body;
        int status = 200;
        bool transport_ok = false;
        const double sent = nowS();
        if (connected) {
            ScopedSpan span("serve.call", static_cast<long>(n));
            transport_ok =
                plan.http ? http.exchange("/v1/requests",
                                          api::toJson(request, plan.tenant),
                                          &status, &body, &error)
                          : rpc.call(request, plan.tenant, &body, &error);
        }
        const double rtt_ms = (nowS() - sent) * 1e3;
        log->push_back(
            classifyExchange(pick, rtt_ms, transport_ok, status, body));
        if (!transport_ok)
            break;  // a dropped connection ends this client
    }
}

}  // namespace

Outcome
runServeMix(std::uint64_t seed, double seconds, const std::string &workdir)
{
    const ServeMixInputs inputs = makeServeMix(seed);
    Outcome out;
    out.input_digest = inputDigest(inputs);
    std::filesystem::create_directories(workdir);
    const std::string snapshot = workdir + "/serve_mix.snap";

    // Untimed preparation: solve the catalog head into a snapshot.
    {
        const std::unique_ptr<api::TempService> prep = freshService();
        for (int index : inputs.snapshot_head)
            prep->run(inputs.catalog[static_cast<std::size_t>(index)]);
        std::string error;
        const double s0 = nowS();
        if (!prep->saveSnapshot(snapshot, &error))
            out.fail("snapshot save: " + error);
        out.layer["persist.save_ms"] = (nowS() - s0) * 1e3;
        std::error_code ec;
        out.layer["persist.snapshot_bytes"] = static_cast<double>(
            std::filesystem::file_size(snapshot, ec));
    }

    // Set-up, repeated: service, snapshot warm start, server bind. The
    // last one serves the run.
    serve::ServerOptions server_options;
    server_options.dispatcher.workers = kServeWorkers;
    std::unique_ptr<api::TempService> service;
    std::unique_ptr<serve::Server> server;
    std::vector<double> loads_ms;
    constexpr int kSetups = 9;
    for (int k = 0; k < kSetups; ++k) {
        if (server)
            server->stop();
        server.reset();
        service.reset();
        const double s0 = nowS();
        service = std::make_unique<api::TempService>();
        std::string error;
        const double l0 = nowS();
        if (!service->warmStart(snapshot, &error))
            out.fail("warm start: " + error);
        loads_ms.push_back((nowS() - l0) * 1e3);
        server = std::make_unique<serve::Server>(*service, server_options);
        if (!server->start(&error)) {
            out.fail("server start: " + error);
            return out;
        }
        out.setup_s.push_back(nowS() - s0);
    }
    out.layer["persist.load_ms"] = median(loads_ms);

    std::vector<std::vector<Exchange>> logs(inputs.clients.size());
    std::atomic<bool> stop{false};
    const double cpu0 = cpuS();
    const double t0 = nowS();
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < inputs.clients.size(); ++c)
            threads.emplace_back(clientLoop, std::cref(inputs.clients[c]),
                                 std::cref(inputs.catalog), server->port(),
                                 std::cref(stop), &logs[c]);
        while (nowS() - t0 < seconds)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stop.store(true);
        for (std::thread &thread : threads)
            thread.join();
    }
    out.timed_wall_s = nowS() - t0;
    out.timed_cpu_s = cpuS() - cpu0;
    out.peak_rss_mb = peakRssMb();

    // Closing pass (untimed): every catalog entry once more, so every
    // answer is re-simulated and compared with what the clients got.
    Checker checker;
    std::vector<std::string> keys;
    for (const api::Request &request : inputs.catalog)
        keys.push_back(api::requestKey(request));
    std::vector<common::JsonValue> closing(inputs.catalog.size());
    {
        serve::Client client;
        std::string error;
        const bool connected =
            client.connect("127.0.0.1", server->port(), &error);
        for (std::size_t i = 0; i < inputs.catalog.size(); ++i) {
            ++out.attempted;
            std::string body;
            if (!connected ||
                !client.call(inputs.catalog[i], "closing", &body, &error) ||
                !common::parseJson(body, &closing[i], &error)) {
                out.fail("closing pass " + inputs.labels[i] + ": " + error);
                continue;
            }
            std::string reason = Checker::checkWire(inputs.catalog[i],
                                                    closing[i]);
            if (reason.empty())
                reason = checker.checkRepeat(
                    keys[i],
                    hex64(fnv1a(Checker::answerFingerprint(closing[i]))));
            if (!reason.empty())
                out.fail(inputs.labels[i] + ": " + reason);
        }
    }

    std::vector<double> overhead_ms;
    for (const std::vector<Exchange> &log : logs) {
        for (const Exchange &exchange : log) {
            ++out.attempted;
            const std::size_t pick = static_cast<std::size_t>(exchange.pick);
            std::string failure = exchange.failure;
            if (failure.empty())
                failure = checker.checkRepeat(keys[pick], exchange.answer);
            if (!failure.empty()) {
                out.fail(inputs.labels[pick] + ": " + failure);
                continue;
            }
            ++out.completed;
            out.latencies_ms.push_back(exchange.rtt_ms);
            overhead_ms.push_back(exchange.rtt_ms - exchange.wall_ms);
        }
    }
    for (std::size_t i = 0; i < inputs.catalog.size(); ++i)
        if (std::holds_alternative<api::OptimizeRequest>(inputs.catalog[i]))
            if (const common::JsonValue *tokens = jsonAt(
                    closing[i],
                    {"result", "report", "throughput_tokens_per_s"}))
                out.plan_tokens.push_back(tokens->number);

    // Cumulative counters at run end (timing-dependent: coalescing
    // varies and concurrent solves interleave).
    out.counters_exact = false;
    {
        // Every framework's memo misses, aggregated by the service, and
        // the evaluator counters of the first head entry's framework
        // (warm-started, so it should measure nothing).
        const api::Response stats = service->run(api::CacheStatsRequest{});
        for (const api::CacheLayerStats &layer : stats.cache_layers)
            out.counters.emplace_back("cache." + layer.layer + ".misses",
                                      layer.stats.misses);
        const auto fw = service->framework(
            hw::WaferConfig::paperDefault(),
            std::get<api::OptimizeRequest>(inputs.catalog.front()).options);
        const eval::EvalStats evals = fw->evaluatorStats();
        const eval::StepStats steps = fw->stepStats();
        out.counters.emplace_back("head.matrix_measurements",
                                  evals.measurements);
        out.counters.emplace_back("head.step_sims", steps.sims);
        out.counters.emplace_back("head.layouts_built", evals.layouts_built);
    }
    server->stop();
    const serve::DispatchStats dispatch = server->stats();
    addServiceStats(out.layer, service->stats());
    out.layer["serve.overhead_ms_p50"] = median(overhead_ms);
    out.layer["serve.coalesce_frac"] =
        dispatch.accepted > 0
            ? static_cast<double>(dispatch.coalesced) / dispatch.accepted
            : 0.0;
    out.layer["serve.executed"] = static_cast<double>(dispatch.executed);
    out.layer["serve.shed"] = static_cast<double>(dispatch.shed);
    out.layer["serve.deadline_expired"] =
        static_cast<double>(dispatch.deadline_expired);
    out.layer["persist.frameworks_warmed"] =
        static_cast<double>(service->persistStats().frameworks_warmed);
    return out;
}

}  // namespace perfbench
