/**
 * @file
 * Self-tests of the benchmark's own machinery:
 *
 *  - the percentile helper and its "ten samples beyond" rule;
 *  - the faster-half selection of a run's rounds;
 *  - failure accounting: a shed, a dropped connection and a wrong plan
 *    each count as failed;
 *  - generator determinism (same seed, same bytes; other seed, other
 *    bytes) for every workload;
 *  - the checker rejecting deliberately perturbed plans, in process
 *    and on the wire.
 *
 * Run with `python3 perfbench/run.py --selftest`; exits non-zero on
 * the first failed expectation's summary.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/request_io.hpp"
#include "api/serialize.hpp"
#include "api/service.hpp"
#include "bench.hpp"
#include "checker.hpp"
#include "common/json.hpp"
#include "generator.hpp"
#include "model/model_zoo.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace temp;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok)
        ++failures;
}

void
testPercentiles()
{
    std::printf("percentile helper\n");
    expect(percentile({5, 1, 3, 2, 4}, 0.5) == 3.0, "median of 1..5 is 3");
    expect(percentile({0, 10}, 0.9) == 9.0, "p90 interpolates linearly");
    expect(percentile({}, 0.5) == 0.0, "empty set reads 0");
    expect(highestReportablePercentile(19) == 0.0,
           "19 samples: no percentile has ten beyond it");
    expect(highestReportablePercentile(20) == 0.5, "20 samples: p50");
    expect(highestReportablePercentile(99) == 0.5,
           "99 samples: p90 has only 9.9 beyond it");
    expect(highestReportablePercentile(100) == 0.9, "100 samples: p90");
    expect(highestReportablePercentile(1000) == 0.99, "1000 samples: p99");
    expect(highestReportablePercentile(10000) == 0.999,
           "10000 samples: p99.9");
    expect(std::fabs(geomean({2, 8}) - 4.0) < 1e-12, "geomean of 2, 8 is 4");
}

void
testFasterHalf()
{
    std::printf("faster half of the rounds\n");
    Outcome out;
    out.latencies_ms = {1, 2, 9, 9, 3, 4};
    out.completed = 6;
    out.timed_wall_s = 16.0;
    out.timed_cpu_s = 14.0;
    out.rounds = {{0, 2, 2, 3.0, 2.0}, {2, 2, 2, 9.0, 8.0},
                  {4, 2, 2, 4.0, 4.0}};
    const Timed timed = fasterHalf(out);
    expect(timed.rounds == 2, "three rounds: the faster two are kept");
    expect(timed.latencies_ms == std::vector<double>{1, 2, 3, 4},
           "the slow round's samples are left out");
    expect(timed.completed == 4 && timed.wall_s == 7.0 && timed.cpu_s == 6.0,
           "completions, wall and CPU time of the kept rounds");
    out.rounds.clear();
    expect(fasterHalf(out).latencies_ms.size() == 6 &&
               fasterHalf(out).wall_s == 16.0,
           "a window without rounds is kept whole");
}

/// A small, fast optimize request and its in-process answer.
api::OptimizeRequest
smallRequest()
{
    api::OptimizeRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.options.eval_threads = 2;
    request.options.solver.ga_population = 8;
    request.options.solver.ga_generations = 4;
    return request;
}

void
testFailureAccounting(const api::OptimizeRequest &request,
                      const api::Response &answer)
{
    std::printf("failure accounting\n");
    Outcome out;

    api::Response shed;
    shed.shed = true;
    shed.error = "queue full";
    const Exchange shed_exchange =
        classifyExchange(0, 1.0, true, 503, api::toJson(shed));
    expect(shed_exchange.failure == "shed", "a shed response is a failure");

    // A real dropped connection: the server drains while the client
    // still holds its connection.
    api::TempService service;
    serve::Server server(service, serve::ServerOptions{});
    std::string error, body;
    serve::Client client;
    const bool up = server.start(&error) &&
                    client.connect("127.0.0.1", server.port(), &error);
    server.stop();
    const bool delivered =
        up && client.call(api::Request(request), "t", &body, &error);
    const Exchange dropped = classifyExchange(0, 1.0, delivered, 200, body);
    expect(up && dropped.failure == "dropped connection",
           "a call on a drained server is a dropped connection");

    const Exchange good =
        classifyExchange(0, 1.0, true, 200, api::toJson(answer));
    expect(good.failure.empty() && !good.answer.empty(),
           "an ok answer is not a failure");

    solver::SolverResult wrong = answer.solver;
    wrong.step_time_s *= 0.5;
    wrong.report.step_time = wrong.step_time_s;
    const std::string reason = Checker::checkPlan(
        request.wafer, hw::FaultMap(), request.options, request.model, wrong);

    for (const Exchange &e : {shed_exchange, dropped, good})
        if (!e.failure.empty())
            out.fail(e.failure);
    if (!reason.empty())
        out.fail(reason);
    expect(out.failed == 3, "shed + dropped + wrong plan = 3 failed");
}

void
testGenerators()
{
    std::printf("generator determinism\n");
    expect(inputDigest(makeColdPlan(7)) == inputDigest(makeColdPlan(7)),
           "cold_plan: same seed, same inputs");
    expect(inputDigest(makeColdPlan(7)) != inputDigest(makeColdPlan(8)),
           "cold_plan: other seed, other inputs");
    expect(inputDigest(makeServeMix(7)) == inputDigest(makeServeMix(7)),
           "serve_mix: same seed, same inputs");
    expect(inputDigest(makeServeMix(7)) != inputDigest(makeServeMix(8)),
           "serve_mix: other seed, other inputs");
    expect(inputDigest(makeFaultReplay(7)) ==
               inputDigest(makeFaultReplay(7)),
           "fault_replay: same seed, same inputs");
    expect(inputDigest(makeFaultReplay(7)) !=
               inputDigest(makeFaultReplay(8)),
           "fault_replay: other seed, other inputs");
    const ColdPlanInputs a = makeColdPlan(7);
    expect(api::toJson(api::Request(a.requests[3])) ==
               api::toJson(api::Request(makeColdPlan(7).requests[3])),
           "cold_plan: a request's wire bytes repeat");
    bool kill_some = true;
    for (const api::ScenarioRequest &t : makeFaultReplay(7).timelines)
        for (const scenario::Event &e : t.events)
            if (!e.kill_dies.empty() &&
                (e.kill_dies.size() > 3 ||
                 e.kill_dies.size() >= static_cast<std::size_t>(
                                           t.wafer.dieCount())))
                kill_some = false;
    expect(kill_some, "fault_replay: kill_dies never takes every die");
}

void
testChecker(const api::OptimizeRequest &request, const api::Response &answer)
{
    std::printf("checker\n");
    const hw::FaultMap healthy;
    expect(Checker::checkPlan(request.wafer, healthy, request.options,
                              request.model, answer.solver)
               .empty(),
           "the service's own plan re-simulates bit for bit");

    solver::SolverResult nudged = answer.solver;
    nudged.step_time_s = std::nextafter(nudged.step_time_s, 1.0);
    expect(!Checker::checkPlan(request.wafer, healthy, request.options,
                               request.model, nudged)
                .empty(),
           "a step time one ulp off is rejected");

    solver::SolverResult swapped = answer.solver;
    parallel::ParallelSpec &spec = swapped.per_op_specs.front();
    spec = spec.dp > 1 ? parallel::ParallelSpec{1, 1, spec.tp * spec.dp,
                                                spec.sp, spec.cp, spec.tatp}
                       : parallel::ParallelSpec{spec.tp * spec.tatp * spec.sp,
                                                1, 1, 1, 1, 1};
    expect(!Checker::checkPlan(request.wafer, healthy, request.options,
                               request.model, swapped)
                .empty(),
           "a plan with a perturbed per-op spec is rejected");

    solver::SolverResult oom = answer.solver;
    oom.report.oom = true;
    expect(!Checker::checkPlan(request.wafer, healthy, request.options,
                               request.model, oom)
                .empty(),
           "an OOM plan is rejected");

    // The same checks on the wire form.
    const std::string wire = api::toJson(answer);
    common::JsonValue parsed;
    std::string error;
    expect(common::parseJson(wire, &parsed, &error) &&
               Checker::checkWire(api::Request(request), parsed).empty(),
           "the wire answer re-simulates to the same lexeme");
    const std::string lexeme = api::jsonNumber(answer.solver.step_time_s);
    std::string tampered = wire;
    const std::size_t at =
        tampered.rfind("\"step_time_s\":" + lexeme);
    tampered.replace(at + 14, lexeme.size(),
                     api::jsonNumber(answer.solver.step_time_s * 1.001));
    common::JsonValue reparsed;
    expect(common::parseJson(tampered, &reparsed, &error) &&
               !Checker::checkWire(api::Request(request), reparsed).empty(),
           "a wire answer with a perturbed step time is rejected");

    Checker repeats;
    expect(repeats.checkRepeat("k", "a").empty() &&
               repeats.checkRepeat("k", "a").empty() &&
               !repeats.checkRepeat("k", "b").empty(),
           "identical requests must return identical answers");

    parallel::ParallelSpec round;
    expect(parseSpecString("(dp=2,tp=4,sp=1,tatp=4,cp=2,csp)", &round) &&
               round.str() == "(dp=2,tp=4,sp=1,tatp=4,cp=2,csp)",
           "spec strings parse back to the same spec");
}

}  // namespace

int
main()
{
    testPercentiles();
    testFasterHalf();
    testGenerators();
    const api::OptimizeRequest request = smallRequest();
    api::TempService service;
    const api::Response answer = service.run(request);
    testFailureAccounting(request, answer);
    testChecker(request, answer);
    if (failures > 0) {
        std::printf("%d self-test expectation(s) failed\n", failures);
        return 1;
    }
    std::printf("all perfbench self-tests passed\n");
    return 0;
}
