/**
 * @file
 * Tests for the service API layer: request round-trips vs direct
 * TempFramework calls (bit-identical results), framework-cache reuse
 * (a repeated request is served entirely from the shared evaluator —
 * zero new matrix measurements), concurrent submit() of mixed request
 * kinds, error responses for invalid requests, and JSON output being
 * parseable and stable.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <future>
#include <stdexcept>
#include <vector>

#include "api/serialize.hpp"
#include "api/service.hpp"
#include "core/config_io.hpp"

namespace temp::api {
namespace {

/// A fast solver configuration for test-sized searches.
core::FrameworkOptions
fastOptions()
{
    core::FrameworkOptions options;
    options.solver.ga_population = 8;
    options.solver.ga_generations = 4;
    options.eval_threads = 2;
    return options;
}

model::ModelConfig
testModel()
{
    return model::modelByName("GPT-3 6.7B");
}

// ---------------------------------------------------------------
// Minimal recursive-descent JSON validator (value grammar only) so
// tests can assert CLI/serialize output is well-formed without an
// external JSON dependency.
// ---------------------------------------------------------------
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool valid()
    {
        pos_ = 0;
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_;  // closing quote
        return true;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

TEST(ApiService, OptimizeRoundTripsBitIdenticalToDirectFramework)
{
    const model::ModelConfig model = testModel();
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    const core::FrameworkOptions options = fastOptions();

    const core::TempFramework direct(wafer, options);
    const solver::SolverResult expected = direct.optimize(model);

    TempService service;
    const Response response =
        service.run(OptimizeRequest{model, wafer, options});

    ASSERT_TRUE(response.ok);
    ASSERT_TRUE(response.solver.feasible);
    ASSERT_EQ(response.solver.per_op_specs.size(),
              expected.per_op_specs.size());
    for (std::size_t i = 0; i < expected.per_op_specs.size(); ++i)
        EXPECT_EQ(response.solver.per_op_specs[i],
                  expected.per_op_specs[i])
            << "op " << i;
    EXPECT_DOUBLE_EQ(response.solver.step_time_s, expected.step_time_s);
    EXPECT_EQ(response.solver.evaluations, expected.evaluations);
    EXPECT_EQ(response.op_names.size(),
              response.solver.per_op_specs.size());
    EXPECT_FALSE(response.framework_reused);
    EXPECT_GT(response.wall_time_s, 0.0);
}

TEST(ApiService, StrategyAndBaselineMatchDirectCalls)
{
    const model::ModelConfig model = testModel();
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    const core::FrameworkOptions options = fastOptions();
    const core::TempFramework direct(wafer, options);
    TempService service;

    parallel::ParallelSpec spec;
    spec.dp = 4;
    spec.tatp = 8;
    const sim::PerfReport expected_report =
        direct.evaluateStrategy(model, spec);
    const Response strategy =
        service.run(StrategyRequest{model, wafer, options, spec});
    ASSERT_TRUE(strategy.ok);
    EXPECT_DOUBLE_EQ(strategy.report.step_time,
                     expected_report.step_time);
    EXPECT_DOUBLE_EQ(strategy.report.peak_mem_bytes,
                     expected_report.peak_mem_bytes);

    const baselines::TunedBaseline expected_baseline =
        direct.evaluateBaseline(baselines::BaselineKind::MegatronSP,
                                tcme::MappingEngineKind::TCME, model);
    BaselineRequest baseline_request{model, wafer, options};
    const Response baseline = service.run(baseline_request);
    ASSERT_TRUE(baseline.ok);
    EXPECT_EQ(baseline.baseline.spec, expected_baseline.spec);
    EXPECT_DOUBLE_EQ(baseline.baseline.report.step_time,
                     expected_baseline.report.step_time);
}

TEST(ApiService, RepeatedOptimizeIsServedEntirelyFromEvaluatorCache)
{
    TempService service;
    const OptimizeRequest request{testModel(),
                                  hw::WaferConfig::paperDefault(),
                                  fastOptions()};

    const Response first = service.run(request);
    ASSERT_TRUE(first.ok);
    EXPECT_FALSE(first.framework_reused);
    EXPECT_GT(first.solver.matrix_measurements, 0);

    const Response repeat = service.run(request);
    ASSERT_TRUE(repeat.ok);
    EXPECT_TRUE(repeat.framework_reused);
    // The acceptance bar: the repeat performs ZERO new matrix
    // measurements — every cell is a hit on the shared evaluator.
    EXPECT_EQ(repeat.solver.matrix_measurements, 0);
    EXPECT_GT(repeat.solver.cache_hits, 0);
    // ...and ZERO new full-step simulations — the refiner's fitness
    // queries are all served from the shared StepEvaluator memo.
    EXPECT_GT(first.solver.step_sims, 0);
    EXPECT_EQ(repeat.solver.step_sims, 0);
    EXPECT_GT(repeat.solver.step_cache_hits, 0);
    // ...and ZERO collective lowerings one layer further down: the
    // memos above answer the repeat before it reaches the network hot
    // path. The cold solve's lowerings are all the fresh framework
    // ever lowered, and the retired hit counter reads 0 throughout.
    EXPECT_GT(first.solver.schedule_lowerings, 0);
    EXPECT_EQ(first.evaluator_stats.schedule_lowerings,
              first.solver.schedule_lowerings);
    EXPECT_EQ(repeat.solver.schedule_lowerings, 0);
    EXPECT_EQ(repeat.evaluator_stats.schedule_lowerings,
              first.evaluator_stats.schedule_lowerings);
    EXPECT_EQ(first.solver.schedule_cache_hits, 0);
    EXPECT_EQ(repeat.solver.schedule_cache_hits, 0);
    EXPECT_EQ(repeat.evaluator_stats.schedule_cache_hits, 0);
    // Cumulative counters corroborate: no growth in measurements or
    // simulations, growth in hits.
    EXPECT_EQ(repeat.evaluator_stats.measurements,
              first.evaluator_stats.measurements);
    EXPECT_GT(repeat.evaluator_stats.cache_hits,
              first.evaluator_stats.cache_hits);
    EXPECT_EQ(repeat.step_stats.sims, first.step_stats.sims);
    EXPECT_GT(repeat.step_stats.cache_hits,
              first.step_stats.cache_hits);
    // And the answers are identical.
    EXPECT_EQ(repeat.solver.per_op_specs, first.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(repeat.solver.step_time_s,
                     first.solver.step_time_s);

    const TempService::Stats stats = service.stats();
    EXPECT_EQ(stats.frameworks_built, 1);
    EXPECT_EQ(stats.framework_cache_hits, 1);
    EXPECT_EQ(stats.requests, 2);
}

TEST(ApiService, DifferentOptionsGetDistinctFrameworks)
{
    TempService service;
    OptimizeRequest request{testModel(),
                            hw::WaferConfig::paperDefault(),
                            fastOptions()};
    (void)service.run(request);
    request.options.solver.seed = 99;
    const Response other = service.run(request);
    EXPECT_FALSE(other.framework_reused);
    EXPECT_EQ(service.stats().frameworks_built, 2);
}

TEST(ApiService, SearchEngineSelectionRoundTripsThroughService)
{
    // Engine selection is part of the framework cache key and of the
    // solve: each engine gets its own framework and every engine
    // returns a feasible plan.
    TempService service;
    OptimizeRequest request{testModel(),
                            hw::WaferConfig::paperDefault(),
                            fastOptions()};

    Response by_engine[3];
    const solver::SearchEngineKind kinds[3] = {
        solver::SearchEngineKind::Genetic,
        solver::SearchEngineKind::NoRefine,
        solver::SearchEngineKind::BeamTabu};
    for (int k = 0; k < 3; ++k) {
        request.options.solver.engine = kinds[k];
        by_engine[k] = service.run(request);
        ASSERT_TRUE(by_engine[k].ok);
        ASSERT_TRUE(by_engine[k].solver.feasible)
            << solver::searchEngineName(kinds[k]);
        EXPECT_FALSE(by_engine[k].framework_reused);
    }
    EXPECT_EQ(service.stats().frameworks_built, 3);

    // Refining engines never do worse than the DP-only plan.
    EXPECT_LE(by_engine[0].solver.step_time_s,
              by_engine[1].solver.step_time_s * 1.0001);
    EXPECT_LE(by_engine[2].solver.step_time_s,
              by_engine[1].solver.step_time_s * 1.0001);
}

TEST(ApiService, ConcurrentSubmitOfMixedKindsMatchesSequentialRuns)
{
    const model::ModelConfig model = testModel();
    const hw::WaferConfig wafer = hw::WaferConfig::paperDefault();
    const core::FrameworkOptions options = fastOptions();

    parallel::ParallelSpec spec;
    spec.dp = 8;
    spec.tatp = 4;

    ServiceOptions service_options;
    service_options.request_threads = 4;
    TempService service(service_options);

    std::vector<std::future<Response>> futures;
    futures.push_back(
        service.submit(OptimizeRequest{model, wafer, options}));
    futures.push_back(
        service.submit(StrategyRequest{model, wafer, options, spec}));
    futures.push_back(
        service.submit(BaselineRequest{model, wafer, options}));
    futures.push_back(
        service.submit(OptimizeRequest{model, wafer, options}));

    std::vector<Response> responses;
    for (std::future<Response> &f : futures)
        responses.push_back(f.get());
    for (const Response &r : responses)
        EXPECT_TRUE(r.ok) << r.error;

    // Both optimizes agree with each other and with a direct solve.
    const core::TempFramework direct(wafer, options);
    const solver::SolverResult expected = direct.optimize(model);
    EXPECT_EQ(responses[0].solver.per_op_specs,
              expected.per_op_specs);
    EXPECT_EQ(responses[3].solver.per_op_specs,
              expected.per_op_specs);
    EXPECT_DOUBLE_EQ(responses[0].solver.step_time_s,
                     expected.step_time_s);
    EXPECT_DOUBLE_EQ(responses[1].report.step_time,
                     direct.evaluateStrategy(model, spec).step_time);

    // All four shared one framework.
    EXPECT_EQ(service.stats().frameworks_built, 1);
    EXPECT_EQ(service.stats().framework_cache_hits, 3);
}

TEST(ApiService, InvalidRequestsReturnErrorResponsesNotAborts)
{
    TempService service;

    StrategyRequest bad_spec{testModel(),
                             hw::WaferConfig::paperDefault(),
                             fastOptions()};
    bad_spec.spec.dp = 1024;  // needs 1024 dies on a 32-die wafer
    const Response strategy = service.run(bad_spec);
    EXPECT_FALSE(strategy.ok);
    EXPECT_FALSE(strategy.error.empty());

    MultiWaferRequest bad_pp;
    bad_pp.model = testModel();
    bad_pp.pod.wafer_count = 6;
    bad_pp.pp = 5;  // neither divides nor multiplies 6 wafers
    const Response pod = service.run(bad_pp);
    EXPECT_FALSE(pod.ok);
    EXPECT_FALSE(pod.error.empty());

    // Invalid requests never built a framework or pod.
    EXPECT_EQ(service.stats().pods_built, 0);
}

TEST(ApiService, OutOfRangeFieldsAnswerErrorsNotPanics)
{
    // A typed request skips the parser, so run() applies the same field
    // checks: each of these once panicked in the cost model.
    TempService service;
    OptimizeRequest bad_seq;
    bad_seq.model = testModel();
    bad_seq.options = fastOptions();
    bad_seq.model.seq = -4;
    const Response seq = service.run(bad_seq);
    EXPECT_FALSE(seq.ok);
    EXPECT_NE(seq.error.find("model.seq"), std::string::npos) << seq.error;

    FaultRequest bad_rate;
    bad_rate.model = testModel();
    bad_rate.wafer.die.peak_flops = 0;
    const Response rate = service.run(Request{bad_rate});
    EXPECT_FALSE(rate.ok);
    EXPECT_NE(rate.error.find("wafer.die_peak_flops"), std::string::npos)
        << rate.error;

    // The fault envelope and event scalars are ranged on this path too.
    FaultRequest bad_link;
    bad_link.model = testModel();
    bad_link.link_fault_rate = 7;
    const Response link = service.run(Request{bad_link});
    EXPECT_FALSE(link.ok);
    EXPECT_NE(link.error.find("fault.link_fault_rate"), std::string::npos)
        << link.error;
    ScenarioRequest bad_time;
    bad_time.model = testModel();
    bad_time.options = fastOptions();
    bad_time.events.push_back(scenario::Event{});
    bad_time.events.back().at_s = -5;
    const Response time = service.run(bad_time);
    EXPECT_FALSE(time.ok);
    EXPECT_NE(time.error.find("events[0].at_s"), std::string::npos)
        << time.error;

    MultiWaferRequest bad_pod;
    bad_pod.model = testModel();
    bad_pod.pod.wafer.d2d.bandwidth_bytes_per_s = -1;
    const Response pod = service.run(bad_pod);
    EXPECT_FALSE(pod.ok);
    EXPECT_NE(pod.error.find("pod.wafer.d2d_bandwidth_bytes_per_s"),
              std::string::npos)
        << pod.error;

    ScenarioRequest bad_switch;
    bad_switch.model = testModel();
    bad_switch.options = fastOptions();
    scenario::Event event;
    event.kind = scenario::Event::Kind::ModelSwitch;
    event.model = testModel();
    event.model.ffn_mult = 0;
    bad_switch.events.push_back(event);
    const Response replay = service.run(bad_switch);
    EXPECT_FALSE(replay.ok);
    EXPECT_NE(replay.error.find("events[0].model.ffn_mult"),
              std::string::npos)
        << replay.error;

    // Each degree is in range, but their product overflows an int: the
    // runtime spec check must not let the wrapped value pass.
    StrategyRequest huge;
    huge.model = testModel();
    huge.spec.dp = 1 << 16;
    huge.spec.tp = 1 << 16;
    const Response strategy = service.run(huge);
    EXPECT_FALSE(strategy.ok);
    EXPECT_NE(strategy.error.find("needs 4294967296 dies"), std::string::npos)
        << strategy.error;

    // Nothing was built for any of them, and a valid request still runs.
    EXPECT_EQ(service.stats().frameworks_built, 0);
    EXPECT_EQ(service.stats().pods_built, 0);
    bad_seq.model.seq = 2048;
    EXPECT_TRUE(service.run(bad_seq).ok);
}

TEST(ApiService, MultiWaferRequestMatchesDirectSimulator)
{
    const model::ModelConfig model = model::modelByName("GPT-3 175B");
    MultiWaferRequest request;
    request.model = model;
    request.pod.wafer_count = 2;
    request.pp = 2;
    request.microbatches = 8;
    request.intra_spec.dp = 2;
    request.intra_spec.tatp = 16;

    sim::MultiWaferSimulator direct(
        request.pod, tcme::MappingPolicy{tcme::MappingEngineKind::TCME});
    const sim::PerfReport expected = direct.simulate(
        model::ComputeGraph::transformer(model), request.intra_spec,
        request.pp, request.microbatches);

    TempService service;
    const Response response = service.run(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_DOUBLE_EQ(response.report.step_time, expected.step_time);
    EXPECT_EQ(response.stage_fabric.dieCount(),
              direct.stageFabric(request.pp).dieCount());

    // The pod simulator (and its per-pp stage cache) is reused.
    const Response repeat = service.run(request);
    EXPECT_TRUE(repeat.framework_reused);
    EXPECT_EQ(service.stats().pods_built, 1);
    EXPECT_EQ(service.stats().pod_cache_hits, 1);
}

TEST(ApiJson, ResponseJsonIsParseableAndStable)
{
    TempService service;
    const OptimizeRequest request{testModel(),
                                  hw::WaferConfig::paperDefault(),
                                  fastOptions()};
    const Response response = service.run(request);

    const std::string json = toJson(response);
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    // Stable: the same response always renders byte-identically.
    EXPECT_EQ(json, toJson(response));
    // Spot-check the envelope.
    EXPECT_NE(json.find("\"kind\":\"optimize\""), std::string::npos);
    EXPECT_NE(json.find("\"matrix_measurements\":"), std::string::npos);
    EXPECT_NE(json.find("\"step_sims\":"), std::string::npos);
    EXPECT_NE(json.find("\"schedule_lowerings\":"), std::string::npos);
    EXPECT_NE(json.find("\"schedule_cache_hits\":"), std::string::npos);
    EXPECT_NE(json.find("\"step_evaluator\":{\"sims\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"per_op_specs\":["), std::string::npos);
    EXPECT_NE(json.find("\"throughput_tokens_per_s\":"),
              std::string::npos);
}

TEST(ApiJson, ErrorAndKindSpecificPayloadsSerialize)
{
    TempService service;

    StrategyRequest bad{testModel(), hw::WaferConfig::paperDefault(),
                        fastOptions()};
    bad.spec.dp = 1024;
    const std::string error_json = toJson(service.run(bad));
    EXPECT_TRUE(JsonValidator(error_json).valid()) << error_json;
    EXPECT_NE(error_json.find("\"ok\":false"), std::string::npos);

    MultiWaferRequest pod;
    pod.model = model::modelByName("GPT-3 175B");
    pod.pod.wafer_count = 2;
    pod.pp = 2;
    pod.microbatches = 8;
    pod.intra_spec.dp = 2;
    pod.intra_spec.tatp = 16;
    const std::string pod_json = toJson(service.run(pod));
    EXPECT_TRUE(JsonValidator(pod_json).valid()) << pod_json;
    EXPECT_NE(pod_json.find("\"stage_fabric\":"), std::string::npos);

    BaselineRequest baseline{testModel(),
                             hw::WaferConfig::paperDefault(),
                             fastOptions()};
    const std::string baseline_json = toJson(service.run(baseline));
    EXPECT_TRUE(JsonValidator(baseline_json).valid()) << baseline_json;
    EXPECT_NE(baseline_json.find("\"all_oom\":"), std::string::npos);
}

TEST(ApiJson, EscapingAndNonFiniteNumbersAreWellFormed)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(0.0 / 0.0), "null");
    const std::string json = JsonObject()
                                 .add("weird", "q\"uote\tt")
                                 .add("inf", 1e308 * 10)
                                 .str();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
}

TEST(ApiThreadPool, SubmitResolvesFuturesAndPropagatesExceptions)
{
    ThreadPool pool(3);
    std::future<int> value = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(value.get(), 42);

    std::future<void> boom =
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(boom.get(), std::runtime_error);

    // Inline fallback on a workerless pool.
    ThreadPool inline_pool(1);
    EXPECT_EQ(inline_pool.submit([] { return 7; }).get(), 7);

    // Tasks interleave with parallelFor on the same pool.
    std::future<long> sum = pool.submit([&pool] {
        std::atomic<long> total{0};
        pool.parallelFor(100, [&](std::size_t i) {
            total += static_cast<long>(i);
        });
        return total.load();
    });
    EXPECT_EQ(sum.get(), 99L * 100 / 2);
}

}  // namespace
}  // namespace temp::api
