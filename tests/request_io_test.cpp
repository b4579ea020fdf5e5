/**
 * @file
 * Tests for the service wire format (api/request_io): the round-trip
 * contract serialize -> parse -> identical canonical request key, and
 * config_io-grade strictness (unknown keys are errors) on hostile
 * input — with no fatal() anywhere in the path.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "model/model_zoo.hpp"

namespace temp::api {
namespace {

/// The round-trip contract: the wire format is lossless with respect
/// to what a request computes (identical canonical key), and the
/// envelope tenant survives.
void
expectRoundTrip(const Request &request, const std::string &tenant)
{
    const std::string wire = toJson(request, tenant);
    ParsedRequest parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(wire, &parsed, &error))
        << error << "\nwire: " << wire;
    EXPECT_EQ(requestKey(parsed.request), requestKey(request))
        << "wire: " << wire;
    EXPECT_EQ(parsed.tenant, tenant);
    // Re-serializing the parsed request reproduces the document
    // byte-for-byte: parse loses nothing toJson renders.
    EXPECT_EQ(toJson(parsed.request, parsed.tenant), wire);
}

TEST(RequestRoundTrip, Optimize)
{
    OptimizeRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.options.solver.ga_population = 8;
    request.options.solver.ga_generations = 4;
    request.options.solver.seed = 12345;
    expectRoundTrip(request, "team-a");
}

TEST(RequestRoundTrip, OptimizeNonCanonicalDoubles)
{
    OptimizeRequest request;
    request.model = model::modelByName("Llama2 7B");
    // Doubles with no short decimal rendering must survive %.17g.
    request.wafer.hbm.latency_s = 0.1 + 0.2;
    request.wafer.die.peak_flops = 1.234567890123e15;
    request.options.solver.ga_mutation_rate = 1.0 / 3.0;
    expectRoundTrip(request, "");
}

TEST(RequestRoundTrip, SeedsAreNotDoubles)
{
    // A uint64 seed above 2^53 cannot round through a double; the raw
    // decimal lexeme must carry it.
    OptimizeRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.options.solver.seed = 18446744073709551615ull;
    expectRoundTrip(request, "big-seed");
}

TEST(RequestRoundTrip, Baseline)
{
    BaselineRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.kind = baselines::BaselineKind::Megatron1;
    request.engine = tcme::MappingEngineKind::SMap;
    expectRoundTrip(request, "baseline-tenant");
}

TEST(RequestRoundTrip, Strategy)
{
    StrategyRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.spec.dp = 2;
    request.spec.tp = 4;
    request.spec.tatp = 2;
    request.spec.coupled_sp = true;
    expectRoundTrip(request, "");
}

TEST(RequestRoundTrip, FaultWithRates)
{
    FaultRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.link_fault_rate = 0.07;
    request.core_fault_rate = 1.0 / 30.0;
    request.fault_seed = 18446744073709551615ull;
    expectRoundTrip(request, "ops");
}

TEST(RequestRoundTrip, FaultWithExplicitMap)
{
    FaultRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    hw::FaultMap faults(4, 0);
    faults.failLink(3);
    faults.failLink(1);
    faults.setCoreFaultFraction(2, 0.25);
    request.faults = faults;
    expectRoundTrip(request, "ops");
}

TEST(RequestRoundTrip, MultiWafer)
{
    MultiWaferRequest request;
    request.model = model::modelByName("GPT-3 6.7B");
    request.pod.wafer_count = 4;
    request.pod.inter_wafer_latency_s = 2.5e-6;
    request.pp = 4;
    request.microbatches = 16;
    request.intra_spec.tp = 8;
    expectRoundTrip(request, "pod-team");
}

TEST(RequestRoundTrip, CacheStats)
{
    expectRoundTrip(CacheStatsRequest{}, "observer");
}

TEST(RequestParse, GoldenDocument)
{
    // A hand-written minimal document (only non-default fields) must
    // mean the same computation as the struct it describes.
    const std::string wire =
        "{\"kind\":\"strategy\",\"tenant\":\"t\","
        "\"model\":{\"base\":\"GPT-3 6.7B\"},"
        "\"wafer\":{\"rows\":4,\"cols\":4},"
        "\"options\":{\"eval_threads\":3},"
        "\"spec\":{\"dp\":2,\"tp\":8}}";
    ParsedRequest parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(wire, &parsed, &error)) << error;

    StrategyRequest expected;
    expected.model = model::modelByName("GPT-3 6.7B");
    expected.wafer.rows = 4;
    expected.wafer.cols = 4;
    expected.options.eval_threads = 3;
    expected.spec.dp = 2;
    expected.spec.tp = 8;
    EXPECT_EQ(requestKey(parsed.request), requestKey(expected));
    EXPECT_EQ(parsed.tenant, "t");
}

TEST(RequestParse, DistinctRequestsHaveDistinctKeys)
{
    OptimizeRequest a;
    a.model = model::modelByName("GPT-3 6.7B");
    OptimizeRequest b = a;
    b.options.solver.seed = a.options.solver.seed + 1;
    EXPECT_NE(requestKey(Request{a}), requestKey(Request{b}));
}

/// Parse must fail with a message containing `needle`.
void
expectReject(const std::string &wire, const std::string &needle)
{
    ParsedRequest parsed;
    std::string error;
    ASSERT_FALSE(parseRequest(wire, &parsed, &error))
        << "accepted: " << wire;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error '" << error << "' lacks '" << needle << "'";
}

TEST(RequestParse, RejectsMalformedJson)
{
    expectReject("{\"kind\":", "request:");
    expectReject("[1,2,3]", "must be an object");
    expectReject("{}", "'kind' is required");
    expectReject("{\"kind\":\"frobnicate\"}", "unknown kind");
    expectReject("{\"kind\":42}", "must be a string");
}

TEST(RequestParse, RejectsUnknownKeysEverywhere)
{
    // Envelope, model, wafer, options, spec, faults, pod: a typo must
    // never silently configure the default (config_io parity).
    expectReject("{\"kind\":\"optimize\",\"bogus\":1,"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown key 'bogus' for kind 'optimize'");
    expectReject("{\"kind\":\"optimize\",\"spec\":{},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown key 'spec' for kind 'optimize'");
    expectReject("{\"kind\":\"optimize\","
                 "\"model\":{\"base\":\"GPT-3 6.7B\",\"hat\":1}}",
                 "unknown model key 'hat'");
    expectReject("{\"kind\":\"optimize\",\"wafer\":{\"rows\":4,"
                 "\"hbm_gb\":99},\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown wafer key 'hbm_gb'");
    expectReject("{\"kind\":\"optimize\",\"options\":{\"ga_pop\":9},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown options key 'ga_pop'");
    expectReject("{\"kind\":\"strategy\",\"spec\":{\"ep\":2},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown spec key 'ep'");
    expectReject("{\"kind\":\"fault\",\"faults\":{\"dies\":4},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown faults key 'dies'");
    expectReject("{\"kind\":\"multiwafer\",\"pod\":{\"wafers\":4},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown pod key 'wafers'");
    expectReject("{\"kind\":\"cache-stats\",\"model\":{}}",
                 "unknown key 'model' for kind 'cache-stats'");
}

TEST(RequestParse, RejectsRemovedSolverKnobs)
{
    // The retired engines and their knobs fail the strict parser the
    // same way config_io does.
    const std::string head = "{\"kind\":\"optimize\","
                             "\"model\":{\"base\":\"GPT-3 6.7B\"},"
                             "\"options\":{";
    for (const char *engine : {"annealing", "exact", "portfolio"})
        expectReject(head + "\"solver.engine\":\"" + engine + "\"}}",
                     "unknown search engine '" + std::string(engine) +
                         "'");
    for (const char *key :
         {"solver.enable_ga", "solver.annealing.iterations",
          "solver.annealing.proposals", "solver.annealing.initial_temp",
          "solver.annealing.cooling"})
        expectReject(head + "\"" + key + "\":1}}",
                     "unknown options key '" + std::string(key) + "'");
}

TEST(RequestParse, RejectsSemanticErrors)
{
    expectReject("{\"kind\":\"optimize\"}",
                 "'model' is required for kind 'optimize'");
    expectReject("{\"kind\":\"optimize\","
                 "\"model\":{\"base\":\"GPT-9 999T\"}}",
                 "unknown base model");
    expectReject("{\"kind\":\"optimize\",\"tenant\":7,"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "tenant must be a string");
    expectReject("{\"kind\":\"optimize\","
                 "\"wafer\":{\"rows\":0},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "at least 1x1");
    expectReject("{\"kind\":\"optimize\",\"wafer\":{\"rows\":1.5},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "must be an integer");
    expectReject("{\"kind\":\"baseline\",\"baseline_kind\":\"zero\","
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown baseline_kind 'zero'");
    expectReject("{\"kind\":\"baseline\",\"mapping_engine\":\"amap\","
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "unknown mapping_engine 'amap'");
    expectReject("{\"kind\":\"fault\",\"fault_seed\":1.5,"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "fault_seed must be a non-negative integer");
    expectReject("{\"kind\":\"fault\",\"fault_seed\":-4,"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "fault_seed must be a non-negative integer");
    expectReject("{\"kind\":\"fault\",\"faults\":{\"die_count\":2,"
                 "\"failed_links\":[-1]},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "failed_links entries must be >= 0");
    expectReject("{\"kind\":\"fault\",\"faults\":{\"die_count\":2,"
                 "\"core_fault_fractions\":[0.5]},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "must have die_count entries");
    expectReject("{\"kind\":\"optimize\",\"model\":"
                 "{\"base\":\"GPT-3 6.7B\",\"layers\":{}}}",
                 "must be a scalar");
}

TEST(RequestParse, BoundsHostileAllocationSizes)
{
    // These fields size real allocations and topology builds; a
    // hostile one-line request must be rejected at parse time, not
    // allocate gigabytes (or terminate the server on bad_alloc).
    expectReject("{\"kind\":\"fault\",\"faults\":"
                 "{\"die_count\":2000000000},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "faults.die_count exceeds");
    expectReject("{\"kind\":\"optimize\","
                 "\"wafer\":{\"rows\":46341,\"cols\":46341},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "grid exceeds");
    expectReject("{\"kind\":\"multiwafer\","
                 "\"pod\":{\"wafer_count\":1000000},"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "pod.wafer_count exceeds");
}

}  // namespace
}  // namespace temp::api
