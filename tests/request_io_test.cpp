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
#include "api/serialize.hpp"
#include "core/config_io.hpp"
#include "core/options_schema.hpp"
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
          "solver.annealing.cooling", "solver.use_surrogate",
          "solver.surrogate_sample_fraction", "net.route_pool.max_entries",
          "net.route_pool.max_bytes"})
        expectReject(head + "\"" + key + "\":1}}",
                     "unknown options key '" + std::string(key) + "'");
    // Process-local keys are config-only: a request cannot carry them.
    for (const char *key : {"persist.path", "persist.save_on_exit",
                            "persist.period_s", "serve.deadline_ms"})
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
    // Integer options reject fractions and out-of-range values instead
    // of truncating them; eval_threads is capped.
    for (const char *member :
         {"\"solver.ga_population\":2.5", "\"eval_threads\":1e12",
          "\"eval_threads\":100000", "\"solver.space.max_tatp\":-3e10"})
        expectReject("{\"kind\":\"optimize\",\"model\":{\"base\":"
                     "\"GPT-3 6.7B\"},\"options\":{" +
                         std::string(member) + "}}",
                     "must be an integer in");
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

/// A config-text value for `row` that differs from its default.
std::string
nonDefaultValue(const core::OptionRow &row)
{
    using core::OptionKind;
    const core::FrameworkOptions d;
    switch (row.kind()) {
    case OptionKind::Policy: return "gmap";
    case OptionKind::Engine: return "beamtabu";
    case OptionKind::Bool: return row.at<OptionKind::Bool>(d) ? "0" : "1";
    case OptionKind::Int: {
        const int v = row.at<OptionKind::Int>(d);
        return std::to_string(v < row.max ? v + 1 : v - 1);
    }
    case OptionKind::Count:
        return std::to_string(row.at<OptionKind::Count>(d) + 7);
    case OptionKind::Double:
        return jsonNumberExact(row.at<OptionKind::Double>(d) + 1.0 / 3.0);
    case OptionKind::Seed: return "18446744073709551557";
    case OptionKind::Text: return "warm.snap";
    }
    return "";
}

/// The scope each key must have, stated independently of the table:
/// policy and training.* key pods; service.* budgets ride the wire
/// without entering optionsKey; persist.* and serve.* stay in config
/// files; everything else is framework identity.
core::OptionScope
expectedScope(std::string_view key)
{
    using core::OptionScope;
    if (key == "policy" || key.starts_with("training."))
        return OptionScope::Pod;
    if (key.starts_with("service."))
        return OptionScope::Wire;
    if (key.starts_with("persist.") || key.starts_with("serve."))
        return OptionScope::Local;
    return OptionScope::Identity;
}

TEST(OptionsSchema, EveryRowRoundTripsAndKeysByScope)
{
    using core::OptionScope;
    const core::FrameworkOptions defaults;
    // The default wire form, byte for byte: key order and value
    // lexemes are part of the wire contract.
    EXPECT_EQ(
        toJson(defaults),
        "{\"policy\":\"tcme\",\"eval_threads\":0,"
        "\"training.flash_attention\":true,"
        "\"training.zero1_optimizer\":true,"
        "\"training.weight_bytes_per_elem\":2,"
        "\"training.act_bytes_per_elem\":2,"
        "\"training.grad_bytes_per_elem\":2,"
        "\"training.optimizer_bytes_per_param\":12,"
        "\"solver.engine\":\"genetic\",\"solver.ga_population\":16,"
        "\"solver.ga_generations\":20,\"solver.ga_mutation_rate\":0.25,"
        "\"solver.seed\":1,\"solver.deadline.quanta\":0,"
        "\"solver.deadline.wall_ms\":0,\"solver.space.allow_dp\":true,"
        "\"solver.space.allow_fsdp\":false,\"solver.space.allow_tp\":true,"
        "\"solver.space.allow_sp\":true,\"solver.space.allow_cp\":false,"
        "\"solver.space.allow_tatp\":true,"
        "\"solver.space.max_tp\":1048576,\"solver.space.max_tatp\":32,"
        "\"solver.space.full_occupancy\":true,"
        "\"service.cache.max_frameworks\":0,"
        "\"service.cache.max_pods\":0,\"eval.cache.max_entries\":0,"
        "\"eval.cache.max_step_entries\":0,"
        "\"eval.cache.max_layouts\":0,"
        "\"net.schedule_cache.max_entries\":0,"
        "\"eval.cache.max_bytes\":0,"
        "\"eval.cache.max_step_bytes\":0,"
        "\"eval.cache.max_layout_bytes\":0,"
        "\"net.schedule_cache.max_bytes\":0}");
    // The snapshot block key form: changing these bytes requires a
    // persist::kFormatVersion bump.
    EXPECT_EQ(optionsKey(defaults),
              "2|0|1|1|2|2|2|12|1|16|20|0.25|1|0|0|1|0|1|1|0|1|1048576|32|"
              "1|0|0|0|0|0|0|0|0|");
    EXPECT_EQ(core::optionRows().size(), 38u);

    for (const core::OptionRow &row : core::optionRows()) {
        SCOPED_TRACE(row.key);
        EXPECT_EQ(core::findOptionRow(row.key), &row);
        EXPECT_NE(std::string_view(row.doc), "");
        const OptionScope scope = expectedScope(row.key);
        EXPECT_EQ(row.scope, scope);
        const core::FrameworkOptions flipped =
            core::frameworkOptionsFromConfig(core::parseConfigText(
                std::string(row.key) + " = " + nonDefaultValue(row) +
                "\n"));

        // Only identity rows change optionsKey; only pod rows change
        // policyTrainingKey.
        EXPECT_EQ(optionsKey(flipped) != optionsKey(defaults),
                  scope <= OptionScope::Identity);
        EXPECT_EQ(policyTrainingKey(flipped) != policyTrainingKey(defaults),
                  scope == OptionScope::Pod);

        // Wire rows survive toJson -> parse; process-local rows are
        // neither rendered nor accepted.
        const std::string wire = toJson(flipped);
        EXPECT_EQ(wire != toJson(defaults), scope <= OptionScope::Wire);
        if (scope > OptionScope::Wire)
            continue;
        ParsedRequest parsed;
        std::string error;
        ASSERT_TRUE(parseRequest(
            "{\"kind\":\"optimize\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
            "\"options\":" + wire + "}",
            &parsed, &error))
            << error;
        const core::FrameworkOptions &back =
            std::get<OptimizeRequest>(parsed.request).options;
        EXPECT_EQ(toJson(back), wire);
        EXPECT_EQ(optionsKey(back), optionsKey(flipped));
    }
}

}  // namespace
}  // namespace temp::api
