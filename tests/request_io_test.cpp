/**
 * @file
 * Tests for the service wire format (api/request_io): the round-trip
 * contract serialize -> parse -> identical canonical request key, and
 * config_io-grade strictness (unknown keys are errors) on hostile
 * input — with no fatal() anywhere in the path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "api/serialize.hpp"
#include "core/config_io.hpp"
#include "core/schema.hpp"
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
    // 2^64 is all digits but not a uint64: strtoull would clamp it.
    expectReject("{\"kind\":\"fault\",\"fault_seed\":18446744073709551616,"
                 "\"model\":{\"base\":\"GPT-3 6.7B\"}}",
                 "fault_seed must be a non-negative integer below 2^64");
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

TEST(RequestParse, HostileModelAndWaferValuesNameTheirKey)
{
    // Each of these once reached the cost model and aborted the process
    // (a non-positive compute rate panics); now the parser names the key.
    const std::string head = "{\"kind\":\"optimize\",";
    const std::pair<const char *, const char *> model_cases[] = {
        {"\"seq\":-4", "model.seq"},     {"\"seq\":0", "model.seq"},
        {"\"batch\":0", "model.batch"},  {"\"ffn_mult\":0", "model.ffn_mult"},
        {"\"heads\":2.5", "model.heads"}};
    for (const auto &[member, key] : model_cases)
        expectReject(head + "\"model\":{\"base\":\"GPT-3 6.7B\"," + member +
                         "}}",
                     key);
    const std::pair<const char *, const char *> wafer_cases[] = {
        {"\"die_peak_flops\":0", "wafer.die_peak_flops"},
        {"\"d2d_bandwidth_bytes_per_s\":-1",
         "wafer.d2d_bandwidth_bytes_per_s"}};
    for (const auto &[member, key] : wafer_cases)
        expectReject(head + "\"model\":{\"base\":\"GPT-3 6.7B\"},"
                            "\"wafer\":{" +
                         member + "}}",
                     key);
    // Options: an empty population panicked the genetic engine.
    expectReject(head + "\"model\":{\"base\":\"GPT-3 6.7B\"},"
                        "\"options\":{\"solver.ga_population\":0}}",
                 "options.solver.ga_population");
    // A spec degree is at least 1 and at most the die cap.
    expectReject("{\"kind\":\"strategy\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
                 "\"spec\":{\"tp\":0}}",
                 "spec.tp");
    expectReject("{\"kind\":\"multiwafer\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
                 "\"pod\":{\"inter_wafer_latency_s\":-1}}",
                 "pod.inter_wafer_latency_s");
    expectReject("{\"kind\":\"multiwafer\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
                 "\"pod\":{\"wafer\":{\"hbm_capacity_bytes\":0}}}",
                 "pod.wafer.hbm_capacity_bytes");
}

TEST(RequestParse, FaultRatesAndEventTimesAreRanged)
{
    // The fault envelope and the scenario event scalars are checked
    // like the table rows: rates are probabilities or fractions in
    // [0, 1], event times are >= 0, and the message names the key.
    const std::string model = "\"model\":{\"base\":\"GPT-3 6.7B\"}";
    const std::pair<const char *, const char *> fault_cases[] = {
        {"\"link_fault_rate\":7", "fault.link_fault_rate exceeds 1"},
        {"\"link_fault_rate\":-0.5", "fault.link_fault_rate must be"},
        {"\"core_fault_rate\":-1", "fault.core_fault_rate must be"},
        {"\"core_fault_rate\":1.5", "fault.core_fault_rate exceeds 1"}};
    for (const auto &[member, needle] : fault_cases)
        expectReject("{\"kind\":\"fault\"," + model + "," + member + "}",
                     needle);
    const std::pair<const char *, const char *> event_cases[] = {
        {"\"link_fault_rate\":5", "events[0].link_fault_rate exceeds 1"},
        {"\"core_fault_rate\":-3", "events[0].core_fault_rate must be"},
        {"\"at_s\":-5", "events[0].at_s must be a finite number >= 0"}};
    for (const auto &[member, needle] : event_cases)
        expectReject("{\"kind\":\"scenario\"," + model +
                         ",\"events\":[{\"type\":\"set_faults\"," +
                         member + "}]}",
                     needle);
    // The bounds themselves are accepted.
    ParsedRequest parsed;
    std::string error;
    EXPECT_TRUE(parseRequest("{\"kind\":\"fault\"," + model +
                                 ",\"link_fault_rate\":1,"
                                 "\"core_fault_rate\":0}",
                             &parsed, &error))
        << error;
}

TEST(RequestParse, HostileValuesInConfigFilesNameTheirKey)
{
    const auto expectConfigReject = [](const auto &build,
                                       const std::string &text,
                                       const std::string &needle) {
        try {
            build(core::parseConfigTextOrThrow(text));
            ADD_FAILURE() << "accepted: " << text;
        } catch (const core::ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    const auto model = [](const core::ConfigMap &c) {
        return core::modelFromConfigOrThrow(c);
    };
    const auto wafer = [](const core::ConfigMap &c) {
        return core::waferFromConfigOrThrow(c);
    };
    expectConfigReject(model, "base = GPT-3 6.7B\nseq = -4\n", "key 'seq'");
    expectConfigReject(
        [](const core::ConfigMap &c) {
            return core::frameworkOptionsFromConfigOrThrow(c);
        },
        "solver.seed = 18446744073709551616\n", "key 'solver.seed'");
    expectConfigReject(model, "base = GPT-3 6.7B\nheads = 2.5\n",
                       "key 'heads'");
    expectConfigReject(wafer, "peak_tflops = 0\n", "key 'peak_tflops'");
    expectConfigReject(wafer, "d2d_tbps = -1\n", "key 'd2d_tbps'");
    expectConfigReject(wafer, "hbm_stacks = 0\n", "key 'hbm_stacks'");
    // A fractional grid is rejected rather than truncated.
    expectConfigReject(wafer, "rows = 4.5\n", "key 'rows'");
    // Wire-only rows have no config key.
    expectConfigReject(wafer, "die_area_mm2 = 500\n",
                       "unknown wafer key 'die_area_mm2'");
}

template <typename T>
std::string
keyOf(const T &value,
      core::OptionScope widest = core::OptionScope::Identity)
{
    std::string key;
    appendKey(key, value, widest);
    return key;
}

TEST(FieldTables, ByteFormsArePinned)
{
    // Captured before the keys and renderers became loops over the
    // field tables. Changing a key's bytes invalidates every TEMPSNP
    // snapshot (framework blocks are keyed by frameworkKey), so it
    // needs a persist::kFormatVersion bump; changing a wire byte breaks
    // clients and the response goldens.
    hw::WaferConfig w = hw::WaferConfig::paperDefault();
    w.rows = 3;
    w.cols = 5;
    w.die.peak_flops = 1.234567890123e15;
    w.die.area_mm2 = 612.5;
    w.hbm.stacks_per_die = 3;
    w.hbm.latency_s = 0.1 + 0.2;
    w.hbm.capacity_bytes = 3 * 48e9;
    w.d2d.efficient_transfer_bytes = 1.0 / 3.0 * 1e6;
    w.d2d.energy_pj_per_bit = 0.0;
    model::ModelConfig m = model::modelByName("Llama2 7B");
    m.name = "My|Net 1B";
    m.seq = 4096;
    m.ffn_mult = 3;
    parallel::ParallelSpec spec;
    spec.dp = 2;
    spec.tp = 4;
    spec.tatp = 2;
    spec.pp = 3;
    spec.coupled_sp = true;
    hw::MultiWaferConfig pod;
    pod.wafer = w;
    pod.wafer_count = 4;
    pod.inter_wafer_bandwidth_bytes_per_s = 1e13 / 3.0;
    pod.inter_wafer_latency_s = 2.5e-6;
    core::FrameworkOptions o;
    o.policy.kind = tcme::MappingEngineKind::GMap;
    o.training.flash_attention = false;
    o.training.weight_bytes_per_elem = 4;
    o.solver.seed = 99;

    const std::string default_wafer_key =
        "4|8|500|80000000|2000000000|1800000000000000|2000000000000|210|2|"
        "144000000000|2000000000000|1.0000000000000001e-07|6|4000000000000|"
        "2.0000000000000002e-07|5|32000000|";
    const std::string wafer_key =
        "3|5|612.5|80000000|2000000000|1234567890123000|2000000000000|210|"
        "3|144000000000|2000000000000|0.30000000000000004|6|4000000000000|"
        "2.0000000000000002e-07|0|333333.33333333331|";
    EXPECT_EQ(keyOf(hw::WaferConfig::paperDefault()), default_wafer_key);
    EXPECT_EQ(keyOf(w), wafer_key);
    EXPECT_EQ(keyOf(model::ModelConfig{}),
              "0:|32|128|4096|32|2048|4|51200|");
    EXPECT_EQ(keyOf(m), "9:My|Net 1B|32|128|4096|32|4096|3|51200|");
    EXPECT_EQ(keyOf(parallel::ParallelSpec{}), "1|1|1|1|1|1|1|0|");
    EXPECT_EQ(keyOf(spec), "2|1|4|1|1|2|3|1|");
    EXPECT_EQ(podKey(hw::MultiWaferConfig{}, core::FrameworkOptions{}),
              default_wafer_key +
                  "2|9000000000000|9.9999999999999995e-07|2|1|1|2|2|2|12|");
    EXPECT_EQ(podKey(pod, o),
              wafer_key + "4|3333333333333.3335|2.5000000000000002e-06|1|0|"
                          "1|4|2|2|12|");
    EXPECT_EQ(frameworkKey(w, o), wafer_key + optionsKey(o));

    const std::string default_wafer_json =
        "{\"rows\":4,\"cols\":8,\"die_area_mm2\":500,"
        "\"die_sram_bytes\":80000000,\"die_frequency_hz\":2000000000,"
        "\"die_peak_flops\":1800000000000000,"
        "\"die_flops_per_watt\":2000000000000,\"hbm_area_mm2\":210,"
        "\"hbm_stacks_per_die\":2,\"hbm_capacity_bytes\":144000000000,"
        "\"hbm_bandwidth_bytes_per_s\":2000000000000,"
        "\"hbm_latency_s\":1.0000000000000001e-07,"
        "\"hbm_energy_pj_per_bit\":6,"
        "\"d2d_bandwidth_bytes_per_s\":4000000000000,"
        "\"d2d_latency_s\":2.0000000000000002e-07,"
        "\"d2d_energy_pj_per_bit\":5,"
        "\"d2d_efficient_transfer_bytes\":32000000}";
    const std::string wafer_json =
        "{\"rows\":3,\"cols\":5,\"die_area_mm2\":612.5,"
        "\"die_sram_bytes\":80000000,\"die_frequency_hz\":2000000000,"
        "\"die_peak_flops\":1234567890123000,"
        "\"die_flops_per_watt\":2000000000000,\"hbm_area_mm2\":210,"
        "\"hbm_stacks_per_die\":3,\"hbm_capacity_bytes\":144000000000,"
        "\"hbm_bandwidth_bytes_per_s\":2000000000000,"
        "\"hbm_latency_s\":0.30000000000000004,\"hbm_energy_pj_per_bit\":6,"
        "\"d2d_bandwidth_bytes_per_s\":4000000000000,"
        "\"d2d_latency_s\":2.0000000000000002e-07,"
        "\"d2d_energy_pj_per_bit\":0,"
        "\"d2d_efficient_transfer_bytes\":333333.33333333331}";
    EXPECT_EQ(fieldsJson(hw::WaferConfig::paperDefault()), default_wafer_json);
    EXPECT_EQ(fieldsJson(w), wafer_json);
    EXPECT_EQ(fieldsJson(model::ModelConfig{}),
              "{\"name\":\"\",\"heads\":32,\"batch\":128,\"hidden\":4096,"
              "\"layers\":32,\"seq\":2048,\"ffn_mult\":4,\"vocab\":51200}");
    EXPECT_EQ(fieldsJson(m),
              "{\"name\":\"My|Net 1B\",\"heads\":32,\"batch\":128,"
              "\"hidden\":4096,\"layers\":32,\"seq\":4096,\"ffn_mult\":3,"
              "\"vocab\":51200}");
    EXPECT_EQ(fieldsJson(spec),
              "{\"dp\":2,\"fsdp\":1,\"tp\":4,\"sp\":1,\"cp\":1,\"tatp\":2,"
              "\"pp\":3,\"coupled_sp\":true}");
    EXPECT_EQ(fieldsJson(hw::MultiWaferConfig{}),
              "{\"wafer\":" + default_wafer_json +
                  ",\"wafer_count\":2,"
                  "\"inter_wafer_bandwidth_bytes_per_s\":9000000000000,"
                  "\"inter_wafer_latency_s\":9.9999999999999995e-07}");
    EXPECT_EQ(fieldsJson(pod),
              "{\"wafer\":" + wafer_json +
                  ",\"wafer_count\":4,"
                  "\"inter_wafer_bandwidth_bytes_per_s\":3333333333333.3335,"
                  "\"inter_wafer_latency_s\":2.5000000000000002e-06}");
    // The response renderer adds the paper-style tuple.
    EXPECT_EQ(toJson(parallel::ParallelSpec{}),
              "{\"dp\":1,\"fsdp\":1,\"tp\":1,\"sp\":1,\"cp\":1,\"tatp\":1,"
              "\"pp\":1,\"coupled_sp\":false,"
              "\"str\":\"(dp=1,tp=1,sp=1,tatp=1)\"}");
    EXPECT_EQ(toJson(spec),
              "{\"dp\":2,\"fsdp\":1,\"tp\":4,\"sp\":1,\"cp\":1,\"tatp\":2,"
              "\"pp\":3,\"coupled_sp\":true,"
              "\"str\":\"(dp=2,tp=4,sp=1,tatp=2,pp=3,csp)\"}");

    MultiWaferRequest request;
    request.model = m;
    request.pod = pod;
    request.intra_spec = spec;
    request.options = o;
    EXPECT_EQ(requestKey(request),
              "multiwafer|9:My|Net 1B|32|128|4096|32|4096|3|51200|" +
                  wafer_key +
                  "4|3333333333333.3335|2.5000000000000002e-06|1|0|1|4|2|2|"
                  "12|1|0|0|1|4|2|2|12|1|16|20|0.25|99|0|0|1|0|1|1|0|1|"
                  "1048576|32|1|0|0|0|0|0|0|0|0|2|1|4|1|1|2|3|1|2|8|");
}

/*
 * The per-table round trip. For each table a Case says how a struct
 * rides in a request document and, where it has one, how a .conf file
 * builds it.
 */
template <typename T>
struct Case;

template <>
struct Case<core::FrameworkOptions>
{
    static constexpr bool has_config = true;
    static core::FrameworkOptions base() { return {}; }
    static std::string doc(const std::string &json)
    {
        return "{\"kind\":\"optimize\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
               "\"options\":" + json + "}";
    }
    static core::FrameworkOptions back(const Request &r)
    {
        return std::get<OptimizeRequest>(r).options;
    }
    static core::FrameworkOptions config(const core::ConfigMap &c)
    {
        return core::frameworkOptionsFromConfigOrThrow(c);
    }
};

template <>
struct Case<hw::WaferConfig>
{
    static constexpr bool has_config = true;
    static hw::WaferConfig base() { return hw::WaferConfig::paperDefault(); }
    static std::string doc(const std::string &json)
    {
        return "{\"kind\":\"optimize\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
               "\"wafer\":" + json + "}";
    }
    static hw::WaferConfig back(const Request &r)
    {
        return std::get<OptimizeRequest>(r).wafer;
    }
    static hw::WaferConfig config(const core::ConfigMap &c)
    {
        return core::waferFromConfigOrThrow(c);
    }
};

template <>
struct Case<model::ModelConfig>
{
    static constexpr bool has_config = true;
    static model::ModelConfig base()
    {
        return model::modelByName("GPT-3 6.7B");
    }
    static std::string doc(const std::string &json)
    {
        return "{\"kind\":\"optimize\",\"model\":" + json + "}";
    }
    static model::ModelConfig back(const Request &r)
    {
        return std::get<OptimizeRequest>(r).model;
    }
    static model::ModelConfig config(core::ConfigMap c)
    {
        c["base"] = "GPT-3 6.7B";
        return core::modelFromConfigOrThrow(c);
    }
};

template <>
struct Case<parallel::ParallelSpec>
{
    static constexpr bool has_config = false;
    static parallel::ParallelSpec base() { return {}; }
    static std::string doc(const std::string &json)
    {
        return "{\"kind\":\"strategy\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
               "\"spec\":" + json + "}";
    }
    static parallel::ParallelSpec back(const Request &r)
    {
        return std::get<StrategyRequest>(r).spec;
    }
    static parallel::ParallelSpec config(const core::ConfigMap &)
    {
        return {};
    }
};

template <>
struct Case<hw::MultiWaferConfig>
{
    static constexpr bool has_config = false;
    static hw::MultiWaferConfig base() { return {}; }
    static std::string doc(const std::string &json)
    {
        return "{\"kind\":\"multiwafer\",\"model\":{\"base\":\"GPT-3 6.7B\"},"
               "\"pod\":" + json + "}";
    }
    static hw::MultiWaferConfig back(const Request &r)
    {
        return std::get<MultiWaferRequest>(r).pod;
    }
    static hw::MultiWaferConfig config(const core::ConfigMap &)
    {
        return {};
    }
};

template <typename V, typename... Ts>
constexpr bool kIsOneOf = (std::is_same_v<V, Ts> || ...);

/// Sets `row` of `value` to an in-range value other than its current.
template <typename T>
void
setOther(const core::FieldRow<T> &row, T &value)
{
    row.visit(value, [&](auto &v) {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, tcme::MappingEngineKind>)
            v = v == tcme::MappingEngineKind::GMap
                    ? tcme::MappingEngineKind::SMap
                    : tcme::MappingEngineKind::GMap;
        else if constexpr (std::is_same_v<V, solver::SearchEngineKind>)
            v = v == solver::SearchEngineKind::BeamTabu
                    ? solver::SearchEngineKind::NoRefine
                    : solver::SearchEngineKind::BeamTabu;
        else if constexpr (std::is_same_v<V, bool>)
            v = !v;
        else if constexpr (std::is_same_v<V, int>)
            // Doubling keeps a divisor of hidden a divisor.
            v = v > 0 && v * 2.0 <= row.max ? v * 2
                : v < row.max              ? v + 1
                                           : v - 1;
        else if constexpr (std::is_same_v<V, long>)
            v += 7;
        else if constexpr (std::is_same_v<V, double>)
            v = std::min(v * 4 / 3 + 1.0 / 3, row.max);
        else if constexpr (std::is_same_v<V, std::uint64_t>)
            v = 18446744073709551557ull;
        else
            v += "x";
    });
}

/// `row`'s value in `value` as .conf text, in the row's config units.
template <typename T>
std::string
configText(const core::FieldRow<T> &row, const T &value)
{
    std::string text;
    row.visit(value, [&](const auto &v) {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, tcme::MappingEngineKind>)
            text = core::policyName(v);
        else if constexpr (std::is_same_v<V, solver::SearchEngineKind>)
            text = solver::searchEngineName(v);
        else if constexpr (std::is_same_v<V, bool>)
            text = v ? "1" : "0";
        else if constexpr (std::is_same_v<V, double>)
            text = jsonNumberExact(v / row.config_scale);
        else if constexpr (std::is_same_v<V, std::string>)
            text = v;
        else
            text = std::to_string(v);
    });
    return text;
}

/// Values just outside `row`'s range (none for an unbounded row).
template <typename T>
std::vector<double>
outsideValues(const core::FieldRow<T> &row)
{
    std::vector<double> values;
    T probe = Case<T>::base();
    row.visit(probe, [&](const auto &v) {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, long>)
            values.push_back(-1);
        if constexpr (!kIsOneOf<V, int, double>)
            return;
        if (row.min == core::kPositive)
            values.push_back(0);
        else if (row.min > INT_MIN)
            values.push_back(row.min - 1);
        if (row.max < INT_MAX)
            values.push_back(row.max + 1);
    });
    return values;
}

/// Sets a numeric `row` of `value` to `v`.
template <typename T>
void
setNumber(const core::FieldRow<T> &row, T &value, double v)
{
    row.visit(value, [&](auto &member) {
        using V = std::decay_t<decltype(member)>;
        if constexpr (kIsOneOf<V, int, long, double>)
            member = static_cast<V>(v);
    });
}

template <typename T>
void
checkTable(std::string_view what)
{
    using core::Source;
    const T base = Case<T>::base();
    const auto in_config = [](const core::FieldRow<T> &row) {
        return Case<T>::has_config && row.readBy(core::Source::Config);
    };
    std::set<std::string_view> wire_keys, config_keys;
    for (const core::FieldRow<T> &row : core::fieldRows<T>()) {
        SCOPED_TRACE(std::string(what) + "." + std::string(row.key));
        EXPECT_NE(std::string_view(row.doc), "");
        EXPECT_TRUE(wire_keys.insert(row.key).second);
        if (in_config(row)) {
            EXPECT_TRUE(config_keys.insert(row.keyIn(Source::Config)).second);
        }
        if (!row.readBy(Source::Wire))
            continue;  // process-local options: the options test's
        T other = base;
        setOther(row, other);

        // A non-default value changes the key, unless the row is kept
        // out of it on purpose (service-level budgets).
        if (row.scope <= core::OptionScope::Identity) {
            EXPECT_NE(keyOf(other), keyOf(base));
        }

        // JSON -> parse -> JSON is byte-identical.
        const std::string wire = fieldsJson(other);
        ParsedRequest parsed;
        std::string error;
        ASSERT_TRUE(parseRequest(Case<T>::doc(wire), &parsed, &error))
            << error;
        EXPECT_EQ(fieldsJson(Case<T>::back(parsed.request)), wire);
        EXPECT_EQ(keyOf(Case<T>::back(parsed.request)), keyOf(other));

        // Config text -> struct -> JSON -> parse is identical.
        if (in_config(row)) {
            const T from_config = Case<T>::config(
                {{std::string(row.keyIn(Source::Config)),
                  configText(row, other)}});
            const std::string json = fieldsJson(from_config);
            EXPECT_NE(json, fieldsJson(base));
            ASSERT_TRUE(parseRequest(Case<T>::doc(json), &parsed, &error))
                << error;
            EXPECT_EQ(fieldsJson(Case<T>::back(parsed.request)), json);
            EXPECT_EQ(keyOf(Case<T>::back(parsed.request)),
                      keyOf(from_config));
        }

        // An out-of-range value is rejected by both parsers, by name
        // (the wafer's rows and cols by its grid rule, which runs
        // first).
        const bool grid = row.key == "rows" || row.key == "cols";
        for (const double v : outsideValues(row)) {
            SCOPED_TRACE(v);
            T bad = base;
            setNumber(row, bad, v);
            EXPECT_NE(core::fieldError(bad, Source::Wire, what), "");
            expectReject(Case<T>::doc(fieldsJson(bad)),
                         grid ? "grid" : std::string(row.key));
            if (!in_config(row))
                continue;
            try {
                Case<T>::config({{std::string(row.keyIn(Source::Config)),
                                  configText(row, bad)}});
                ADD_FAILURE() << "config accepted " << v;
            } catch (const core::ConfigError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              grid ? "grid" : row.keyIn(Source::Config)),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(FieldTables, EveryRowRoundTripsKeysAndRejectsOutOfRange)
{
    checkTable<core::FrameworkOptions>("options");
    checkTable<hw::WaferConfig>("wafer");
    checkTable<model::ModelConfig>("model");
    checkTable<parallel::ParallelSpec>("spec");
    checkTable<hw::MultiWaferConfig>("pod");
}

/// A config-text value for `row` that differs from its default.
std::string
nonDefaultValue(const core::OptionRow &row)
{
    core::FrameworkOptions options;
    setOther(row, options);
    return configText(row, options);
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
        fieldsJson(defaults),
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
    EXPECT_EQ(core::fieldRows<core::FrameworkOptions>().size(), 38u);

    for (const core::OptionRow &row :
         core::fieldRows<core::FrameworkOptions>()) {
        SCOPED_TRACE(row.key);
        EXPECT_NE(std::string_view(row.doc), "");
        const OptionScope scope = expectedScope(row.key);
        EXPECT_EQ(row.scope, scope);
        const core::FrameworkOptions flipped =
            core::frameworkOptionsFromConfig(core::parseConfigText(
                std::string(row.key) + " = " + nonDefaultValue(row) +
                "\n"));

        // Only identity rows change optionsKey; only pod rows change
        // the pod-scope key.
        EXPECT_EQ(optionsKey(flipped) != optionsKey(defaults),
                  scope <= OptionScope::Identity);
        EXPECT_EQ(keyOf(flipped, OptionScope::Pod) !=
                      keyOf(defaults, OptionScope::Pod),
                  scope == OptionScope::Pod);

        // Wire rows survive toJson -> parse; process-local rows are
        // neither rendered nor accepted.
        const std::string wire = fieldsJson(flipped);
        EXPECT_EQ(wire != fieldsJson(defaults), scope <= OptionScope::Wire);
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
        EXPECT_EQ(fieldsJson(back), wire);
        EXPECT_EQ(optionsKey(back), optionsKey(flipped));
    }
}

}  // namespace
}  // namespace temp::api
