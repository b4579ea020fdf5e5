/**
 * @file
 * Tests for the plain-text configuration loader (custom wafers and
 * models without recompiling).
 */
#include <gtest/gtest.h>

#include <string>

#include "core/config_io.hpp"

namespace temp::core {
namespace {

TEST(ConfigParse, KeyValueAndComments)
{
    const ConfigMap config = parseConfigText(
        "# a comment\n"
        "rows = 6   # trailing comment\n"
        "\n"
        "cols=9\n"
        "  peak_tflops =  900  \n");
    EXPECT_EQ(config.size(), 3u);
    EXPECT_EQ(config.at("rows"), "6");
    EXPECT_EQ(config.at("cols"), "9");
    EXPECT_EQ(config.at("peak_tflops"), "900");
}

TEST(ConfigParse, EmptyTextIsEmptyMap)
{
    EXPECT_TRUE(parseConfigText("").empty());
    EXPECT_TRUE(parseConfigText("# only comments\n\n").empty());
}

TEST(WaferConfig, DefaultsWhenEmpty)
{
    const hw::WaferConfig wafer = waferFromConfig({});
    const hw::WaferConfig ref = hw::WaferConfig::paperDefault();
    EXPECT_EQ(wafer.rows, ref.rows);
    EXPECT_DOUBLE_EQ(wafer.die.peak_flops, ref.die.peak_flops);
    EXPECT_DOUBLE_EQ(wafer.hbm.capacity_bytes, ref.hbm.capacity_bytes);
}

TEST(WaferConfig, OverridesApply)
{
    const ConfigMap config = parseConfigText(
        "rows = 6\ncols = 9\npeak_tflops = 900\nd2d_tbps = 2\n"
        "hbm_stacks = 3\nhbm_gb_per_stack = 48\n");
    const hw::WaferConfig wafer = waferFromConfig(config);
    EXPECT_EQ(wafer.dieCount(), 54);
    EXPECT_DOUBLE_EQ(wafer.die.peak_flops, 900e12);
    EXPECT_DOUBLE_EQ(wafer.d2d.bandwidth_bytes_per_s, 2e12);
    EXPECT_DOUBLE_EQ(wafer.hbm.capacity_bytes, 3 * 48e9);
    EXPECT_DOUBLE_EQ(wafer.hbm.bandwidth_bytes_per_s, 3e12);
}

TEST(ModelConfig, FromScratch)
{
    const ConfigMap config = parseConfigText(
        "name = MyNet 1B\nheads = 16\nhidden = 2048\nlayers = 24\n"
        "seq = 4096\nbatch = 64\n");
    const model::ModelConfig model = modelFromConfig(config);
    EXPECT_EQ(model.name, "MyNet 1B");
    EXPECT_EQ(model.headDim(), 128);
    EXPECT_EQ(model.layers, 24);
    EXPECT_GT(model.paramCount(), 1e9);
}

TEST(ModelConfig, BaseModelOverride)
{
    const ConfigMap config =
        parseConfigText("base = Llama2 7B\nseq = 16384\nbatch = 32\n");
    const model::ModelConfig model = modelFromConfig(config);
    EXPECT_EQ(model.hidden, 4096);  // inherited
    EXPECT_EQ(model.seq, 16384);    // overridden
    EXPECT_EQ(model.batch, 32);
}

TEST(FrameworkOptionsConfig, DefaultsWhenEmpty)
{
    const FrameworkOptions options = frameworkOptionsFromConfig({});
    EXPECT_EQ(options.policy.kind, tcme::MappingEngineKind::TCME);
    EXPECT_EQ(options.solver.engine, solver::SearchEngineKind::Genetic);
    EXPECT_EQ(options.eval_threads, 0);
}

TEST(FrameworkOptionsConfig, SolverTrainingAndPolicyKeysApply)
{
    const ConfigMap config = parseConfigText(
        "policy = gmap\n"
        "eval_threads = 3\n"
        "training.flash_attention = false\n"
        "training.optimizer_bytes_per_param = 16\n"
        "solver.engine = none\n"
        "solver.ga_population = 24\n"
        "solver.ga_mutation_rate = 0.5\n"
        "solver.seed = 7\n"
        "solver.space.allow_sp = false\n"
        "solver.space.max_tp = 8\n"
        "solver.space.full_occupancy = 0\n");
    const FrameworkOptions options = frameworkOptionsFromConfig(config);
    EXPECT_EQ(options.policy.kind, tcme::MappingEngineKind::GMap);
    EXPECT_EQ(options.eval_threads, 3);
    EXPECT_FALSE(options.training.flash_attention);
    EXPECT_DOUBLE_EQ(options.training.optimizer_bytes_per_param, 16.0);
    EXPECT_EQ(options.solver.engine, solver::SearchEngineKind::NoRefine);
    EXPECT_EQ(options.solver.ga_population, 24);
    EXPECT_DOUBLE_EQ(options.solver.ga_mutation_rate, 0.5);
    EXPECT_EQ(options.solver.seed, 7u);
    EXPECT_FALSE(options.solver.space.allow_sp);
    EXPECT_EQ(options.solver.space.max_tp, 8);
    EXPECT_FALSE(options.solver.space.full_occupancy);
    // Untouched keys keep their defaults.
    EXPECT_TRUE(options.solver.space.allow_tatp);
    EXPECT_TRUE(options.training.zero1_optimizer);
}

TEST(FrameworkOptionsConfig, SearchEngineKeyApplies)
{
    const FrameworkOptions options = frameworkOptionsFromConfig(
        parseConfigText("solver.engine = beamtabu\n"));
    EXPECT_EQ(options.solver.engine, solver::SearchEngineKind::BeamTabu);

    // Canonical names and aliases round-trip through the parser.
    EXPECT_EQ(frameworkOptionsFromConfig(
                  parseConfigText("solver.engine = none\n"))
                  .solver.engine,
              solver::SearchEngineKind::NoRefine);
    EXPECT_EQ(frameworkOptionsFromConfig(
                  parseConfigText("solver.engine = ga\n"))
                  .solver.engine,
              solver::SearchEngineKind::Genetic);
    EXPECT_STREQ(
        solver::searchEngineName(options.solver.engine), "beamtabu");
}

TEST(ConfigFileDetection, DotConfSuffixOnly)
{
    EXPECT_TRUE(isConfigFile("wafer.conf"));
    EXPECT_TRUE(isConfigFile("path/to/model.conf"));
    EXPECT_FALSE(isConfigFile("GPT-3 6.7B"));
    EXPECT_FALSE(isConfigFile(".conf"));
    EXPECT_FALSE(isConfigFile("conf"));
}

using ConfigDeath = ::testing::Test;

TEST(ConfigDeath, RejectsUnknownWaferKey)
{
    EXPECT_EXIT(waferFromConfig(parseConfigText("bogus = 1\n")),
                ::testing::ExitedWithCode(1), "unknown wafer key");
}

TEST(ConfigDeath, RejectsMalformedLine)
{
    EXPECT_EXIT(parseConfigText("no equals sign here\n"),
                ::testing::ExitedWithCode(1), "expected");
}

TEST(ConfigDeath, RejectsNonNumericValue)
{
    EXPECT_EXIT(waferFromConfig(parseConfigText("rows = many\n")),
                ::testing::ExitedWithCode(1), "non-numeric");
}

TEST(ConfigDeath, ModelNeedsNameOrBase)
{
    EXPECT_EXIT(modelFromConfig(parseConfigText("heads = 8\n")),
                ::testing::ExitedWithCode(1), "name");
}

TEST(ConfigDeath, HiddenMustDivideByHeads)
{
    EXPECT_EXIT(
        modelFromConfig(parseConfigText(
            "name = X\nheads = 7\nhidden = 100\n")),
        ::testing::ExitedWithCode(1), "divide");
}

TEST(ConfigDeath, RejectsUnknownOptionsKey)
{
    EXPECT_EXIT(
        frameworkOptionsFromConfig(parseConfigText("solver.bogus = 1\n")),
        ::testing::ExitedWithCode(1), "unknown options key");
}

TEST(ConfigDeath, RejectsRemovedSolverKnobs)
{
    // The retired engines and their knobs are unknown, not ignored.
    for (const char *engine : {"annealing", "exact", "portfolio"})
        EXPECT_EXIT(frameworkOptionsFromConfig(parseConfigText(
                        std::string("solver.engine = ") + engine + "\n")),
                    ::testing::ExitedWithCode(1), "unknown search engine");
    for (const char *key :
         {"solver.enable_ga", "solver.annealing.iterations",
          "solver.annealing.proposals", "solver.annealing.initial_temp",
          "solver.annealing.cooling", "solver.use_surrogate",
          "solver.surrogate_sample_fraction", "net.route_pool.max_entries",
          "net.route_pool.max_bytes"})
        EXPECT_EXIT(frameworkOptionsFromConfig(parseConfigText(
                        std::string(key) + " = 1\n")),
                    ::testing::ExitedWithCode(1), "unknown options key");
}

TEST(ConfigDeath, RejectsNonBooleanAndUnknownEngine)
{
    EXPECT_EXIT(frameworkOptionsFromConfig(parseConfigText(
                    "training.flash_attention = maybe\n")),
                ::testing::ExitedWithCode(1), "non-boolean");
    EXPECT_EXIT(
        frameworkOptionsFromConfig(parseConfigText("policy = alpa\n")),
        ::testing::ExitedWithCode(1), "unknown engine");
    EXPECT_EXIT(frameworkOptionsFromConfig(
                    parseConfigText("solver.engine = tabu\n")),
                ::testing::ExitedWithCode(1), "unknown search engine");
}

TEST(ConfigDeath, RejectsNonIntegralAndOutOfRangeIntegers)
{
    // Integer keys never truncate a fraction or convert an
    // out-of-range double.
    for (const char *line :
         {"solver.ga_population = 2.5\n", "eval_threads = 1e12\n",
          "eval_threads = 257\n", "eval_threads = -1\n",
          "solver.space.max_tp = 3e9\n", "serve.deadline_ms = -5\n"})
        EXPECT_EXIT(frameworkOptionsFromConfig(parseConfigText(line)),
                    ::testing::ExitedWithCode(1), "must be an integer in")
            << line;
    EXPECT_EXIT(frameworkOptionsFromConfig(
                    parseConfigText("eval.cache.max_bytes = 1.5\n")),
                ::testing::ExitedWithCode(1), "must be a whole number");
    EXPECT_EQ(frameworkOptionsFromConfig(
                  parseConfigText("eval_threads = 256\n"))
                  .eval_threads,
              256);
}

}  // namespace
}  // namespace temp::core
