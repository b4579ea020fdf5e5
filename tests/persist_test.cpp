/**
 * @file
 * Tests for the persistent memo tier (src/persist): the snapshot byte
 * format's validation contract (truncation, bit flips, version and
 * contract-fingerprint mismatches all cold-start, never corrupt), and
 * the TempService warm-start path — a snapshot-warmed fresh service
 * answers a repeat request with zero new matrix measurements and
 * bit-identical results, including under finite byte budgets.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/request_key.hpp"
#include "api/service.hpp"
#include "persist/codec.hpp"
#include "persist/snapshot.hpp"

namespace temp::persist {
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

api::OptimizeRequest
testRequest()
{
    return {model::modelByName("GPT-3 6.7B"),
            hw::WaferConfig::paperDefault(), fastOptions()};
}

/// A unique path under the gtest temp dir; removed on destruction.
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + "persist_test_" + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/// A cell with every field set to a distinct value; its step tasks
/// name groups of `groups`.
cost::OpCell
syntheticCell(hw::DieGroupTable &groups)
{
    cost::OpCell cell;
    cost::OpCostBreakdown &b = cell.breakdown;
    double value = 1.5;
    for (double *field :
         {&b.fwd_time, &b.bwd_time, &b.step_comm_time, &b.comp_time,
          &b.collective_time, &b.stream_comm_time, &b.exposed_comm,
          &b.tail_latency, &b.d2d_link_bytes, &b.dram_bytes, &b.flops,
          &b.bw_utilization}) {
        *field = value;
        value *= 1.75;
    }
    b.schedule_lowerings = 7;
    b.schedule_cache_hits = 11;
    cell.comm_bytes = 4096.25;
    cell.step = {2.5e-3, 8.0e8, 0.625, 1.6e9, 3, 5};
    for (std::size_t c = 0; c < cell.footprint.bytes.size(); ++c)
        cell.footprint.bytes[c] = 1e6 * static_cast<double>(c + 1);
    cell.step_tasks.push_back(
        {net::CollectiveKind::AllReduce, 1003, 2.5e8,
         groups.intern(std::vector<hw::DieId>{0, 1, 2, 3})});
    cell.step_tasks.push_back(
        {net::CollectiveKind::P2P, 7, 1.25e6,
         groups.intern(std::vector<hw::DieId>{31, 30})});
    cell.activation_bytes = 3.0e9;
    return cell;
}

cost::OpCellKey
syntheticCellKey()
{
    cost::OpCellKey key;
    key.graph_fp = 0x0123456789abcdefull;
    key.op_index = 9;
    key.spec.dp = 2;
    key.spec.fsdp = 1;
    key.spec.tp = 4;
    key.spec.sp = 1;
    key.spec.cp = 1;
    key.spec.tatp = 4;
    key.spec.pp = 1;
    key.spec.coupled_sp = true;
    return key;
}

/// A small synthetic snapshot exercising every section kind.
Snapshot
syntheticSnapshot()
{
    MemoBlock block;
    block.framework_key = "wafer{4x8}|opts{test}";

    block.groups = std::make_shared<hw::DieGroupTable>();
    block.cells.emplace_back(syntheticCellKey(),
                             syntheticCell(*block.groups));
    cost::OpCell infeasible;
    infeasible.breakdown.feasible = false;
    block.cells.emplace_back(cost::OpCellKey{}, infeasible);

    sim::PerfReport report;
    report.step_time = 0.125;
    report.oom = true;
    report.grad_accum = 4;
    block.step_reports.emplace_back("step-key-1", report);

    Snapshot snapshot;
    snapshot.blocks.push_back(std::move(block));
    return snapshot;
}

TEST(SnapshotCodec, EncodeDecodeRoundTripsByteStable)
{
    const Snapshot snapshot = syntheticSnapshot();
    const std::string bytes = encodeSnapshot(snapshot);

    Snapshot decoded;
    std::string error;
    ASSERT_TRUE(decodeSnapshot(bytes, &decoded, &error)) << error;
    ASSERT_EQ(decoded.blocks.size(), 1u);
    const MemoBlock &block = decoded.blocks[0];
    EXPECT_EQ(block.framework_key, snapshot.blocks[0].framework_key);
    ASSERT_EQ(block.cells.size(), 2u);
    EXPECT_FALSE(block.cells[1].second.breakdown.feasible);
    ASSERT_EQ(block.step_reports.size(), 1u);
    EXPECT_TRUE(block.step_reports[0].second.oom);
    EXPECT_EQ(block.step_reports[0].second.grad_accum, 4);

    // Every field of the cell, its key and its step tasks survives.
    const auto &[key, cell] = block.cells[0];
    EXPECT_EQ(key, syntheticCellKey());
    hw::DieGroupTable groups;
    const cost::OpCell expected = syntheticCell(groups);
    const cost::OpCostBreakdown &b = cell.breakdown;
    const cost::OpCostBreakdown &e = expected.breakdown;
    EXPECT_TRUE(b.feasible);
    EXPECT_EQ(b.fwd_time, e.fwd_time);
    EXPECT_EQ(b.bwd_time, e.bwd_time);
    EXPECT_EQ(b.step_comm_time, e.step_comm_time);
    EXPECT_EQ(b.comp_time, e.comp_time);
    EXPECT_EQ(b.collective_time, e.collective_time);
    EXPECT_EQ(b.stream_comm_time, e.stream_comm_time);
    EXPECT_EQ(b.exposed_comm, e.exposed_comm);
    EXPECT_EQ(b.tail_latency, e.tail_latency);
    EXPECT_EQ(b.d2d_link_bytes, e.d2d_link_bytes);
    EXPECT_EQ(b.dram_bytes, e.dram_bytes);
    EXPECT_EQ(b.flops, e.flops);
    EXPECT_EQ(b.bw_utilization, e.bw_utilization);
    EXPECT_EQ(b.schedule_lowerings, e.schedule_lowerings);
    EXPECT_EQ(b.schedule_cache_hits, e.schedule_cache_hits);
    EXPECT_EQ(cell.comm_bytes, expected.comm_bytes);
    EXPECT_EQ(cell.step.time_s, expected.step.time_s);
    EXPECT_EQ(cell.step.bytes, expected.step.bytes);
    EXPECT_EQ(cell.step.utilization, expected.step.utilization);
    EXPECT_EQ(cell.step.link_bytes, expected.step.link_bytes);
    EXPECT_EQ(cell.step.schedule_lowerings, expected.step.schedule_lowerings);
    EXPECT_EQ(cell.step.schedule_cache_hits,
              expected.step.schedule_cache_hits);
    EXPECT_EQ(cell.footprint.bytes, expected.footprint.bytes);
    EXPECT_EQ(cell.activation_bytes, expected.activation_bytes);
    ASSERT_EQ(cell.step_tasks.size(), expected.step_tasks.size());
    for (std::size_t t = 0; t < cell.step_tasks.size(); ++t) {
        EXPECT_EQ(cell.step_tasks[t].kind, expected.step_tasks[t].kind);
        EXPECT_EQ(cell.step_tasks[t].group->dies,
                  expected.step_tasks[t].group->dies);
        EXPECT_EQ(cell.step_tasks[t].bytes, expected.step_tasks[t].bytes);
        EXPECT_EQ(cell.step_tasks[t].tag, expected.step_tasks[t].tag);
    }

    // Decode then re-encode is the identity on the byte image: the
    // format has one canonical serialization.
    EXPECT_EQ(encodeSnapshot(decoded), bytes);
}

TEST(SnapshotCodec, CellWithBadKindOrDieFailsTheWholeLoad)
{
    const auto rejected = [](const cost::OpCell &cell) {
        Snapshot snapshot = syntheticSnapshot();
        snapshot.blocks[0].cells.emplace_back(syntheticCellKey(), cell);
        Snapshot out;
        std::string error;
        const bool ok =
            decodeSnapshot(encodeSnapshot(snapshot), &out, &error);
        return !ok && out.blocks.empty() && !error.empty();
    };
    hw::DieGroupTable groups;
    cost::OpCell bad_kind = syntheticCell(groups);
    bad_kind.step_tasks[1].kind = static_cast<net::CollectiveKind>(
        static_cast<int>(net::CollectiveKind::P2P) + 1);
    EXPECT_TRUE(rejected(bad_kind));
    cost::OpCell bad_die = syntheticCell(groups);
    bad_die.step_tasks[0].group =
        groups.intern(std::vector<hw::DieId>{0, 1, -3, 3});
    EXPECT_TRUE(rejected(bad_die));
    EXPECT_FALSE(rejected(syntheticCell(groups)));
}

TEST(SnapshotCodec, EveryHeaderFieldIsValidated)
{
    const std::string bytes = encodeSnapshot(syntheticSnapshot());

    struct Case
    {
        const char *what;
        std::size_t offset;
    };
    // Layout: magic [0,8), version [8,12), fingerprint [12,20).
    for (const Case c : {Case{"magic", 0}, Case{"version", 8},
                         Case{"fingerprint", 12}}) {
        std::string corrupt = bytes;
        corrupt[c.offset] = static_cast<char>(corrupt[c.offset] ^ 0x01);
        Snapshot out;
        std::string error;
        EXPECT_FALSE(decodeSnapshot(corrupt, &out, &error))
            << c.what << " flip was accepted";
        EXPECT_FALSE(error.empty()) << c.what;
        EXPECT_TRUE(out.blocks.empty()) << c.what;
    }
}

TEST(SnapshotCodec, PreviousFormatVersionIsRejected)
{
    // A file written before the last version bump (its framework keys
    // can never match again) must take the cold-start path.
    std::string bytes = encodeSnapshot(syntheticSnapshot());
    const std::uint32_t previous = kFormatVersion - 1;
    for (std::size_t i = 0; i < 4; ++i)
        bytes[8 + i] = static_cast<char>((previous >> (8 * i)) & 0xff);
    Snapshot out;
    std::string error;
    EXPECT_FALSE(decodeSnapshot(bytes, &out, &error));
    EXPECT_EQ(error, "format version mismatch");
    EXPECT_TRUE(out.blocks.empty());
}

TEST(SnapshotCodec, PayloadBitFlipsFailTheChecksum)
{
    const std::string bytes = encodeSnapshot(syntheticSnapshot());
    // Flip one bit in each quarter of the body past the header: every
    // section is covered by its FNV checksum (or the structural
    // bounds checks around it).
    for (const std::size_t at :
         {std::size_t{24}, bytes.size() / 2, (3 * bytes.size()) / 4,
          bytes.size() - 1}) {
        std::string corrupt = bytes;
        corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
        Snapshot out;
        std::string error;
        EXPECT_FALSE(decodeSnapshot(corrupt, &out, &error))
            << "flip at " << at << " was accepted";
        EXPECT_TRUE(out.blocks.empty());
    }
}

TEST(SnapshotCodec, TruncationAtAnyPrefixIsRejected)
{
    const std::string bytes = encodeSnapshot(syntheticSnapshot());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{12},
          std::size_t{21}, bytes.size() / 2, bytes.size() - 1}) {
        Snapshot out;
        std::string error;
        EXPECT_FALSE(
            decodeSnapshot(bytes.substr(0, keep), &out, &error))
            << "prefix of " << keep << " bytes was accepted";
        EXPECT_TRUE(out.blocks.empty());
    }
    // Trailing garbage is no better than missing bytes.
    Snapshot out;
    std::string error;
    EXPECT_FALSE(decodeSnapshot(bytes + "x", &out, &error));
}

TEST(SnapshotFile, SaveLoadRoundTripsAndMissingFileFailsCleanly)
{
    TempFile file("roundtrip.snap");
    const Snapshot snapshot = syntheticSnapshot();
    std::string error;
    ASSERT_TRUE(saveSnapshotFile(file.path(), snapshot, &error))
        << error;

    Snapshot loaded;
    ASSERT_TRUE(loadSnapshotFile(file.path(), &loaded, &error))
        << error;
    EXPECT_EQ(encodeSnapshot(loaded), encodeSnapshot(snapshot));

    Snapshot missing;
    EXPECT_FALSE(loadSnapshotFile(file.path() + ".nope", &missing,
                                  &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------
// TempService warm start
// ---------------------------------------------------------------

TEST(ServiceWarmStart, SnapshotServesRepeatWorkWithZeroMeasurements)
{
    TempFile file("warm.snap");
    const api::OptimizeRequest request = testRequest();

    // Cold process: solve, then persist the memo stack.
    api::Response cold;
    {
        api::TempService service;
        cold = service.run(request);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_GT(cold.solver.matrix_measurements, 0);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
        EXPECT_EQ(service.persistStats().saves, 1);
    }

    // Fresh process: warm-start, then the same request re-measures
    // nothing and re-simulates nothing — and answers identically.
    api::TempService warmed;
    std::string error;
    ASSERT_TRUE(warmed.warmStart(file.path(), &error)) << error;
    const api::TempService::PersistStats staged = warmed.persistStats();
    EXPECT_EQ(staged.loads, 1);
    EXPECT_EQ(staged.blocks_staged, 1);
    EXPECT_EQ(staged.frameworks_warmed, 0);  // consumed lazily

    const api::Response warm = warmed.run(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.solver.matrix_measurements, 0);
    EXPECT_EQ(warm.solver.step_sims, 0);
    EXPECT_GT(warm.solver.cache_hits, 0);
    EXPECT_EQ(warmed.persistStats().frameworks_warmed, 1);

    EXPECT_EQ(warm.solver.per_op_specs, cold.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(warm.solver.step_time_s, cold.solver.step_time_s);
    EXPECT_EQ(warm.solver.evaluations, cold.solver.evaluations);
}

TEST(ServiceWarmStart, ByteBudgetedCachesStayBitIdentical)
{
    TempFile file("budgeted.snap");
    api::OptimizeRequest request = testRequest();
    // Finite byte budgets on every layer: residency shrinks, results
    // must not move (evicted entries recompute bit-identically).
    request.options.cache.max_eval_bytes = 256 << 10;
    request.options.cache.max_step_bytes = 128 << 10;
    request.options.cache.max_layout_bytes = 256 << 10;
    request.options.cache.max_schedule_bytes = 256 << 10;

    api::OptimizeRequest unbounded = testRequest();

    api::Response cold_unbounded;
    api::Response cold;
    {
        api::TempService service;
        cold_unbounded = service.run(unbounded);
        cold = service.run(request);
        ASSERT_TRUE(cold.ok) << cold.error;
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }
    // Budgets changed residency, not answers.
    EXPECT_EQ(cold.solver.per_op_specs,
              cold_unbounded.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(cold.solver.step_time_s,
                     cold_unbounded.solver.step_time_s);

    api::TempService warmed;
    std::string error;
    ASSERT_TRUE(warmed.warmStart(file.path(), &error)) << error;
    const api::Response warm = warmed.run(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.solver.per_op_specs, cold.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(warm.solver.step_time_s, cold.solver.step_time_s);
}

TEST(ServiceWarmStart, CorruptSnapshotColdStartsAndCounts)
{
    TempFile file("corrupt.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }
    // Damage the file on disk.
    {
        Snapshot loaded;
        std::string error;
        ASSERT_TRUE(loadSnapshotFile(file.path(), &loaded, &error));
        std::string bytes = encodeSnapshot(loaded);
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
        std::FILE *f = std::fopen(file.path().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }

    api::TempService service;
    std::string error;
    EXPECT_FALSE(service.warmStart(file.path(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(service.persistStats().load_failures, 1);
    EXPECT_EQ(service.persistStats().blocks_staged, 0);

    // The service still works — a failed load is a cold start, not a
    // failure mode.
    const api::Response response = service.run(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_GT(response.solver.matrix_measurements, 0);
}

TEST(ServiceWarmStart, CellNamingAMissingDieImportsNothing)
{
    TempFile file("foreign_die.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }
    // A die id the 4x8 wafer lacks decodes (it is a valid die id), but
    // the import checks it against the importing wafer.
    {
        Snapshot loaded;
        std::string error;
        ASSERT_TRUE(loadSnapshotFile(file.path(), &loaded, &error));
        bool planted = false;
        for (auto &[key, cell] : loaded.blocks[0].cells)
            for (net::CollectiveTask &task : cell.step_tasks)
                if (!planted && task.size() > 0) {
                    std::vector<hw::DieId> dies = task.group->dies;
                    dies[0] = 1000;
                    task.group = loaded.blocks[0].groups->intern(dies);
                    planted = true;
                }
        ASSERT_TRUE(planted);
        ASSERT_TRUE(saveSnapshotFile(file.path(), loaded, &error));
    }

    api::TempService service;
    std::string error;
    ASSERT_TRUE(service.warmStart(file.path(), &error)) << error;
    const api::Response response = service.run(request);
    ASSERT_TRUE(response.ok) << response.error;
    // Nothing of the block was imported: an honest cold solve.
    EXPECT_GT(response.solver.matrix_measurements, 0);
    EXPECT_GT(response.solver.step_sims, 0);
    EXPECT_EQ(service.persistStats().frameworks_warmed, 0);
    EXPECT_EQ(service.persistStats().load_failures, 1);
}

TEST(ServiceWarmStart, DifferentWaferSnapshotStaysPending)
{
    TempFile file("other_wafer.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }

    // A 4x4 wafer never matches the snapshot's 4x8 framework key: the
    // block stages harmlessly and the solve is an honest cold start.
    api::OptimizeRequest other = testRequest();
    other.wafer = hw::WaferConfig::paperDefault().withGrid(4, 4);

    api::TempService service;
    std::string error;
    ASSERT_TRUE(service.warmStart(file.path(), &error)) << error;
    EXPECT_EQ(service.persistStats().blocks_staged, 1);

    const api::Response response = service.run(other);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_GT(response.solver.matrix_measurements, 0);
    EXPECT_EQ(service.persistStats().frameworks_warmed, 0);

    // A save from this process carries the still-pending foreign block
    // alongside the newly warmed one — no data is silently dropped.
    TempFile carried("carried.snap");
    ASSERT_TRUE(service.saveSnapshot(carried.path(), &error)) << error;
    Snapshot resaved;
    ASSERT_TRUE(loadSnapshotFile(carried.path(), &resaved, &error))
        << error;
    EXPECT_EQ(resaved.blocks.size(), 2u);
}

TEST(ServiceWarmStart, TwoSavesAtWidthFourWriteIdenticalBytes)
{
    // Pool threads fill the memos in a racy order; the snapshot sorts
    // its entries by key, so two cold runs of one request write the
    // same bytes.
    api::OptimizeRequest request = testRequest();
    request.options.eval_threads = 4;
    std::string images[2];
    for (std::string &image : images) {
        TempFile file("width4.snap");
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
        std::FILE *in = std::fopen(file.path().c_str(), "rb");
        ASSERT_NE(in, nullptr);
        char buf[1 << 16];
        for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), in)) > 0;)
            image.append(buf, n);
        std::fclose(in);
    }
    ASSERT_FALSE(images[0].empty());
    // Compared as a flag: a byte dump of two snapshots is unreadable.
    EXPECT_TRUE(images[0] == images[1]);
}

TEST(ServiceWarmStart, ConcurrentConsumptionAndSaveAreSafe)
{
    TempFile file("concurrent.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }

    api::TempService service;
    std::string error;
    ASSERT_TRUE(service.warmStart(file.path(), &error)) << error;

    // Racing identical requests consume the one staged block exactly
    // once while a saver exports mid-flight (TSan watches the
    // pending-block handoff); every answer must still be warm-served.
    TempFile resaved("concurrent_resave.snap");
    std::atomic<int> ok{0};
    std::atomic<long> measured{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&] {
            const api::Response response = service.run(request);
            if (response.ok)
                ++ok;
            measured += response.solver.matrix_measurements;
        });
    std::thread saver([&] {
        std::string save_error;
        service.saveSnapshot(resaved.path(), &save_error);
    });
    for (std::thread &thread : threads)
        thread.join();
    saver.join();

    EXPECT_EQ(ok.load(), 4);
    EXPECT_EQ(measured.load(), 0);  // all four rode the warm memos
    EXPECT_EQ(service.persistStats().frameworks_warmed, 1);
}

}  // namespace
}  // namespace temp::persist
