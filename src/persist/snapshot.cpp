#include "persist/snapshot.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "persist/codec.hpp"

namespace temp::persist {

namespace {

constexpr char kMagic[8] = {'T', 'E', 'M', 'P', 'S', 'N', 'P', '\x01'};

// Section tags read as their ASCII name in a little-endian hex dump.
constexpr std::uint32_t kTagBreakdowns = 0x444b5242;   // "BRKD"
constexpr std::uint32_t kTagStepReports = 0x50455453;  // "STEP"

/// Ceiling on any count field before allocating: a corrupt or hostile
/// file must not size containers from garbage bytes. Every persisted
/// entry is multiple bytes, so a count beyond the remaining payload is
/// always invalid.
bool
plausibleCount(std::uint64_t count, std::size_t min_entry_bytes,
               const ByteReader &r)
{
    return count <= r.remaining() / min_entry_bytes;
}

void
putBreakdown(ByteWriter &w, const cost::OpCostBreakdown &b)
{
    w.u8(b.feasible ? 1 : 0);
    w.f64(b.fwd_time);
    w.f64(b.bwd_time);
    w.f64(b.step_comm_time);
    w.f64(b.comp_time);
    w.f64(b.collective_time);
    w.f64(b.stream_comm_time);
    w.f64(b.exposed_comm);
    w.f64(b.tail_latency);
    w.f64(b.d2d_link_bytes);
    w.f64(b.dram_bytes);
    w.f64(b.flops);
    w.f64(b.bw_utilization);
    w.i64(b.schedule_lowerings);
    w.i64(b.schedule_cache_hits);
}

cost::OpCostBreakdown
getBreakdown(ByteReader &r)
{
    cost::OpCostBreakdown b;
    b.feasible = r.u8() != 0;
    b.fwd_time = r.f64();
    b.bwd_time = r.f64();
    b.step_comm_time = r.f64();
    b.comp_time = r.f64();
    b.collective_time = r.f64();
    b.stream_comm_time = r.f64();
    b.exposed_comm = r.f64();
    b.tail_latency = r.f64();
    b.d2d_link_bytes = r.f64();
    b.dram_bytes = r.f64();
    b.flops = r.f64();
    b.bw_utilization = r.f64();
    b.schedule_lowerings = r.i64();
    b.schedule_cache_hits = r.i64();
    return b;
}

void
putReport(ByteWriter &w, const sim::PerfReport &p)
{
    w.u8(p.feasible ? 1 : 0);
    w.u8(p.oom ? 1 : 0);
    w.f64(p.step_time);
    w.f64(p.comp_time);
    w.f64(p.collective_time);
    w.f64(p.stream_comm_time);
    w.f64(p.exposed_comm);
    w.f64(p.reshard_time);
    w.f64(p.bubble_time);
    w.f64(p.grad_sync_time);
    w.f64(p.grad_sync_collective_time);
    w.f64(p.grad_sync_link_bytes);
    w.i32(p.grad_accum);
    w.u8(p.recompute ? 1 : 0);
    w.f64(p.tail_latency);
    w.f64(p.peak_mem_bytes);
    w.u32(static_cast<std::uint32_t>(p.peak_footprint.bytes.size()));
    for (double bytes : p.peak_footprint.bytes)
        w.f64(bytes);
    w.f64(p.energy.compute_j);
    w.f64(p.energy.dram_j);
    w.f64(p.energy.d2d_j);
    w.f64(p.energy.static_j);
    w.f64(p.avg_power_w);
    w.f64(p.power_efficiency);
    w.f64(p.bw_utilization);
    w.f64(p.total_flops);
    w.f64(p.throughput_tokens_per_s);
    w.i64(p.schedule_lowerings);
    w.i64(p.schedule_cache_hits);
    w.str(p.strategy_desc);
}

sim::PerfReport
getReport(ByteReader &r)
{
    sim::PerfReport p;
    p.feasible = r.u8() != 0;
    p.oom = r.u8() != 0;
    p.step_time = r.f64();
    p.comp_time = r.f64();
    p.collective_time = r.f64();
    p.stream_comm_time = r.f64();
    p.exposed_comm = r.f64();
    p.reshard_time = r.f64();
    p.bubble_time = r.f64();
    p.grad_sync_time = r.f64();
    p.grad_sync_collective_time = r.f64();
    p.grad_sync_link_bytes = r.f64();
    p.grad_accum = r.i32();
    p.recompute = r.u8() != 0;
    p.tail_latency = r.f64();
    p.peak_mem_bytes = r.f64();
    // A MemClass-count mismatch means the writer's memory taxonomy
    // differs from ours: the report cannot be represented here.
    if (r.u32() != p.peak_footprint.bytes.size()) {
        r.fail();
        return p;
    }
    for (double &bytes : p.peak_footprint.bytes)
        bytes = r.f64();
    p.energy.compute_j = r.f64();
    p.energy.dram_j = r.f64();
    p.energy.d2d_j = r.f64();
    p.energy.static_j = r.f64();
    p.avg_power_w = r.f64();
    p.power_efficiency = r.f64();
    p.bw_utilization = r.f64();
    p.total_flops = r.f64();
    p.throughput_tokens_per_s = r.f64();
    p.schedule_lowerings = r.i64();
    p.schedule_cache_hits = r.i64();
    p.strategy_desc = r.str();
    return p;
}

std::string
encodeBreakdownSection(const MemoBlock &block)
{
    ByteWriter w;
    w.u64(block.breakdowns.size());
    for (const auto &[key, breakdown] : block.breakdowns) {
        w.str(key);
        putBreakdown(w, breakdown);
    }
    return w.take();
}

std::string
encodeStepSection(const MemoBlock &block)
{
    ByteWriter w;
    w.u64(block.step_reports.size());
    for (const auto &[key, report] : block.step_reports) {
        w.str(key);
        putReport(w, report);
    }
    return w.take();
}

/// Frames one section: tag, payload size, checksum, payload bytes.
void
putSection(ByteWriter &w, std::uint32_t tag, const std::string &payload)
{
    w.u32(tag);
    w.u64(payload.size());
    w.u64(fnv1aBytes(payload.data(), payload.size()));
    for (char c : payload)
        w.u8(static_cast<std::uint8_t>(c));
}

/**
 * Unframes one section: checks the tag, carves the payload out of the
 * outer reader and verifies its checksum. Returns a reader over the
 * payload; any failure poisons the outer reader.
 */
ByteReader
getSection(ByteReader &r, std::uint32_t expected_tag)
{
    const std::uint32_t tag = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint64_t checksum = r.u64();
    if (tag != expected_tag || size > r.remaining()) {
        r.fail();
        return ByteReader(nullptr, 0);
    }
    // Carve the payload span out of the outer buffer (no copy).
    const char *base = r.skip(size);
    if (base == nullptr ||
        fnv1aBytes(base, size) != checksum) {
        r.fail();
        return ByteReader(nullptr, 0);
    }
    return ByteReader(base, size);
}

bool
decodeBlock(ByteReader &r, MemoBlock *block)
{
    block->framework_key = r.str();

    ByteReader brkd = getSection(r, kTagBreakdowns);
    const std::uint64_t n_breakdowns = brkd.u64();
    // One breakdown entry is at least its fixed fields plus the key's
    // length prefix.
    if (!plausibleCount(n_breakdowns, 4 + 1 + 12 * 8 + 2 * 8, brkd))
        return false;
    block->breakdowns.reserve(n_breakdowns);
    for (std::uint64_t i = 0; i < n_breakdowns && brkd.ok(); ++i) {
        std::string key = brkd.str();
        block->breakdowns.emplace_back(std::move(key),
                                       getBreakdown(brkd));
    }
    if (!brkd.ok() || !brkd.atEnd() || !r.ok())
        return false;

    ByteReader step = getSection(r, kTagStepReports);
    const std::uint64_t n_reports = step.u64();
    if (!plausibleCount(n_reports, 4 + 3 + 10 * 8, step))
        return false;
    block->step_reports.reserve(n_reports);
    for (std::uint64_t i = 0; i < n_reports && step.ok(); ++i) {
        std::string key = step.str();
        block->step_reports.emplace_back(std::move(key),
                                         getReport(step));
    }
    return step.ok() && step.atEnd() && r.ok();
}

}  // namespace

std::uint64_t
contractFingerprint()
{
    // Only properties that would make persisted bit patterns
    // non-portable: the contract revision, double width, byte order
    // and the MemClass taxonomy size. Runtime SIMD mode and thread
    // count are excluded by design — the kernels guarantee
    // bit-identical values across them.
    std::uint64_t hash = fnv1aBytes("temp-persist-contract-v1", 24);
    const std::uint8_t probe[3] = {
        static_cast<std::uint8_t>(sizeof(double)),
        static_cast<std::uint8_t>(
            std::endian::native == std::endian::little ? 1 : 2),
        static_cast<std::uint8_t>(mem::MemoryFootprint{}.bytes.size()),
    };
    return fnv1aBytes(probe, sizeof(probe), hash);
}

std::string
encodeSnapshot(const Snapshot &snapshot)
{
    ByteWriter w;
    for (char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kFormatVersion);
    w.u64(contractFingerprint());
    w.u32(static_cast<std::uint32_t>(snapshot.blocks.size()));
    for (const MemoBlock &block : snapshot.blocks) {
        w.str(block.framework_key);
        putSection(w, kTagBreakdowns, encodeBreakdownSection(block));
        putSection(w, kTagStepReports, encodeStepSection(block));
    }
    return w.take();
}

bool
decodeSnapshot(const std::string &bytes, Snapshot *out,
               std::string *error)
{
    out->blocks.clear();
    auto failed = [&](const char *why) {
        out->blocks.clear();
        if (error != nullptr)
            *error = why;
        return false;
    };

    ByteReader r(bytes);
    char magic[8] = {};
    for (char &c : magic)
        c = static_cast<char>(r.u8());
    if (!r.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return failed("bad magic (not a TEMP snapshot)");
    if (r.u32() != kFormatVersion)
        return failed("format version mismatch");
    if (r.u64() != contractFingerprint())
        return failed("numeric-contract fingerprint mismatch");
    const std::uint32_t n_blocks = r.u32();
    if (!r.ok() || !plausibleCount(n_blocks, 4 + 3 * (4 + 8 + 8), r))
        return failed("truncated snapshot header");
    out->blocks.resize(n_blocks);
    for (std::uint32_t i = 0; i < n_blocks; ++i) {
        if (!decodeBlock(r, &out->blocks[i]))
            return failed("corrupt snapshot block (checksum or "
                          "structure mismatch)");
    }
    if (!r.atEnd())
        return failed("trailing bytes after last block");
    return true;
}

bool
saveSnapshotFile(const std::string &path, const Snapshot &snapshot,
                 std::string *error)
{
    const std::string bytes = encodeSnapshot(snapshot);
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        if (error != nullptr)
            *error = "cannot open " + tmp + " for writing";
        return false;
    }
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
    const bool closed = std::fclose(file) == 0;
    if (!written || !closed) {
        std::remove(tmp.c_str());
        if (error != nullptr)
            *error = "short write to " + tmp;
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (error != nullptr)
            *error = "cannot rename " + tmp + " to " + path;
        return false;
    }
    return true;
}

bool
loadSnapshotFile(const std::string &path, Snapshot *out,
                 std::string *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    std::string bytes;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        bytes.append(buf, n);
    const bool read_ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!read_ok) {
        if (error != nullptr)
            *error = "read error on " + path;
        return false;
    }
    return decodeSnapshot(bytes, out, error);
}

}  // namespace temp::persist
