#include "persist/snapshot.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <span>

#include "persist/codec.hpp"

namespace temp::persist {

namespace {

constexpr char kMagic[8] = {'T', 'E', 'M', 'P', 'S', 'N', 'P', '\x01'};

// Section tags read as their ASCII name in a little-endian hex dump.
constexpr std::uint32_t kTagCells = 0x4c4c4543;        // "CELL"
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

/// @{ The doubles of each persisted value, in file order; const or
/// mutable, so one list drives both the writer and the reader.
template <typename B>
auto
breakdownDoubles(B &b)
{
    return std::array{&b.fwd_time,        &b.bwd_time,
                      &b.step_comm_time,  &b.comp_time,
                      &b.collective_time, &b.stream_comm_time,
                      &b.exposed_comm,    &b.tail_latency,
                      &b.d2d_link_bytes,  &b.dram_bytes,
                      &b.flops,           &b.bw_utilization};
}

template <typename C>
auto
cellDoubles(C &c)
{
    return std::array{&c.comm_bytes,      &c.step.time_s,
                      &c.step.bytes,      &c.step.utilization,
                      &c.step.link_bytes, &c.activation_bytes};
}

template <typename P>
auto
reportDoubles(P &p)
{
    return std::array{&p.step_time,
                      &p.comp_time,
                      &p.collective_time,
                      &p.stream_comm_time,
                      &p.exposed_comm,
                      &p.reshard_time,
                      &p.bubble_time,
                      &p.grad_sync_time,
                      &p.grad_sync_collective_time,
                      &p.grad_sync_link_bytes,
                      &p.tail_latency,
                      &p.peak_mem_bytes,
                      &p.energy.compute_j,
                      &p.energy.dram_j,
                      &p.energy.d2d_j,
                      &p.energy.static_j,
                      &p.avg_power_w,
                      &p.power_efficiency,
                      &p.bw_utilization,
                      &p.total_flops,
                      &p.throughput_tokens_per_s};
}
/// @}

template <std::size_t N>
void
putDoubles(ByteWriter &w, const std::array<const double *, N> &values)
{
    for (const double *v : values)
        w.f64(*v);
}

template <std::size_t N>
void
getDoubles(ByteReader &r, const std::array<double *, N> &values)
{
    for (double *v : values)
        *v = r.f64();
}

void
putFootprint(ByteWriter &w, const mem::MemoryFootprint &footprint)
{
    w.u32(static_cast<std::uint32_t>(footprint.bytes.size()));
    for (double bytes : footprint.bytes)
        w.f64(bytes);
}

/// A MemClass-count mismatch means the writer's memory taxonomy differs
/// from ours: the value cannot be represented here.
void
getFootprint(ByteReader &r, mem::MemoryFootprint &footprint)
{
    if (r.u32() != footprint.bytes.size())
        r.fail();
    for (double &bytes : footprint.bytes)
        bytes = r.f64();
}

void
putBreakdown(ByteWriter &w, const cost::OpCostBreakdown &b)
{
    w.u8(b.feasible ? 1 : 0);
    putDoubles(w, breakdownDoubles(b));
}

cost::OpCostBreakdown
getBreakdown(ByteReader &r)
{
    cost::OpCostBreakdown b;
    b.feasible = r.u8() != 0;
    getDoubles(r, breakdownDoubles(b));
    return b;
}

using CellEntry = std::pair<cost::OpCellKey, cost::OpCell>;
using StepEntry = std::pair<std::string, sim::PerfReport>;

/// Writes one cell; `groups` numbers the block's groups in file order.
void
putCell(ByteWriter &w, const CellEntry &entry, hw::DieGroupTable &groups)
{
    const auto &[key, cell] = entry;
    w.u64(key.graph_fp);
    w.i32(key.op_index);
    for (int degree : {key.spec.dp, key.spec.fsdp, key.spec.tp, key.spec.sp,
                       key.spec.cp, key.spec.tatp, key.spec.pp})
        w.i32(degree);
    w.u8(key.spec.coupled_sp ? 1 : 0);
    putBreakdown(w, cell.breakdown);
    putDoubles(w, cellDoubles(cell));
    putFootprint(w, cell.footprint);
    w.u32(static_cast<std::uint32_t>(cell.step_tasks.size()));
    for (const net::CollectiveTask &task : cell.step_tasks) {
        w.u32(static_cast<std::uint32_t>(task.kind));
        w.i32(task.tag);
        w.f64(task.bytes);
        w.u32(groups.intern(task.group->dies)->index);
    }
}

/// Decodes one cell; a collective kind past the last one, a group index
/// past the block's groups or a MemClass-count mismatch poisons the
/// reader.
CellEntry
getCell(ByteReader &r, std::span<const hw::DieGroup *const> groups)
{
    CellEntry entry;
    cost::OpCellKey &key = entry.first;
    key.graph_fp = r.u64();
    key.op_index = r.i32();
    parallel::ParallelSpec &spec = key.spec;
    for (int *degree : {&spec.dp, &spec.fsdp, &spec.tp, &spec.sp, &spec.cp,
                        &spec.tatp, &spec.pp})
        *degree = r.i32();
    spec.coupled_sp = r.u8() != 0;
    cost::OpCell &cell = entry.second;
    cell.breakdown = getBreakdown(r);
    getDoubles(r, cellDoubles(cell));
    getFootprint(r, cell.footprint);
    const std::uint32_t n_tasks = r.u32();
    if (!plausibleCount(n_tasks, 4 + 4 + 8 + 4, r))
        r.fail();
    else
        cell.step_tasks.reserve(n_tasks);
    for (std::uint32_t t = 0; t < n_tasks && r.ok(); ++t) {
        net::CollectiveTask task;
        const std::uint32_t kind = r.u32();
        if (kind > static_cast<std::uint32_t>(net::CollectiveKind::P2P))
            r.fail();
        task.kind = static_cast<net::CollectiveKind>(kind);
        task.tag = r.i32();
        task.bytes = r.f64();
        const std::uint32_t group = r.u32();
        if (group >= groups.size()) {
            r.fail();
            break;
        }
        task.group = groups[group];
        cell.step_tasks.push_back(task);
    }
    return entry;
}

/// The CELL payload: the distinct groups the cells' step tasks name,
/// once each in order of first use, then the cells, each task naming
/// its group by index. Interning into a fresh table numbers the groups
/// by content in cell order, never by the block's table, so the bytes
/// are as stable as the cell order.
std::string
encodeCells(const std::vector<CellEntry> &cells)
{
    hw::DieGroupTable groups;
    std::vector<const hw::DieGroup *> listed;
    for (const auto &[key, cell] : cells)
        for (const net::CollectiveTask &task : cell.step_tasks)
            if (const hw::DieGroup *group = groups.intern(task.group->dies);
                group->index == listed.size())
                listed.push_back(group);
    ByteWriter w;
    w.u64(listed.size());
    for (const hw::DieGroup *group : listed) {
        w.u32(static_cast<std::uint32_t>(group->size()));
        for (hw::DieId die : group->dies)
            w.i32(die);
    }
    w.u64(cells.size());
    for (const CellEntry &entry : cells)
        putCell(w, entry, groups);
    return w.take();
}

/// Decodes the CELL payload's groups, interning each in `table`; a
/// negative die id or a group listed twice poisons the reader.
std::vector<const hw::DieGroup *>
getGroups(ByteReader &r, hw::DieGroupTable &table)
{
    std::vector<const hw::DieGroup *> groups;
    const std::uint64_t count = r.u64();
    if (!plausibleCount(count, 4, r)) {
        r.fail();
        return groups;
    }
    groups.reserve(count);
    std::vector<hw::DieId> dies;
    for (std::uint64_t g = 0; g < count && r.ok(); ++g) {
        const std::uint32_t n_dies = r.u32();
        if (!plausibleCount(n_dies, 4, r))
            r.fail();
        dies.clear();
        for (std::uint32_t d = 0; d < n_dies && r.ok(); ++d) {
            const hw::DieId die = r.i32();
            if (die < 0)
                r.fail();
            dies.push_back(die);
        }
        groups.push_back(table.intern(dies));
        if (table.size() != groups.size())
            r.fail();  // a repeated group
    }
    return groups;
}

void
putStep(ByteWriter &w, const StepEntry &entry)
{
    const sim::PerfReport &p = entry.second;
    w.str(entry.first);
    w.u8(p.feasible ? 1 : 0);
    w.u8(p.oom ? 1 : 0);
    w.u8(p.recompute ? 1 : 0);
    w.i32(p.grad_accum);
    putDoubles(w, reportDoubles(p));
    putFootprint(w, p.peak_footprint);
    w.str(p.strategy_desc);
}

StepEntry
getStep(ByteReader &r)
{
    StepEntry entry{r.str(), {}};
    sim::PerfReport &p = entry.second;
    p.feasible = r.u8() != 0;
    p.oom = r.u8() != 0;
    p.recompute = r.u8() != 0;
    p.grad_accum = r.i32();
    getDoubles(r, reportDoubles(p));
    getFootprint(r, p.peak_footprint);
    p.strategy_desc = r.str();
    return entry;
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

/// Decodes the rest of a section into `entries`. A count the payload
/// cannot hold (no entry is shorter than `min_entry_bytes`), a
/// poisoned entry or trailing bytes fail it.
template <typename Entry, typename Get>
bool
decodeEntries(ByteReader &section, std::size_t min_entry_bytes, Get get,
              std::vector<Entry> &entries)
{
    const std::uint64_t count = section.u64();
    if (!plausibleCount(count, min_entry_bytes, section))
        return false;
    entries.reserve(count);
    for (std::uint64_t i = 0; i < count && section.ok(); ++i)
        entries.push_back(get(section));
    return section.ok() && section.atEnd();
}

bool
decodeBlock(ByteReader &r, MemoBlock *block)
{
    block->framework_key = r.str();
    block->groups = std::make_shared<hw::DieGroupTable>();
    ByteReader cells = getSection(r, kTagCells);
    ByteReader steps = getSection(r, kTagStepReports);
    const std::vector<const hw::DieGroup *> groups =
        getGroups(cells, *block->groups);
    // A cell is at least its key, breakdown, fixed fields and two
    // counts; a step entry at least its key's length, flags and a
    // handful of doubles.
    return r.ok() &&
           decodeEntries(cells, 8 + 4 + 7 * 4 + 1 + (1 + 12 * 8) + 6 * 8 +
                                    2 * 4,
                         [&](ByteReader &in) { return getCell(in, groups); },
                         block->cells) &&
           decodeEntries(steps, 4 + 3 + 10 * 8, getStep,
                         block->step_reports);
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
        putSection(w, kTagCells, encodeCells(block.cells));
        ByteWriter steps;
        steps.u64(block.step_reports.size());
        for (const StepEntry &entry : block.step_reports)
            putStep(steps, entry);
        putSection(w, kTagStepReports, steps.take());
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
