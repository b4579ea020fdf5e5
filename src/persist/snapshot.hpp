/**
 * @file
 * The persistent memo tier: content-addressed warm-start snapshots.
 *
 * A snapshot is the on-disk image of the memo stack a long-lived
 * TempService accumulates — the cost model's op cells and full-step
 * report memos — keyed by the same content keys the live caches use,
 * so a fresh process imports it and serves repeat work without
 * re-measuring (the restart counterpart of the in-process framework
 * cache).
 *
 * File layout (all integers little-endian; see codec.hpp):
 *
 *   magic   "TEMPSNP\x01"                      8 bytes
 *   u32     format version (kFormatVersion)
 *   u64     contract fingerprint (kernel/SIMD numeric contract)
 *   u32     block count
 *   blocks  repeated:
 *     str   framework key  (api::frameworkKey: wafer + options)
 *     2 sections, each:
 *       u32  section tag ('CELL' | 'STEP')
 *       u64  payload size
 *       u64  FNV-1a checksum of the payload
 *       payload bytes
 *
 * One block per framework: op cells (under graph fingerprint, op index
 * and spec) and step reports (under their content keys) are persisted
 * by value; cells import into the importing framework's memo. The CELL
 * payload lists the die groups its step tasks name once each, and each
 * task names its group by index. Lowered
 * schedules are not persisted: a warm answer reads none (a cell
 * carries its own timed step phase), and a cold cell after a warm
 * start lowers on demand under the live fault state.
 *
 * Validation contract: decode verifies magic, version, contract
 * fingerprint, per-section checksums, exact payload consumption, the
 * group list (non-negative die ids, no group twice) and every cell's
 * collective kinds and group indices (the import then checks the die
 * ids against the importing wafer).
 * Any mismatch — truncation, bit flips, a snapshot written by an
 * incompatible build — fails the whole load; callers degrade to a cold
 * start and bump a counter. A valid snapshot from a *different wafer*
 * simply carries framework keys no request ever matches: it stages
 * harmlessly and the process cold-starts, never imports wrong values.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.hpp"
#include "sim/perf_report.hpp"

namespace temp::persist {

/// Format version; bump on any layout change or any change to the
/// byte form of a block key (old files cold-start).
inline constexpr std::uint32_t kFormatVersion = 7;

/// The serialized memo contents of one framework, addressed by the
/// same canonical key the service's framework cache uses.
struct MemoBlock
{
    std::string framework_key;
    /// Op-cell memo: (graph fingerprint, op, spec) -> cell, by value.
    std::vector<std::pair<cost::OpCellKey, cost::OpCell>> cells;
    /**
     * The die groups the cells' step tasks name. Groups are interned
     * per topology (hw/die_group.hpp) and a block outlives any wafer,
     * so a block owns its own table, shared by its copies: decode
     * interns each listed group there, and the import re-interns each
     * distinct group once into the importing wafer's table. Null when
     * no cell has a step task.
     */
    std::shared_ptr<hw::DieGroupTable> groups;
    /// StepEvaluator memo: stepKey -> report, by value.
    std::vector<std::pair<std::string, sim::PerfReport>> step_reports;

    bool empty() const
    {
        return cells.empty() && step_reports.empty();
    }
};

/// A full snapshot: one block per framework the process had warm.
struct Snapshot
{
    std::vector<MemoBlock> blocks;
};

/**
 * Fingerprint of the numeric contract a snapshot's values were
 * computed under. The repo's kernels guarantee bit-identical results
 * across SIMD on/off and thread counts, so runtime dispatch state is
 * deliberately *not* part of it — only properties that would make the
 * persisted bit patterns non-portable (double width/format, byte
 * order, the persist contract revision).
 */
std::uint64_t contractFingerprint();

/// Serializes a snapshot to its byte image.
std::string encodeSnapshot(const Snapshot &snapshot);

/**
 * Parses and validates a byte image.
 *
 * @return false with *error describing the first failure (magic,
 *         version, fingerprint, checksum, truncation, a repeated
 *         group, a cell's collective kind or group index or a die id
 *         out of range); *out is left
 *         empty then — a failed load never yields partial contents.
 */
bool decodeSnapshot(const std::string &bytes, Snapshot *out,
                    std::string *error);

/// Writes a snapshot to a file (atomically: temp file + rename, so a
/// crash mid-write never corrupts an existing snapshot).
bool saveSnapshotFile(const std::string &path, const Snapshot &snapshot,
                      std::string *error);

/// Reads and validates a snapshot file.
bool loadSnapshotFile(const std::string &path, Snapshot *out,
                      std::string *error);

}  // namespace temp::persist
