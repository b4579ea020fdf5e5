/**
 * @file
 * Content-keyed cache of lowered collective schedules.
 *
 * Every (op, strategy) cost query lowers its collective tasks into
 * CommSchedules — ring rounds, pooled routes, payload accounting. The
 * same tasks recur millions of times across a DP matrix fill, refiner
 * fitness simulations and repeat solves, so the lowering is memoized
 * here on the task's content signature (kind, group, bytes, tag).
 *
 * Fault handling: entries are valid only for the fault epoch they were
 * lowered under (routes bake the fault state in). The cache stores the
 * epoch of its contents and flushes wholesale when a lookup arrives
 * with a newer epoch — one integer compare per lookup instead of
 * hashing the fault set. flushForEpoch() is the eager twin: the cost
 * model wires it to hw::Wafer's epoch listeners so a setFaults() drops
 * the dead epoch's entries immediately instead of holding them until
 * (unless) a next lookup arrives.
 *
 * Eviction: setMaxEntries() bounds the cache *within* the live epoch
 * (long-lived services sweep many task signatures through one epoch).
 * The store is an LRU; evicted tasks simply re-lower on return and
 * recount as lowerings, so results stay bit-identical under any
 * budget. Default 0 = unbounded, the historical behaviour.
 *
 * Cached schedules are shared immutable snapshots: consumers that
 * mutate (the traffic optimizer rewrites routes in place) must copy
 * first. Flow copies are cheap — routes are pooled RouteRefs.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>

#include "common/bounded_cache.hpp"
#include "net/collective.hpp"

namespace temp::net {

/// Cumulative cache counters. `lowerings + hits` equals the lookups
/// issued; a task is lowered exactly once per fault epoch (eviction
/// under a finite budget honestly recounts a re-lowering).
struct ScheduleCacheStats
{
    long lowerings = 0;  ///< unique schedules lowered (cache misses)
    long hits = 0;       ///< lookups served from the cache

    ScheduleCacheStats operator-(const ScheduleCacheStats &other) const
    {
        return {lowerings - other.lowerings, hits - other.hits};
    }

    /// Hit fraction of all lookups (0 when none were issued).
    double hitRate() const
    {
        const long total = lowerings + hits;
        return total > 0 ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

/// Thread-safe memo of CollectiveTask -> lowered CommSchedule.
class ScheduleCache
{
  public:
    explicit ScheduleCache(const CollectiveScheduler &scheduler);

    /**
     * Returns the (possibly cached) lowering of a task under the given
     * fault epoch. Unbounded hits take the lock shared and allocate
     * nothing (the task is probed through a non-owning key view;
     * bounded hits take it exclusive to refresh LRU order); misses
     * lower under the exclusive lock, so a task is lowered exactly
     * once regardless of thread count and the counters stay
     * deterministic.
     *
     * @param hit Optional out-flag: true when served from the cache.
     */
    std::shared_ptr<const CommSchedule> lowered(const CollectiveTask &task,
                                                std::uint64_t fault_epoch,
                                                bool *hit = nullptr);

    /**
     * Cumulative counters since construction (survive epoch flushes
     * and evictions). Snapshotted under the exclusive lock so the two
     * counters are mutually consistent — two independent atomic loads
     * could tear against a concurrent lookup (hits visible without its
     * sibling lowering), making interval deltas transiently dishonest.
     */
    ScheduleCacheStats stats() const
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        return {lowerings_.load(), hits_.load()};
    }

    /// Governance counters (entries/bytes gauges, hit/miss/eviction
    /// totals) for CacheStatsRequest reporting.
    common::CacheStats cacheStats() const;

    /// Entry budget within the live epoch (0 = unbounded).
    void setMaxEntries(std::size_t max_entries);

    /// Byte budget within the live epoch (0 = unbounded), over the
    /// honest per-entry estimate (key group + arena).
    void setMaxBytes(long max_bytes);

    /**
     * Eagerly drops all entries when `fault_epoch` differs from the
     * contents' epoch (no-op otherwise). Wired to the wafer's epoch
     * listeners so fault-injection sweeps don't retain a dead epoch's
     * schedules between lookups.
     */
    void flushForEpoch(std::uint64_t fault_epoch);

    /// Entries currently cached (current epoch only).
    std::size_t size() const;

    /// Drops all entries (counters are kept).
    void clear();

    const CollectiveScheduler &scheduler() const { return scheduler_; }

  private:
    /// Owning map key: the task signature with its own group copy
    /// (materialized on the miss path only).
    struct Key
    {
        CollectiveKind kind;
        int tag;
        std::uint64_t bytes_bits;  ///< bit pattern of the double
        std::vector<DieId> group;
    };

    /// Non-owning probe key so the hit path never copies the group.
    struct KeyView
    {
        CollectiveKind kind;
        int tag;
        std::uint64_t bytes_bits;
        const std::vector<DieId> *group;
    };

    struct KeyHash
    {
        using is_transparent = void;
        std::size_t operator()(const Key &key) const;
        std::size_t operator()(const KeyView &key) const;
    };

    struct KeyEqual
    {
        using is_transparent = void;
        bool operator()(const Key &a, const Key &b) const;
        bool operator()(const Key &a, const KeyView &b) const;
        bool operator()(const KeyView &a, const Key &b) const;
    };

    const CollectiveScheduler &scheduler_;
    /// Unbounded hits read-lock; bounded hits, misses, budget changes
    /// and epoch flushes write-lock.
    mutable std::shared_mutex mutex_;
    std::uint64_t epoch_ = 0;
    /// Mirrors of the LruMap budgets, readable without the lock (the
    /// hit path branches on boundedness before locking).
    std::atomic<std::size_t> max_entries_{0};
    std::atomic<long> max_bytes_{0};
    common::LruMap<Key, std::shared_ptr<const CommSchedule>, KeyHash,
                   KeyEqual>
        cache_;
    std::atomic<long> lowerings_{0};
    std::atomic<long> hits_{0};
};

}  // namespace temp::net
