/**
 * @file
 * Content-keyed cache of lowered collective schedules.
 *
 * Every (op, strategy) cost query lowers its collective tasks into
 * CommSchedules — ring rounds, memoized routes, payload accounting. The
 * same tasks recur millions of times across a DP matrix fill, refiner
 * fitness simulations and repeat solves, so the lowering is memoized
 * here on the task's content signature (kind, group, bytes, tag).
 *
 * Fault handling: routes bake the fault state in, so entries are valid
 * only until the wafer's faults change. The owner's fault listener
 * calls clear() (the cost model's does, with Router::newEpoch()); no
 * lookup compares fault state.
 *
 * Eviction: setMaxEntries() bounds the cache between fault changes
 * (long-lived services sweep many task signatures through one fault
 * state).
 * The store is an LRU per shard; evicted tasks simply re-lower on
 * return and recount as lowerings, so results stay bit-identical under
 * any budget. Default 0 = unbounded, the historical behaviour.
 *
 * Concurrency: the store is sharded by the signature hash. An
 * unbounded hit takes only its shard's shared lock and bumps only that
 * shard's counters. A miss marks its key in flight and lowers outside
 * any lock; concurrent askers of that key wait on the lowering's state
 * word and count a hit, so a task is still lowered exactly once per
 * fault state.
 *
 * Cached schedules are shared immutable snapshots: consumers that
 * mutate (the traffic optimizer rewrites routes in place) must copy
 * first. Flows are trivially copyable, and each cached schedule keeps
 * its route epoch's storage alive, so a schedule stays readable
 * after a fault swap for as long as the caller holds it.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/bounded_cache.hpp"
#include "net/collective.hpp"

namespace temp::net {

/// Cumulative cache counters. `lowerings + hits` equals the lookups
/// issued; a task is lowered exactly once per fault state (eviction
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
    /// Allocates nothing: the shard table is built on the first lookup.
    explicit ScheduleCache(const CollectiveScheduler &scheduler);

    /**
     * Returns the (possibly cached) lowering of a task. Unbounded hits
     * take their shard's lock shared and allocate nothing; bounded
     * hits take it exclusive to refresh LRU order. A
     * miss lowers outside the lock while other askers of the same task
     * wait for it, so a task is lowered exactly once regardless of
     * thread count and the lowerings counter stays deterministic.
     */
    std::shared_ptr<const CommSchedule> lowered(const CollectiveTask &task);

    /**
     * Cumulative counters since construction (survive clear() and
     * evictions), summed over the shards. Hits are read before
     * lowerings: a hit on a task another thread lowered is counted
     * after that lowering, so a snapshot never shows the hit without
     * its lowering.
     */
    ScheduleCacheStats stats() const;

    /// Governance counters (entries/bytes gauges, hit/miss/eviction
    /// totals) for CacheStatsRequest reporting.
    common::CacheStats cacheStats() const;

    /**
     * Entry budget (0 = unbounded). Set before
     * the first lookup, it makes the table a single shard, one LRU
     * over the whole budget. A re-budget after the first lookup keeps
     * the shard count and splits the budget over the shards, each
     * keeping at least one entry.
     */
    void setMaxEntries(std::size_t max_entries);

    /// Byte budget (0 = unbounded), over the
    /// honest per-entry estimate (key + arena; the group belongs to the
    /// topology's table); composes with the entry budget like it.
    void setMaxBytes(long max_bytes);

    /// Drops every entry and in-flight mark, and the held route
    /// epoch; counters survive. Called when the fault state changes.
    void clear();

    /// Entries currently cached.
    std::size_t size() const;

    const CollectiveScheduler &scheduler() const { return scheduler_; }

  private:
    /// The task signature: a flat value (the group is an interned
    /// handle, so equal content means an equal pointer) with a hash
    /// computed from the content.
    struct Key
    {
        CollectiveKind kind;
        int tag;
        std::uint64_t bytes_bits;  ///< bit pattern of the double
        const hw::DieGroup *group;
        std::size_t hash;

        bool operator==(const Key &other) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const { return key.hash; }
    };

    using Schedule = std::shared_ptr<const CommSchedule>;

    /// One lowering, shared by the cache entry and its waiters: the
    /// schedule plus the route storage it reads. Readable once `state`
    /// leaves kLowering.
    struct Lowering
    {
        static constexpr int kLowering = 0;
        static constexpr int kReady = 1;
        static constexpr int kFailed = 2;

        CommSchedule schedule;
        std::shared_ptr<const RouteEpoch> routes;
        std::atomic<int> state{kLowering};
        std::exception_ptr error;  ///< set before kFailed
    };

    /// One slice of the store. Aligned so shards never share a cache
    /// line: the hit path writes its shard's lock and counters only.
    struct alignas(64) Shard
    {
        /// Unbounded hits read-lock; bounded hits, misses, budget
        /// changes and clear() write-lock.
        mutable std::shared_mutex mutex;
        /// Bumped by every clear(), so a lowering that outlived one
        /// leaves the new contents alone.
        std::uint64_t generation = 0;
        /// The router's current route storage, fetched on the shard's
        /// first miss after a clear(); each entry copies the reference,
        /// so a lowering does not take the router's lock.
        std::shared_ptr<const RouteEpoch> routes;
        common::LruMap<Key, Schedule, KeyHash> map;
        /// Keys being lowered (at most one per thread, so a scan beats
        /// a map), each with the lowering its waiters block on.
        std::vector<std::pair<Key, std::shared_ptr<Lowering>>> in_flight;
        std::atomic<long> lowerings{0};
        std::atomic<long> hits{0};
    };

    /// The shard of a signature hash, building the table on first use.
    Shard &shardFor(std::size_t hash);
    /// The built shards (empty before the first lookup).
    std::span<Shard> shards() const;
    /// Splits the budgets over the shards. Caller holds budget_mutex_.
    void applyBudgetsLocked();

    const CollectiveScheduler &scheduler_;
    std::once_flag shards_once_;
    std::unique_ptr<Shard[]> shards_;
    std::atomic<std::size_t> shard_count_{0};
    /// Serialises re-budgeting with the table build.
    std::mutex budget_mutex_;
    /// The budgets, readable without a lock (the hit path branches on
    /// boundedness before locking).
    std::atomic<std::size_t> max_entries_{0};
    std::atomic<long> max_bytes_{0};
};

}  // namespace temp::net
