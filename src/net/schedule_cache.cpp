#include "net/schedule_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace temp::net {

namespace {

/// Shards of an unbudgeted cache: a few per core on the hosts this
/// runs on, so concurrent lookups rarely meet on one lock.
constexpr std::size_t kShards = 16;

/// Content hash of a task signature: the group enters through its
/// content hash, never its address.
std::size_t
hashSignature(CollectiveKind kind, int tag, std::uint64_t bytes_bits,
              const hw::DieGroup &group)
{
    using common::fnv1aValue;
    std::uint64_t hash =
        fnv1aValue(common::kFnvOffset, static_cast<std::uint64_t>(kind));
    hash = fnv1aValue(
        hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
    hash = fnv1aValue(hash, bytes_bits);
    hash = fnv1aValue(hash, group.hash);
    return static_cast<std::size_t>(hash);
}

}  // namespace

ScheduleCache::ScheduleCache(const CollectiveScheduler &scheduler)
    : scheduler_(scheduler)
{
}

ScheduleCache::Shard &
ScheduleCache::shardFor(std::size_t hash)
{
    std::call_once(shards_once_, [this] {
        std::lock_guard<std::mutex> lock(budget_mutex_);
        // A budgeted cache keeps one shard: its hits take the exclusive
        // lock anyway, one LRU over the whole budget keeps the hit rate
        // of the unsharded cache (16 slices of a 24-entry budget hit
        // 0.24 where one LRU hits 0.56 in bench_net_hotpath), and the
        // budget stays exact.
        const bool budgeted = max_entries_.load() > 0 || max_bytes_.load() > 0;
        const std::size_t count = budgeted ? 1 : kShards;
        shards_ = std::make_unique<Shard[]>(count);
        for (std::size_t i = 0; i < count; ++i)
            shards_[i].map.setByteEstimate(
                [](const Key &, const Schedule &s) {
                    return static_cast<long>(sizeof(Key) +
                                             sizeof(CommSchedule) +
                                             s->byteEstimate());
                });
        shard_count_.store(count, std::memory_order_release);
        applyBudgetsLocked();
    });
    const std::size_t count = shard_count_.load(std::memory_order_relaxed);
    return shards_[(hash ^ (hash >> 32)) % count];
}

std::span<ScheduleCache::Shard>
ScheduleCache::shards() const
{
    // The count is published after the table: read it first.
    const std::size_t count = shard_count_.load(std::memory_order_acquire);
    if (count == 0)
        return {};
    return {shards_.get(), count};
}

void
ScheduleCache::applyBudgetsLocked()
{
    const std::span<Shard> all = shards();
    const long n = static_cast<long>(all.size());
    const long entries = static_cast<long>(max_entries_.load());
    const long bytes = max_bytes_.load();
    // Slices sum to the total; a nonzero total never hands a shard a
    // 0 (= unbounded) slice.
    const auto slice = [n](long total, long i) {
        return total == 0 ? 0 : std::max(total / n + (i < total % n), 1L);
    };
    for (long i = 0; i < n; ++i) {
        Shard &shard = all[static_cast<std::size_t>(i)];
        std::unique_lock<std::shared_mutex> lock(shard.mutex);
        shard.map.setCapacity(static_cast<std::size_t>(slice(entries, i)));
        shard.map.setMaxBytes(slice(bytes, i));
    }
}

std::shared_ptr<const CommSchedule>
ScheduleCache::lowered(const CollectiveTask &task, bool *hit)
{
    if (task.group == nullptr)
        panic("ScheduleCache::lowered: task without a group");
    const std::uint64_t bytes_bits = std::bit_cast<std::uint64_t>(task.bytes);
    const Key key{task.kind, task.tag, bytes_bits, task.group,
                  hashSignature(task.kind, task.tag, bytes_bits,
                                *task.group)};
    Shard &shard = shardFor(key.hash);
    const auto served = [&](Schedule schedule) {
        ++shard.hits;
        if (hit != nullptr)
            *hit = true;
        return schedule;
    };

    // Hit path. Unbounded: shared lock, no allocation, no recency
    // maintenance. Bounded (by entries or bytes): the same probe under
    // the exclusive lock so the LRU order stays truthful.
    if (max_entries_.load(std::memory_order_relaxed) == 0 &&
        max_bytes_.load(std::memory_order_relaxed) == 0) {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        if (const Schedule *cached = shard.map.peek(key))
            return served(*cached);
    }

    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    if (Schedule *cached = shard.map.touch(key))
        return served(*cached);
    for (const auto &[pending_key, pending] : shard.in_flight) {
        if (!(pending_key == key))
            continue;
        // Another thread is lowering this task: wait for its result.
        const std::shared_ptr<Lowering> lowering = pending;
        lock.unlock();
        lowering->state.wait(Lowering::kLowering, std::memory_order_acquire);
        if (lowering->state.load(std::memory_order_acquire) ==
            Lowering::kFailed)
            std::rethrow_exception(lowering->error);
        return served(Schedule(lowering, &lowering->schedule));
    }

    // Miss: mark the key in flight and lower outside the lock. The
    // lowering holds its route epoch's storage, so the schedule stays
    // readable after a fault swap for as long as a caller holds it.
    auto lowering = std::make_shared<Lowering>();
    const std::uint64_t generation = shard.generation;
    shard.in_flight.emplace_back(key, lowering);
    if (shard.routes == nullptr)
        shard.routes = scheduler_.router().routeEpoch();
    lowering->routes = shard.routes;
    lock.unlock();

    try {
        lowering->schedule = scheduler_.schedule(task);
    } catch (...) {
        lowering->error = std::current_exception();
    }

    lock.lock();
    // A clear() while lowering dropped the in-flight mark with the
    // rest of the contents: hand the result to this lookup's waiters
    // only.
    std::erase_if(shard.in_flight, [&](const auto &entry) {
        return entry.second == lowering;
    });
    const Schedule schedule(lowering, &lowering->schedule);
    if (lowering->error == nullptr) {
        ++shard.lowerings;
        if (shard.generation == generation)
            shard.map.insert(key, schedule);
    }
    lock.unlock();
    lowering->state.store(lowering->error == nullptr ? Lowering::kReady
                                                     : Lowering::kFailed,
                          std::memory_order_release);
    lowering->state.notify_all();
    if (lowering->error != nullptr)
        std::rethrow_exception(lowering->error);
    if (hit != nullptr)
        *hit = false;
    return schedule;
}

ScheduleCacheStats
ScheduleCache::stats() const
{
    ScheduleCacheStats total;
    for (const Shard &shard : shards()) {
        total.hits += shard.hits.load();
        total.lowerings += shard.lowerings.load();
    }
    return total;
}

common::CacheStats
ScheduleCache::cacheStats() const
{
    common::CacheStats stats;
    for (const Shard &shard : shards()) {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        stats.entries += static_cast<long>(shard.map.size());
        stats.bytes_est += shard.map.bytesEstimate();
        stats.hits += shard.hits.load();
        stats.misses += shard.lowerings.load();
        stats.evictions += shard.map.evictions();
    }
    return stats;
}

void
ScheduleCache::setMaxEntries(std::size_t max_entries)
{
    std::lock_guard<std::mutex> lock(budget_mutex_);
    max_entries_.store(max_entries);
    applyBudgetsLocked();
}

void
ScheduleCache::setMaxBytes(long max_bytes)
{
    std::lock_guard<std::mutex> lock(budget_mutex_);
    max_bytes_.store(max_bytes > 0 ? max_bytes : 0);
    applyBudgetsLocked();
}

void
ScheduleCache::clear()
{
    for (Shard &shard : shards()) {
        std::unique_lock<std::shared_mutex> lock(shard.mutex);
        shard.map.clear();
        shard.in_flight.clear();
        shard.routes.reset();
        ++shard.generation;
    }
}

std::size_t
ScheduleCache::size() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards()) {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

}  // namespace temp::net
