#include "net/schedule_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "common/hash.hpp"

namespace temp::net {

namespace {

/// Shards of an unbudgeted cache: a few per core on the hosts this
/// runs on, so concurrent lookups rarely meet on one lock.
constexpr std::size_t kShards = 16;

std::size_t
hashSignature(CollectiveKind kind, int tag, std::uint64_t bytes_bits,
              const std::vector<hw::DieId> &group)
{
    using common::fnv1aValue;
    std::uint64_t hash =
        fnv1aValue(common::kFnvOffset, static_cast<std::uint64_t>(kind));
    hash = fnv1aValue(
        hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
    hash = fnv1aValue(hash, bytes_bits);
    for (hw::DieId die : group)
        hash = fnv1aValue(hash, static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(die)));
    return static_cast<std::size_t>(hash);
}

}  // namespace

bool
ScheduleCache::KeyEqual::operator()(const Key &a, const Key &b) const
{
    return a.hash == b.hash && a.kind == b.kind && a.tag == b.tag &&
           a.bytes_bits == b.bytes_bits && a.group == b.group;
}

bool
ScheduleCache::KeyEqual::operator()(const Key &a, const KeyView &b) const
{
    return a.hash == b.hash && a.kind == b.kind && a.tag == b.tag &&
           a.bytes_bits == b.bytes_bits && a.group == *b.group;
}

bool
ScheduleCache::KeyEqual::operator()(const KeyView &a, const Key &b) const
{
    return (*this)(b, a);
}

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
                [](const Key &key, const Schedule &s) {
                    return static_cast<long>(
                        sizeof(Key) + key.group.capacity() * sizeof(DieId) +
                        sizeof(CommSchedule) + s->byteEstimate());
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
ScheduleCache::lowered(const CollectiveTask &task, std::uint64_t fault_epoch,
                       bool *hit)
{
    const std::uint64_t bytes_bits = std::bit_cast<std::uint64_t>(task.bytes);
    const KeyView view{task.kind, task.tag, bytes_bits, &task.group,
                       hashSignature(task.kind, task.tag, bytes_bits,
                                     task.group)};
    Shard &shard = shardFor(view.hash);
    const auto served = [&](Schedule schedule) {
        ++shard.hits;
        if (hit != nullptr)
            *hit = true;
        return schedule;
    };

    // Hit path. Unbounded: shared lock, non-owning probe, no
    // allocation, no recency maintenance. Bounded (by entries or
    // bytes): the same probe under the exclusive lock so the LRU
    // order stays truthful.
    if (max_entries_.load(std::memory_order_relaxed) == 0 &&
        max_bytes_.load(std::memory_order_relaxed) == 0) {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        if (shard.epoch == fault_epoch)
            if (const Schedule *cached = shard.map.peek(view))
                return served(*cached);
    }

    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    // Fault state moved since these schedules were lowered; their
    // routes are stale.
    flushLocked(shard, fault_epoch);
    if (Schedule *cached = shard.map.touch(view))
        return served(*cached);
    if (auto it = shard.in_flight.find(view); it != shard.in_flight.end()) {
        // Another thread is lowering this task: wait for its result.
        const std::shared_future<Schedule> pending = it->second;
        lock.unlock();
        return served(pending.get());  // rethrows a failed lowering
    }

    // Miss: mark the key in flight and lower outside the lock. The
    // entry holds its epoch's route storage, so the schedule stays
    // readable after a fault swap for as long as a caller holds it.
    std::promise<Schedule> promise;
    const std::uint64_t generation = shard.generation;
    shard.in_flight.emplace(
        Key{task.kind, task.tag, bytes_bits, task.group, view.hash},
        promise.get_future().share());
    if (shard.routes == nullptr)
        shard.routes = scheduler_.router().routeEpoch();
    std::shared_ptr<const RouteEpoch> routes = shard.routes;
    lock.unlock();

    struct Entry
    {
        CommSchedule schedule;
        std::shared_ptr<const RouteEpoch> routes;
    };
    Schedule schedule;
    try {
        auto entry = std::make_shared<const Entry>(
            Entry{scheduler_.schedule(task), std::move(routes)});
        schedule = Schedule(entry, &entry->schedule);
    } catch (...) {
        lock.lock();
        if (shard.generation == generation)
            shard.in_flight.erase(shard.in_flight.find(view));
        lock.unlock();
        promise.set_exception(std::current_exception());
        throw;
    }

    lock.lock();
    ++shard.lowerings;
    // A flush while lowering dropped the in-flight mark with the rest
    // of the epoch: hand the result to this lookup's waiters only.
    if (shard.generation == generation) {
        auto node = shard.in_flight.extract(shard.in_flight.find(view));
        shard.map.insert(std::move(node.key()), schedule);
    }
    lock.unlock();
    promise.set_value(schedule);
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
ScheduleCache::flushLocked(Shard &shard, std::uint64_t fault_epoch)
{
    if (fault_epoch == shard.epoch)
        return;
    shard.map.clear();
    shard.in_flight.clear();
    shard.routes.reset();
    ++shard.generation;
    shard.epoch = fault_epoch;
}

void
ScheduleCache::flushForEpoch(std::uint64_t fault_epoch)
{
    for (Shard &shard : shards()) {
        std::unique_lock<std::shared_mutex> lock(shard.mutex);
        flushLocked(shard, fault_epoch);
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
