#include "net/schedule_cache.hpp"

#include <bit>
#include <mutex>

namespace temp::net {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= kFnvPrime;
    }
    return hash;
}

std::size_t
hashSignature(CollectiveKind kind, int tag, std::uint64_t bytes_bits,
              const std::vector<hw::DieId> &group)
{
    std::uint64_t hash = kFnvOffset;
    hash = fnv1a(hash, static_cast<std::uint64_t>(kind));
    hash = fnv1a(hash,
                 static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
    hash = fnv1a(hash, bytes_bits);
    for (hw::DieId die : group)
        hash = fnv1a(hash, static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(die)));
    return static_cast<std::size_t>(hash);
}

}  // namespace

std::size_t
ScheduleCache::KeyHash::operator()(const Key &key) const
{
    return hashSignature(key.kind, key.tag, key.bytes_bits, key.group);
}

std::size_t
ScheduleCache::KeyHash::operator()(const KeyView &key) const
{
    return hashSignature(key.kind, key.tag, key.bytes_bits, *key.group);
}

bool
ScheduleCache::KeyEqual::operator()(const Key &a, const Key &b) const
{
    return a.kind == b.kind && a.tag == b.tag &&
           a.bytes_bits == b.bytes_bits && a.group == b.group;
}

bool
ScheduleCache::KeyEqual::operator()(const Key &a, const KeyView &b) const
{
    return a.kind == b.kind && a.tag == b.tag &&
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
    cache_.setByteEstimate(
        [](const Key &key, const std::shared_ptr<const CommSchedule> &s) {
            long bytes = static_cast<long>(
                sizeof(Key) + key.group.capacity() * sizeof(DieId));
            if (s != nullptr)
                bytes += static_cast<long>(sizeof(CommSchedule) +
                                           s->byteEstimate());
            return bytes;
        });
}

std::shared_ptr<const CommSchedule>
ScheduleCache::lowered(const CollectiveTask &task, std::uint64_t fault_epoch,
                       bool *hit)
{
    const KeyView view{task.kind, task.tag,
                       std::bit_cast<std::uint64_t>(task.bytes),
                       &task.group};

    // Hit path. Unbounded: shared lock, non-owning probe, no
    // allocation, no recency maintenance. Bounded (by entries or
    // bytes): the same probe under the exclusive lock so the LRU
    // order stays truthful.
    if (max_entries_.load(std::memory_order_relaxed) == 0 &&
        max_bytes_.load(std::memory_order_relaxed) == 0) {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (epoch_ == fault_epoch) {
            if (const auto *cached = cache_.peek(view)) {
                ++hits_;
                if (hit != nullptr)
                    *hit = true;
                return *cached;
            }
        }
    } else {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        if (epoch_ == fault_epoch) {
            if (auto *cached = cache_.touch(view)) {
                ++hits_;
                if (hit != nullptr)
                    *hit = true;
                return *cached;
            }
        }
    }

    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (fault_epoch != epoch_) {
        // Fault state moved since these schedules were lowered; their
        // routes are stale. Flush wholesale.
        cache_.clear();
        epoch_ = fault_epoch;
    }
    if (auto *cached = cache_.touch(view)) {
        // Another thread lowered it between our two lock scopes.
        ++hits_;
        if (hit != nullptr)
            *hit = true;
        return *cached;
    }
    // Lower under the exclusive lock: duplicates across threads would
    // break the "lowered exactly once" accounting, and each unique task
    // misses once per epoch (or per eviction under a finite budget).
    // No SoA view: the cost model's phase memo times each task set
    // once, so an entry is read a handful of times (combined, copied
    // for optimisation, or evaluated once) and the view would only
    // double its footprint.
    CommSchedule built = scheduler_.schedule(task);
    auto schedule =
        std::make_shared<const CommSchedule>(std::move(built));
    ++lowerings_;
    if (hit != nullptr)
        *hit = false;
    return *cache_
                .insert(Key{task.kind, task.tag,
                            std::bit_cast<std::uint64_t>(task.bytes),
                            task.group},
                        std::move(schedule))
                .first;
}

common::CacheStats
ScheduleCache::cacheStats() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    common::CacheStats stats;
    stats.entries = static_cast<long>(cache_.size());
    stats.bytes_est = cache_.bytesEstimate();
    stats.hits = hits_.load();
    stats.misses = lowerings_.load();
    stats.evictions = cache_.evictions();
    return stats;
}

void
ScheduleCache::setMaxEntries(std::size_t max_entries)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    max_entries_.store(max_entries, std::memory_order_relaxed);
    cache_.setCapacity(max_entries);
}

void
ScheduleCache::setMaxBytes(long max_bytes)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    max_bytes_.store(max_bytes > 0 ? max_bytes : 0,
                     std::memory_order_relaxed);
    cache_.setMaxBytes(max_bytes);
}

void
ScheduleCache::flushForEpoch(std::uint64_t fault_epoch)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (fault_epoch == epoch_)
        return;
    cache_.clear();
    epoch_ = fault_epoch;
}

std::size_t
ScheduleCache::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return cache_.size();
}

void
ScheduleCache::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    cache_.clear();
}

}  // namespace temp::net
