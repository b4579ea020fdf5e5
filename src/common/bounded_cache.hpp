/**
 * @file
 * Bounded-cache governance for the whole memo stack.
 *
 * Every memo layer in the system — the service's framework/pod maps,
 * the step-report memo, the schedule cache and the cost model's
 * layout, stream-plan, timed-phase and op-cell memos — is an
 * append-only map by default, which is a
 * by-design memory leak once the process is a long-lived service. This
 * header owns the shared machinery that bounds them:
 *
 *  - LruMap: the unsynchronized LRU core (hash map + intrusive
 *    recency list) for caches that already run under their own lock
 *    (each ScheduleCache shard). Supports heterogeneous probes
 *    (transparent Hash/Equal) and a byte estimator.
 *  - BoundedCache: a thread-safe sharded facade over LruMap shards
 *    (one shared_mutex per shard). Unbounded lookups take the lock
 *    shared and touch nothing, so a capacity of 0 — the default
 *    everywhere — keeps the pre-governance hot paths and their
 *    bit-exactness guarantees intact; bounded lookups upgrade to the
 *    exclusive lock to maintain recency.
 *  - CacheStats / CacheBudget: the per-cache counter snapshot every
 *    layer reports (CacheStatsRequest serializes them) and the knob
 *    struct config_io parses budgets into.
 *
 * Capacity semantics: an entry budget and a byte budget compose (0 =
 * unbounded for either); the cache evicts while over *either*. Byte
 * budgets are fed by the per-layer bytes_est estimators, so
 * `*.max_bytes` config keys govern real memory residency instead of
 * entry counts. Eviction is strict LRU, except that the entry just
 * inserted is never evicted. Evicted keys that return recount as
 * misses — the honest-accounting contract of the evaluator stack is
 * preserved under eviction because every cached value is a pure
 * function of its key.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace temp::common {

/// One memo layer's counters. entries/bytes_est are gauges of the
/// current contents; hits/misses/evictions are cumulative.
struct CacheStats
{
    long entries = 0;    ///< entries currently resident
    long bytes_est = 0;  ///< estimated bytes of resident entries
    long hits = 0;       ///< lookups served from the cache
    long misses = 0;     ///< lookups that had to compute
    long evictions = 0;  ///< entries dropped to honour the budget

    CacheStats &operator+=(const CacheStats &other)
    {
        entries += other.entries;
        bytes_est += other.bytes_est;
        hits += other.hits;
        misses += other.misses;
        evictions += other.evictions;
        return *this;
    }
};

/**
 * Entry and byte budgets for every layer of the memo stack (0 =
 * unbounded, the default — existing behaviour and bit-exactness
 * guarantees are untouched unless a budget is set). Parsed from config
 * keys by core::frameworkOptionsFromConfig and applied per-request
 * through FrameworkOptions; the service-level budgets bound
 * TempService's own maps and are not part of the framework cache key.
 * Entry and byte budgets compose: a layer evicts while over either.
 */
struct CacheBudget
{
    long max_frameworks = 0;        ///< service.cache.max_frameworks
    long max_pods = 0;              ///< service.cache.max_pods
    long max_eval_entries = 0;      ///< eval.cache.max_entries
    long max_step_entries = 0;      ///< eval.cache.max_step_entries
    long max_layout_entries = 0;    ///< eval.cache.max_layouts
    long max_schedule_entries = 0;  ///< net.schedule_cache.max_entries

    /// @{ Byte budgets, fed by the per-layer bytes_est estimators.
    long max_eval_bytes = 0;      ///< eval.cache.max_bytes
    long max_step_bytes = 0;      ///< eval.cache.max_step_bytes
    long max_layout_bytes = 0;    ///< eval.cache.max_layout_bytes
    long max_schedule_bytes = 0;  ///< net.schedule_cache.max_bytes
    /// @}

    /// True when any framework-level budget is finite (the service
    /// budgets do not affect framework construction).
    bool boundsFramework() const
    {
        return max_eval_entries > 0 || max_step_entries > 0 ||
               max_layout_entries > 0 || max_schedule_entries > 0 ||
               max_eval_bytes > 0 || max_step_bytes > 0 ||
               max_layout_bytes > 0 || max_schedule_bytes > 0;
    }
};

/// Default byte estimate of a cached (key, value) pair; string keys
/// count their heap payload, everything else its object size.
template <typename T>
inline long
cacheByteEstimate(const T &)
{
    return static_cast<long>(sizeof(T));
}

inline long
cacheByteEstimate(const std::string &s)
{
    return static_cast<long>(sizeof(std::string) + s.capacity());
}

/**
 * A compact exact cache key: a flat sequence of 32-bit words (ids,
 * degrees, and the bit patterns of doubles and 64-bit values split in
 * two). Equality compares every word, so two keys never collide on a
 * hash alone; the hash only picks the bucket.
 */
struct WordKey
{
    std::vector<std::uint32_t> words;

    void add(std::uint32_t word) { words.push_back(word); }
    void addInt(int value) { add(static_cast<std::uint32_t>(value)); }
    void add64(std::uint64_t value)
    {
        add(static_cast<std::uint32_t>(value));
        add(static_cast<std::uint32_t>(value >> 32));
    }
    void addDouble(double value)
    {
        add64(std::bit_cast<std::uint64_t>(value));
    }

    bool operator==(const WordKey &other) const = default;
};

struct WordKeyHash
{
    std::size_t operator()(const WordKey &key) const
    {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (std::uint32_t word : key.words)
            hash = (hash ^ word) * 0x100000001b3ull;
        return static_cast<std::size_t>(hash ^ (hash >> 29));
    }
};

inline long
cacheByteEstimate(const WordKey &key)
{
    return static_cast<long>(sizeof(WordKey) +
                             key.words.capacity() * sizeof(std::uint32_t));
}

/**
 * The unsynchronized LRU core: an unordered map plus an intrusive
 * recency list of pointers into the map's (node-stable) keys. For use
 * under an external lock; BoundedCache wraps it per shard for
 * stand-alone thread-safe use.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Equal = std::equal_to<Key>>
class LruMap
{
  public:
    explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}

    /// Entry budget; 0 = unbounded. Shrinking evicts immediately.
    void setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        evictOverBudget();
    }
    std::size_t capacity() const { return capacity_; }

    /// Byte budget over bytes_est; 0 = unbounded. Composes with the
    /// entry budget: the map evicts while over either.
    void setMaxBytes(long max_bytes)
    {
        max_bytes_ = max_bytes > 0 ? max_bytes : 0;
        evictOverBudget();
    }
    long maxBytes() const { return max_bytes_; }

    bool bounded() const { return capacity_ > 0 || max_bytes_ > 0; }

    std::size_t size() const { return map_.size(); }
    long bytesEstimate() const { return bytes_; }
    long evictions() const { return evictions_; }

    /// Replaces the default sizeof-based byte estimator. Applies to
    /// entries inserted after the call.
    void setByteEstimate(
        std::function<long(const Key &, const Value &)> estimate)
    {
        estimate_ = std::move(estimate);
    }

    /// Read-only probe: no recency update, safe under a shared lock.
    template <typename K>
    const Value *peek(const K &key) const
    {
        auto it = map_.find(key);
        return it != map_.end() ? &it->second.value : nullptr;
    }

    /// Probe that refreshes recency (requires the external exclusive
    /// lock when readers run concurrently).
    template <typename K>
    Value *touch(const K &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        return &it->second.value;
    }

    /**
     * Inserts (or finds) a key; the resident value wins on a
     * duplicate, mirroring emplace. Evicts least-recently-used
     * evictable entries while over budget.
     *
     * @returns (pointer to resident value, inserted?). The pointer is
     *          valid until the entry is evicted or erased.
     */
    std::pair<Value *, bool> insert(Key key, Value value)
    {
        auto [it, inserted] = map_.try_emplace(std::move(key));
        if (!inserted) {
            lru_.splice(lru_.begin(), lru_, it->second.pos);
            return {&it->second.value, false};
        }
        it->second.value = std::move(value);
        lru_.push_front(&it->first);
        it->second.pos = lru_.begin();
        it->second.bytes = estimate_
                               ? estimate_(it->first, it->second.value)
                               : cacheByteEstimate(it->first) +
                                     cacheByteEstimate(it->second.value);
        bytes_ += it->second.bytes;
        Value *resident = &it->second.value;
        evictOverBudget();
        return {resident, true};
    }

    void clear()
    {
        map_.clear();
        lru_.clear();
        bytes_ = 0;
    }

    /// Visits every resident (key, value) pair in unspecified order.
    template <typename Fn>
    void forEachResident(Fn &&fn) const
    {
        for (const auto &[key, entry] : map_)
            fn(key, entry.value);
    }

  private:
    struct Entry
    {
        Value value{};
        typename std::list<const Key *>::iterator pos;
        long bytes = 0;
    };

    bool overBudget() const
    {
        return (capacity_ != 0 && map_.size() > capacity_) ||
               (max_bytes_ > 0 && bytes_ > max_bytes_);
    }

    void evictOverBudget()
    {
        if (!overBudget())
            return;
        // Drop from the LRU tail. The MRU head is never evicted:
        // insert() hands out a pointer to it, and a cache that cannot
        // hold even the entry being inserted would invalidate that
        // pointer mid-flight.
        auto pos = lru_.end();
        while (overBudget() && pos != lru_.begin()) {
            --pos;
            if (pos == lru_.begin())
                break;  // the MRU entry stays resident
            auto it = map_.find(**pos);
            bytes_ -= it->second.bytes;
            pos = lru_.erase(pos);
            map_.erase(it);
            ++evictions_;
        }
    }

    std::size_t capacity_;
    long max_bytes_ = 0;
    std::unordered_map<Key, Entry, Hash, Equal> map_;
    /// Recency list, most recent first; pointers into map_ keys
    /// (node-based, so stable across rehash).
    std::list<const Key *> lru_;
    long bytes_ = 0;
    long evictions_ = 0;
    std::function<long(const Key &, const Value &)> estimate_;
};

/**
 * Thread-safe sharded LRU cache: the drop-in replacement for the
 * mutex + unordered_map idiom of the memo layers. Keys hash to a
 * shard; each shard is a shared_mutex over an LruMap. When the cache
 * is unbounded (the default), get() takes the shard lock shared and
 * performs no recency maintenance — the exact cost profile of the
 * maps it replaces; a finite budget upgrades lookups to the exclusive
 * shard lock so LRU order stays truthful.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Equal = std::equal_to<Key>>
class BoundedCache
{
  public:
    /**
     * @param capacity Total entry budget across shards (0 = unbounded).
     * @param shards Shard count; clamped so every shard owns at least
     *        one budgeted entry, which keeps `size() <= capacity`
     *        exact (per-shard budgets partition the total). The
     *        default is a single shard: every memo this replaces ran
     *        under one global mutex, and one shard is the only layout
     *        that keeps `size() <= capacity` exact across
     *        setCapacity() re-budgeting (shard count is fixed after
     *        construction). Opt into more shards only for caches
     *        whose budget is set once at construction.
     */
    explicit BoundedCache(long capacity = 0, int shards = 1)
    {
        const int n = shardCountFor(capacity, shards);
        shards_.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            shards_.push_back(std::make_unique<Shard>());
        distributeCapacity(capacity);
    }

    /// Re-budgets in place (shard count is fixed at construction);
    /// shrinking evicts immediately. An unchanged capacity is a
    /// lock-free no-op — per-request budget application sits on the
    /// service hot path and must not serialise cache hits.
    void setCapacity(long capacity)
    {
        if (capacity < 0)
            capacity = 0;
        if (capacity_.load() == capacity)
            return;
        std::lock_guard<std::mutex> lock(capacity_mutex_);
        distributeCapacity(capacity);
    }

    long capacity() const { return capacity_.load(); }

    /// Total byte budget across shards (0 = unbounded); split like the
    /// entry budget. Same lock-free no-op guard on unchanged values.
    void setMaxBytes(long max_bytes)
    {
        if (max_bytes < 0)
            max_bytes = 0;
        if (max_bytes_.load() == max_bytes)
            return;
        std::lock_guard<std::mutex> lock(capacity_mutex_);
        distributeMaxBytes(max_bytes);
    }

    long maxBytes() const { return max_bytes_.load(); }

    bool bounded() const
    {
        return capacity_.load() > 0 || max_bytes_.load() > 0;
    }

    /// Looks a key up, counting a hit or miss.
    std::optional<Value> get(const Key &key)
    {
        Shard &shard = shardFor(key);
        if (!bounded()) {
            std::shared_lock<std::shared_mutex> lock(shard.mutex);
            if (const Value *value = shard.map.peek(key)) {
                ++shard.hits;
                return *value;
            }
        } else {
            std::unique_lock<std::shared_mutex> lock(shard.mutex);
            if (Value *value = shard.map.touch(key)) {
                ++shard.hits;
                return *value;
            }
        }
        ++shard.misses;
        return std::nullopt;
    }

    /**
     * Inserts a computed value; on a racing duplicate the resident
     * value wins and is returned, so concurrent computers of one key
     * converge on a single shared instance.
     */
    std::pair<Value, bool> insert(const Key &key, Value value)
    {
        Shard &shard = shardFor(key);
        std::unique_lock<std::shared_mutex> lock(shard.mutex);
        auto [resident, inserted] =
            shard.map.insert(key, std::move(value));
        return {*resident, inserted};
    }

    void clear()
    {
        for (auto &shard : shards_) {
            std::unique_lock<std::shared_mutex> lock(shard->mutex);
            shard->map.clear();
        }
    }

    std::size_t size() const
    {
        std::size_t total = 0;
        for (const auto &shard : shards_) {
            std::shared_lock<std::shared_mutex> lock(shard->mutex);
            total += shard->map.size();
        }
        return total;
    }

    /// Aggregated counters across shards. Each shard is snapshotted
    /// under its lock; the cross-shard sum is not one atomic cut, but
    /// every per-shard snapshot is internally consistent.
    CacheStats stats() const
    {
        CacheStats total;
        for (const auto &shard : shards_) {
            std::unique_lock<std::shared_mutex> lock(shard->mutex);
            total.entries += static_cast<long>(shard->map.size());
            total.bytes_est += shard->map.bytesEstimate();
            total.hits += shard->hits.load();
            total.misses += shard->misses.load();
            total.evictions += shard->map.evictions();
        }
        return total;
    }

    void setByteEstimate(
        std::function<long(const Key &, const Value &)> estimate)
    {
        for (auto &shard : shards_) {
            std::unique_lock<std::shared_mutex> lock(shard->mutex);
            shard->map.setByteEstimate(estimate);
        }
    }

    /// Visits every resident (key, value) pair (shard by shard, under
    /// the shared lock). For stats collection, not mutation.
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const auto &shard : shards_) {
            std::shared_lock<std::shared_mutex> lock(shard->mutex);
            shard->map.forEachResident(fn);
        }
    }

  private:
    struct Shard
    {
        mutable std::shared_mutex mutex;
        LruMap<Key, Value, Hash, Equal> map;
        /// Atomic: bumped under the shared lock on unbounded hits.
        std::atomic<long> hits{0};
        std::atomic<long> misses{0};
    };

    static int shardCountFor(long capacity, int shards)
    {
        if (shards < 1)
            shards = 1;
        if (capacity > 0 && static_cast<long>(shards) > capacity)
            shards = static_cast<int>(capacity);
        return shards;
    }

    /// Splits a total budget into per-shard budgets that sum to it.
    void distributeCapacity(long capacity)
    {
        if (capacity < 0)
            capacity = 0;
        capacity_ = capacity;
        const long n = static_cast<long>(shards_.size());
        // A nonzero budget smaller than the shard count would leave
        // zero-capacity (= unbounded) shards; give every shard at
        // least one entry instead. setCapacity after construction
        // cannot re-shard, so `size() <= max(capacity, shards)` is
        // the honest bound then (construction-time budgets are exact).
        const long base = capacity / n;
        const long extra = capacity % n;
        for (long i = 0; i < n; ++i) {
            auto &shard = shards_[static_cast<std::size_t>(i)];
            std::unique_lock<std::shared_mutex> lock(shard->mutex);
            const long cap = base + (i < extra ? 1 : 0);
            shard->map.setCapacity(static_cast<std::size_t>(
                capacity == 0 ? 0 : std::max(cap, 1L)));
        }
    }

    /// Splits a total byte budget into per-shard budgets that sum to
    /// it; residency of an entry bigger than its shard's slice is
    /// still guaranteed by the MRU-head protection, so a too-small
    /// byte budget degrades to caching one entry per shard.
    void distributeMaxBytes(long max_bytes)
    {
        if (max_bytes < 0)
            max_bytes = 0;
        max_bytes_ = max_bytes;
        const long n = static_cast<long>(shards_.size());
        const long base = max_bytes / n;
        const long extra = max_bytes % n;
        for (long i = 0; i < n; ++i) {
            auto &shard = shards_[static_cast<std::size_t>(i)];
            std::unique_lock<std::shared_mutex> lock(shard->mutex);
            const long cap = base + (i < extra ? 1 : 0);
            shard->map.setMaxBytes(max_bytes == 0 ? 0
                                                  : std::max(cap, 1L));
        }
    }

    Shard &shardFor(const Key &key)
    {
        const std::size_t h = Hash{}(key);
        return *shards_[h % shards_.size()];
    }

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<long> capacity_{0};
    std::atomic<long> max_bytes_{0};
    std::mutex capacity_mutex_;  ///< serialises re-budgeting
};

}  // namespace temp::common
