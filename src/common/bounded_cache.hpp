/**
 * @file
 * Bounded-cache governance for the whole memo stack.
 *
 * Every memo layer in the system — the service's framework/pod maps,
 * the step-report memo and the cost model's layout, stream-plan,
 * timed-phase and op-cell memos — is an
 * append-only map by default, which is a
 * by-design memory leak once the process is a long-lived service. This
 * header owns the shared machinery that bounds them:
 *
 *  - LruMap: the unsynchronized LRU core (hash map + intrusive
 *    recency list, kept only under a budget) behind BoundedCache's
 *    lock. Supports heterogeneous probes (transparent Hash/Equal) and
 *    a byte estimator.
 *  - BoundedCache: a thread-safe facade over one LruMap (one
 *    shared_mutex). Unbounded lookups take the lock
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
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
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
    /// net.schedule_cache.max_entries: the collective-phase memo
    long max_schedule_entries = 0;

    /// @{ Byte budgets, fed by the per-layer bytes_est estimators.
    long max_eval_bytes = 0;      ///< eval.cache.max_bytes
    long max_step_bytes = 0;      ///< eval.cache.max_step_bytes
    long max_layout_bytes = 0;    ///< eval.cache.max_layout_bytes
    /// net.schedule_cache.max_bytes: the collective-phase memo
    long max_schedule_bytes = 0;
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
 * The unsynchronized LRU core: an unordered map plus an intrusive
 * recency list of pointers into the map's (node-stable) keys. Only a
 * bounded map keeps the list: an unbounded one never evicts, so it
 * allocates no list node and refreshes no recency, and a budget that
 * first applies lists the resident entries in map order. For use
 * under an external lock; BoundedCache wraps it for stand-alone
 * thread-safe use.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Equal = std::equal_to<Key>>
class LruMap
{
  public:
    explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}

    /// Entry budget; 0 = unbounded. Shrinking evicts immediately.
    void setCapacity(std::size_t capacity) { rebudget(capacity, max_bytes_); }
    std::size_t capacity() const { return capacity_; }

    /// Byte budget over bytes_est; 0 = unbounded. Composes with the
    /// entry budget: the map evicts while over either.
    void setMaxBytes(long max_bytes)
    {
        rebudget(capacity_, max_bytes > 0 ? max_bytes : 0);
    }
    long maxBytes() const { return max_bytes_; }

    bool bounded() const { return capacity_ > 0 || max_bytes_ > 0; }

    std::size_t size() const { return map_.size(); }
    void reserve(std::size_t entries) { map_.reserve(entries); }
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
        if (bounded())
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
            if (bounded())
                lru_.splice(lru_.begin(), lru_, it->second.pos);
            return {&it->second.value, false};
        }
        it->second.value = std::move(value);
        if (bounded()) {
            lru_.push_front(&it->first);
            it->second.pos = lru_.begin();
        }
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
        typename std::list<const Key *>::iterator pos;  ///< when bounded
        long bytes = 0;
    };

    /// Applies both budgets: dropping the last one drops the recency
    /// list, and the first one builds it from the map.
    void rebudget(std::size_t capacity, long max_bytes)
    {
        const bool was_bounded = bounded();
        capacity_ = capacity;
        max_bytes_ = max_bytes;
        if (!bounded()) {
            lru_.clear();
            return;
        }
        if (!was_bounded)
            for (auto it = map_.begin(); it != map_.end(); ++it) {
                lru_.push_back(&it->first);
                it->second.pos = std::prev(lru_.end());
            }
        evictOverBudget();
    }

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
    /// Recency list, most recent first (empty while unbounded);
    /// pointers into map_ keys (node-based, so stable across rehash).
    std::list<const Key *> lru_;
    long bytes_ = 0;
    long evictions_ = 0;
    std::function<long(const Key &, const Value &)> estimate_;
};

/**
 * Thread-safe LRU cache: the drop-in replacement for the mutex +
 * unordered_map idiom of the memo layers, one shared_mutex over an
 * LruMap. When the cache is unbounded (the default), get() takes the
 * lock shared and performs no recency maintenance — the exact cost
 * profile of the maps it replaces; a finite budget upgrades lookups to
 * the exclusive lock so LRU order stays truthful.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Equal = std::equal_to<Key>>
class BoundedCache
{
  public:
    /// @param capacity Entry budget (0 = unbounded).
    explicit BoundedCache(long capacity = 0) { setCapacity(capacity); }

    /// Re-budgets in place; shrinking evicts immediately. An unchanged
    /// capacity is a lock-free no-op — per-request budget application
    /// sits on the service hot path and must not serialise cache hits.
    void setCapacity(long capacity)
    {
        if (capacity < 0)
            capacity = 0;
        if (capacity_.load() == capacity)
            return;
        std::unique_lock<std::shared_mutex> lock(mutex_);
        capacity_ = capacity;
        map_.setCapacity(static_cast<std::size_t>(capacity));
    }

    long capacity() const { return capacity_.load(); }

    /// Byte budget (0 = unbounded). Same lock-free no-op guard on
    /// unchanged values.
    void setMaxBytes(long max_bytes)
    {
        if (max_bytes < 0)
            max_bytes = 0;
        if (max_bytes_.load() == max_bytes)
            return;
        std::unique_lock<std::shared_mutex> lock(mutex_);
        max_bytes_ = max_bytes;
        map_.setMaxBytes(max_bytes);
    }

    long maxBytes() const { return max_bytes_.load(); }

    bool bounded() const
    {
        return capacity_.load() > 0 || max_bytes_.load() > 0;
    }

    /// Looks a key up, counting a hit or miss. A probe of another type
    /// needs a transparent Hash and Equal.
    template <typename K = Key>
    std::optional<Value> get(const K &key)
    {
        if (!bounded()) {
            std::shared_lock<std::shared_mutex> lock(mutex_);
            if (const Value *value = map_.peek(key)) {
                ++hits_;
                return *value;
            }
        } else {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            if (Value *value = map_.touch(key)) {
                ++hits_;
                return *value;
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /**
     * Bulk get(): looks every key up under one lock, counting a hit or
     * a miss each, and calls found(i, value) for each hit on keys[i].
     */
    template <typename K, typename Found>
    void getAll(std::span<const K> keys, Found &&found)
    {
        long hits = 0;
        if (!bounded()) {
            std::shared_lock<std::shared_mutex> lock(mutex_);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (const Value *value = map_.peek(keys[i])) {
                    ++hits;
                    found(i, *value);
                }
            }
        } else {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (Value *value = map_.touch(keys[i])) {
                    ++hits;
                    found(i, *value);
                }
            }
        }
        hits_ += hits;
        misses_ += static_cast<long>(keys.size()) - hits;
    }

    /**
     * Inserts a computed value; on a racing duplicate the resident
     * value wins and is returned, so concurrent computers of one key
     * converge on a single shared instance.
     */
    std::pair<Value, bool> insert(Key key, Value value)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        auto [resident, inserted] =
            map_.insert(std::move(key), std::move(value));
        return {*resident, inserted};
    }

    void clear()
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        map_.clear();
    }

    std::size_t size() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return map_.size();
    }

    /**
     * A bulk import: inserts entry(0) .. entry(n-1), each a (key,
     * value) pair, under one exclusive lock and one rehash. Resident
     * values win, as in insert().
     */
    template <typename EntryFn>
    void insertAll(std::size_t n, EntryFn &&entry)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        map_.reserve(map_.size() + n);
        for (std::size_t i = 0; i < n; ++i) {
            auto [key, value] = entry(i);
            map_.insert(std::move(key), std::move(value));
        }
    }

    /// Counters, snapshotted under the lock.
    CacheStats stats() const
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        CacheStats stats;
        stats.entries = static_cast<long>(map_.size());
        stats.bytes_est = map_.bytesEstimate();
        stats.hits = hits_.load();
        stats.misses = misses_.load();
        stats.evictions = map_.evictions();
        return stats;
    }

    void setByteEstimate(
        std::function<long(const Key &, const Value &)> estimate)
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        map_.setByteEstimate(std::move(estimate));
    }

    /// Visits every resident (key, value) pair under the shared lock.
    /// For stats collection, not mutation.
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        map_.forEachResident(fn);
    }

  private:
    mutable std::shared_mutex mutex_;
    LruMap<Key, Value, Hash, Equal> map_;
    /// Atomic: bumped under the shared lock on unbounded hits.
    std::atomic<long> hits_{0};
    std::atomic<long> misses_{0};
    std::atomic<long> capacity_{0};
    std::atomic<long> max_bytes_{0};
};

}  // namespace temp::common
