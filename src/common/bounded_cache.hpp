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
 *    locks. Supports heterogeneous probes (transparent Hash/Equal) and
 *    a byte estimator.
 *  - BoundedCache: a thread-safe facade over LruMap lock shards, each
 *    one LruMap under one shared_mutex. A cache has one shard unless
 *    its owner asks for more (the cost model's memos ask for 16 when
 *    their evaluators' pool has more than one thread), and a budgeted
 *    cache always folds into one, so budgets and LRU order stay exact.
 *    Unbounded lookups take their shard's lock shared and touch
 *    nothing, so a capacity of 0 — the default everywhere — keeps the
 *    pre-governance hot paths and their bit-exactness guarantees
 *    intact; bounded lookups upgrade to the exclusive lock to maintain
 *    recency. A bulk import into an empty unbounded cache is adopted
 *    as one vector under a flat index instead of one node per entry.
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
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <stdexcept>
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
        it->second.bytes = estimateBytes(it->first, it->second.value);
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

    /**
     * Moves every entry to the map `into(key)` names, its byte
     * estimate with it; entries it maps to this map stay. Nodes move,
     * values are not copied. Both maps must be unbounded: neither has
     * a recency list to carry the entry over.
     */
    template <typename Into>
    void moveEntries(Into &&into)
    {
        for (auto it = map_.begin(); it != map_.end();) {
            LruMap *target = into(it->first);
            if (target == this) {
                ++it;
                continue;
            }
            auto node = map_.extract(it++);
            bytes_ -= node.mapped().bytes;
            target->bytes_ += node.mapped().bytes;
            target->map_.insert(std::move(node));
        }
    }

    const std::function<long(const Key &, const Value &)> &byteEstimate()
        const
    {
        return estimate_;
    }

    /// The byte estimate an entry inserted now would carry.
    long estimateBytes(const Key &key, const Value &value) const
    {
        return estimate_ ? estimate_(key, value)
                         : cacheByteEstimate(key) + cacheByteEstimate(value);
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
 * unordered_map idiom of the memo layers, LruMaps under shared_mutex
 * lock shards. When the cache is unbounded (the default), get() takes
 * its shard's lock shared and performs no recency maintenance — the
 * exact cost profile of the maps it replaces; a finite budget upgrades
 * lookups to the exclusive lock so LRU order stays truthful.
 *
 * Sharding: a cache built with `shards` > 1 spreads its keys over that
 * many LruMaps by key hash, each under its own lock, so callers on
 * different threads rarely queue on one lock. A cache starts in one
 * inline shard and spreads, allocating the rest, when an unbounded
 * cache first stores an entry in a shard (insert(), or an insertAll()
 * it cannot adopt whole), so a one-shard cache, and one budgeted
 * before it fills, allocates nothing more than one LruMap. A budget
 * folds a spread cache back into its inline shard: budgets and LRU
 * order stay exact over all entries, as with one shard. Hit and miss
 * counters live beside each shard's lock, so counting a lookup writes
 * no line another shard's callers write.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Equal = std::equal_to<Key>>
class BoundedCache
{
  public:
    /// @param capacity Entry budget (0 = unbounded).
    /// @param shards Lock shards while unbounded, a power of two (1 =
    ///        one lock).
    explicit BoundedCache(long capacity = 0, unsigned shards = 1)
        : shards_(shards)
    {
        if (!std::has_single_bit(shards))
            throw std::invalid_argument(
                "BoundedCache: shards must be a power of two");
        setCapacity(capacity);
    }

    /// Lock shards the cache spreads over while unbounded.
    unsigned shardCount() const { return shards_; }

    /// Re-budgets in place; shrinking evicts immediately. An unchanged
    /// capacity is a lock-free no-op — per-request budget application
    /// sits on the service hot path and must not serialise cache hits.
    void setCapacity(long capacity)
    {
        if (capacity < 0)
            capacity = 0;
        if (capacity_.load() == capacity)
            return;
        AllShards<true> lock(*this);
        capacity_ = capacity;
        rebudgetLocked();
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
        AllShards<true> lock(*this);
        max_bytes_ = max_bytes;
        rebudgetLocked();
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
            std::shared_lock<std::shared_mutex> lock;
            Shard &shard = lockShardOf(key, lock);
            const Value *value = findImported(key);
            if (value != nullptr || (value = shard.map.peek(key))) {
                ++shard.hits;
                return *value;
            }
            ++shard.misses;
        } else {
            std::unique_lock<std::shared_mutex> lock;
            Shard &shard = lockShardOf(key, lock);
            const Value *value = findImported(key);
            if (value != nullptr || (value = shard.map.touch(key))) {
                ++shard.hits;
                return *value;
            }
            ++shard.misses;
        }
        return std::nullopt;
    }

    /**
     * Bulk get(): looks every key up under one lock per shard, counting
     * a hit or a miss each, and calls found(i, value) for each hit on
     * keys[i].
     */
    template <typename K, typename Found>
    void getAll(std::span<const K> keys, Found &&found)
    {
        long hits = 0;
        if (!bounded()) {
            AllShards<false> lock(*this);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const Value *value = findImported(keys[i]);
                if (value != nullptr ||
                    (value = shardOfLocked(keys[i]).map.peek(keys[i]))) {
                    ++hits;
                    found(i, *value);
                }
            }
        } else {
            AllShards<true> lock(*this);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const Value *value = findImported(keys[i]);
                if (value != nullptr ||
                    (value = shardOfLocked(keys[i]).map.touch(keys[i]))) {
                    ++hits;
                    found(i, *value);
                }
            }
        }
        // Counted on the inline shard: stats() sums every shard.
        first_.hits += hits;
        first_.misses += static_cast<long>(keys.size()) - hits;
    }

    /**
     * Inserts a computed value; on a racing duplicate the resident
     * value wins and is returned, so concurrent computers of one key
     * converge on a single shared instance.
     */
    std::pair<Value, bool> insert(Key key, Value value)
    {
        spreadIfDue();
        std::unique_lock<std::shared_mutex> lock;
        Shard &shard = lockShardOf(key, lock);
        if (const Value *resident = findImported(key))
            return {*resident, false};
        auto [resident, inserted] =
            shard.map.insert(std::move(key), std::move(value));
        return {*resident, inserted};
    }

    void clear()
    {
        AllShards<true> lock(*this);
        imported_.reset();
        lock.forEach([](Shard &shard) { shard.map.clear(); });
    }

    std::size_t size() const
    {
        AllShards<false> lock(*this);
        std::size_t size = imported_ ? imported_->entries.size() : 0;
        lock.forEach([&](const Shard &shard) { size += shard.map.size(); });
        return size;
    }

    /**
     * A bulk import of (key, value) pairs. Resident values win, as in
     * insert(), and so does the first of two equal keys. An empty
     * unbounded cache adopts the vector itself under a flat index (see
     * Imported): no map node per entry, and no entry moves. Any other
     * cache inserts the entries under one exclusive lock per shard and
     * one rehash each.
     */
    void insertAll(std::vector<std::pair<Key, Value>> entries)
    {
        if (entries.empty())
            return;
        {
            AllShards<true> lock(*this);
            bool empty = !bounded() && !imported_;
            lock.forEach([&](const Shard &shard) {
                empty = empty && shard.map.size() == 0;
            });
            if (empty) {
                imported_ = std::make_unique<Imported>(std::move(entries),
                                                       first_.map);
                return;
            }
        }
        spreadIfDue();
        AllShards<true> lock(*this);
        const unsigned active = active_.load(std::memory_order_relaxed);
        for (unsigned s = 0; s < active; ++s) {
            LruMap<Key, Value, Hash, Equal> &map = shardAt(s).map;
            map.reserve(map.size() + entries.size() / active + 1);
        }
        for (auto &[key, value] : entries)
            if (findImported(key) == nullptr)
                shardOfLocked(key).map.insert(std::move(key),
                                              std::move(value));
    }

    /// Counters, summed over the shards under their locks.
    CacheStats stats() const
    {
        AllShards<false> lock(*this);
        CacheStats stats;
        if (imported_) {
            stats.entries = static_cast<long>(imported_->entries.size());
            stats.bytes_est = imported_->bytes;
        }
        lock.forEach([&](const Shard &shard) {
            stats.entries += static_cast<long>(shard.map.size());
            stats.bytes_est += shard.map.bytesEstimate();
            stats.hits += shard.hits.load();
            stats.misses += shard.misses.load();
            stats.evictions += shard.map.evictions();
        });
        return stats;
    }

    void setByteEstimate(
        std::function<long(const Key &, const Value &)> estimate)
    {
        AllShards<true> lock(*this);
        lock.forEach(
            [&](Shard &shard) { shard.map.setByteEstimate(estimate); });
    }

    /// Visits every resident (key, value) pair under the shared locks.
    /// For stats collection, not mutation.
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        AllShards<false> lock(*this);
        if (imported_)
            for (const auto &[key, value] : imported_->entries)
                fn(key, value);
        lock.forEach(
            [&](const Shard &shard) { shard.map.forEachResident(fn); });
    }

  private:
    /// One lock shard: its map, and the counters of lookups it served.
    struct Shard
    {
        mutable std::shared_mutex mutex;
        /// Atomic: bumped under the shared lock on unbounded lookups.
        std::atomic<long> hits{0};
        std::atomic<long> misses{0};
        LruMap<Key, Value, Hash, Equal> map;
    };

    /// A spread shard, on cache lines of its own, so threads working in
    /// neighbouring shards write no common line. The inline shard is
    /// not padded: an over-aligned member would make every owner of a
    /// cache over-aligned, and each allocation of one slower.
    struct alignas(64) PaddedShard : Shard
    {
    };

    /**
     * The entries of a bulk import into an empty unbounded cache, kept
     * as imported: the imported vector itself, found through a flat
     * open-addressing index over it, with no map node per entry (a
     * warm start adopts a snapshot block this way). A key lives here
     * or in a shard, never in both. Set and dropped only under every
     * shard's exclusive lock and read under any one shard's lock; a
     * budget moves its entries into the inline shard.
     */
    struct Imported
    {
        /// Indexes `imported`, dropping each repeat of an earlier key;
        /// `map` estimates each entry's bytes.
        Imported(std::vector<std::pair<Key, Value>> imported,
                 const LruMap<Key, Value, Hash, Equal> &map)
            : entries(std::move(imported)),
              slots(std::bit_ceil(2 * entries.size() + 2), 0)
        {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < entries.size(); ++i) {
                std::uint32_t &slot = slots[slotOf(entries[i].first)];
                if (slot != 0)
                    continue;
                if (kept != i)
                    entries[kept] = std::move(entries[i]);
                slot = static_cast<std::uint32_t>(++kept);
                bytes += map.estimateBytes(entries[kept - 1].first,
                                           entries[kept - 1].second);
            }
            entries.erase(entries.begin() + static_cast<long>(kept),
                          entries.end());
        }

        /// Where `key` is in slots (linear probing): its slot, or the
        /// empty one it would take.
        template <typename K>
        std::size_t slotOf(const K &key) const
        {
            const std::size_t mask = slots.size() - 1;
            std::size_t i = Hash{}(key) & mask;
            while (slots[i] != 0 &&
                   !Equal{}(entries[slots[i] - 1].first, key))
                i = (i + 1) & mask;
            return i;
        }

        template <typename K>
        const Value *find(const K &key) const
        {
            const std::uint32_t slot = slots[slotOf(key)];
            return slot != 0 ? &entries[slot - 1].second : nullptr;
        }

        std::vector<std::pair<Key, Value>> entries;
        /// Entry index + 1 per slot, 0 = empty; more than twice as
        /// many slots as entries, a power of two.
        std::vector<std::uint32_t> slots;
        long bytes = 0;
    };

    /// The imported entry of `key`, if any; the caller holds a shard's
    /// lock.
    template <typename K>
    const Value *findImported(const K &key) const
    {
        return imported_ ? imported_->find(key) : nullptr;
    }

    /**
     * Every allocated shard's lock, shared or exclusive, taken in index
     * order: shard 0 first, since the others are allocated under its
     * exclusive lock. While held, the shard layout cannot change.
     */
    template <bool Exclusive>
    class AllShards
    {
      public:
        explicit AllShards(const BoundedCache &cache) : cache_(cache)
        {
            lock(cache_.first_.mutex);
            count_ = cache_.rest_ ? cache_.shards_ : 1;
            for (unsigned s = 1; s < count_; ++s)
                lock(cache_.rest_[s - 1].mutex);
        }
        ~AllShards()
        {
            for (unsigned s = count_; s-- > 0;) {
                if constexpr (Exclusive)
                    cache_.shardAt(s).mutex.unlock();
                else
                    cache_.shardAt(s).mutex.unlock_shared();
            }
        }
        AllShards(const AllShards &) = delete;
        AllShards &operator=(const AllShards &) = delete;

        /// Calls fn(shard) on every allocated shard.
        template <typename Fn>
        void forEach(Fn &&fn) const
        {
            for (unsigned s = 0; s < count_; ++s)
                fn(cache_.shardAt(s));
        }

      private:
        static void lock(std::shared_mutex &mutex)
        {
            if constexpr (Exclusive)
                mutex.lock();
            else
                mutex.lock_shared();
        }

        const BoundedCache &cache_;
        unsigned count_ = 1;
    };

    Shard &shardAt(unsigned s) const
    {
        return s == 0 ? first_ : rest_[s - 1];
    }

    /// The shard of `key` among `active` shards: the top bits of its
    /// hash times the golden ratio (Fibonacci hashing), so the shard
    /// and the map's own bucket index use different hash bits.
    template <typename K>
    static unsigned shardIndex(const K &key, unsigned active)
    {
        if (active == 1)
            return 0;
        const std::uint64_t hash = static_cast<std::uint64_t>(Hash{}(key));
        return static_cast<unsigned>((hash * 0x9e3779b97f4a7c15ull) >>
                                     (64 - std::countr_zero(active)));
    }

    /// The shard of `key`; the caller holds every shard's lock.
    template <typename K>
    Shard &shardOfLocked(const K &key) const
    {
        return shardAt(
            shardIndex(key, active_.load(std::memory_order_relaxed)));
    }

    /**
     * Locks the shard of `key` with `lock` (shared or exclusive) and
     * returns it. The layout is re-read under the shard's lock and the
     * lookup retried if it changed meanwhile: the layout changes only
     * under every shard's exclusive lock, so once the re-read matches,
     * the key cannot live in any other shard.
     */
    template <typename Lock, typename K>
    Shard &lockShardOf(const K &key, Lock &lock) const
    {
        for (;;) {
            const unsigned active = active_.load(std::memory_order_acquire);
            Shard &shard = shardAt(shardIndex(key, active));
            lock = Lock(shard.mutex);
            if (active_.load(std::memory_order_relaxed) == active)
                return shard;
            lock.unlock();
        }
    }

    /// Spreads an unbounded one-shard cache over its shards before it
    /// stores an entry in a shard (see the class comment); a no-op for
    /// a one-shard cache.
    void spreadIfDue()
    {
        if (shards_ == 1 || bounded() ||
            active_.load(std::memory_order_acquire) > 1)
            return;
        AllShards<true> lock(*this);
        if (bounded() || active_.load(std::memory_order_relaxed) > 1)
            return;  // budgeted or spread meanwhile
        if (!rest_) {
            // Written under shard 0's exclusive lock, read by others
            // only after the release store of active_ below or under
            // shard 0's lock.
            rest_ = std::make_unique<PaddedShard[]>(shards_ - 1);
            for (unsigned s = 1; s < shards_; ++s)
                rest_[s - 1].map.setByteEstimate(first_.map.byteEstimate());
        }
        first_.map.moveEntries([&](const Key &key) {
            return &shardAt(shardIndex(key, shards_)).map;
        });
        active_.store(shards_, std::memory_order_release);
    }

    /// Applies capacity_ and max_bytes_ to the inline shard, first
    /// folding a spread cache, and any imported entries, into it when
    /// a budget applies. Caller holds every shard's exclusive lock.
    void rebudgetLocked()
    {
        if (bounded() && active_.load(std::memory_order_relaxed) > 1) {
            for (unsigned s = 1; s < shards_; ++s)
                rest_[s - 1].map.moveEntries(
                    [&](const Key &) { return &first_.map; });
            active_.store(1, std::memory_order_release);
        }
        if (bounded() && imported_) {
            for (auto &[key, value] : imported_->entries)
                first_.map.insert(std::move(key), std::move(value));
            imported_.reset();
        }
        first_.map.setCapacity(static_cast<std::size_t>(capacity_.load()));
        first_.map.setMaxBytes(max_bytes_.load());
    }

    const unsigned shards_;
    /// Shards in use: shards_ once spread, else 1. Changes only under
    /// every shard's exclusive lock.
    std::atomic<unsigned> active_{1};
    mutable Shard first_;
    /// Shards 1 .. shards_-1, allocated on the first spread and kept
    /// for the cache's lifetime (a reader may still hold a pointer).
    std::unique_ptr<PaddedShard[]> rest_;
    /// The adopted bulk import, if any (see Imported).
    std::unique_ptr<Imported> imported_;
    std::atomic<long> capacity_{0};
    std::atomic<long> max_bytes_{0};
};

}  // namespace temp::common
