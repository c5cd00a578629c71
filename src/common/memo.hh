/**
 * @file
 * Thread-safe once-per-key memoization. The table maps a key to a
 * shared_future of the value: the first caller for a key computes
 * outside the table lock (so distinct keys build concurrently), every
 * concurrent duplicate waits on the same future, and later callers
 * hit the cache. If the compute function throws, the entry is removed
 * so a subsequent call can retry, and every waiter retries too: each
 * caller that fails gets an exception of its own, never one object
 * shared across threads.
 */

#ifndef SHOTGUN_COMMON_MEMO_HH
#define SHOTGUN_COMMON_MEMO_HH

#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

namespace shotgun
{

/** Point-in-time counters of an LruMemoCache. */
struct MemoCacheStats
{
    std::size_t entries = 0;     ///< Cached (completed) values.
    std::size_t bytes = 0;       ///< Accounted size of those values.
    std::size_t budgetBytes = 0; ///< Eviction threshold; 0 unbounded.
    std::size_t hits = 0;   ///< get()/tryGet() served from memory.
    std::size_t misses = 0; ///< get() that ran compute (or the
                            ///< backend), tryGet() that found nothing.
    std::size_t evictions = 0; ///< Entries dropped for the budget.

    /** Misses the persistent backend answered instead of compute. */
    std::size_t backendHits = 0;
};

/**
 * Once-per-key memoization with an optional byte budget and
 * least-recently-used eviction. While an entry lives, the first
 * caller computes outside the lock, concurrent duplicates wait on the
 * same future, and a throwing compute removes the entry and rethrows
 * while its waiters retry.
 *
 *  - Each completed entry is charged `bytesOf(key, value)` bytes
 *    (the constructor's sizing callback; a crude default otherwise).
 *    When the total exceeds the budget, least-recently-used
 *    *completed* entries are evicted until it fits again; in-flight
 *    computations are never evicted, and values already handed out
 *    stay alive through their shared_ptr. An evicted key simply
 *    recomputes on its next get() -- for pure functions the result
 *    is identical, so eviction can cost time but never staleness.
 *  - stats() exposes hit/miss/eviction counters for monitoring.
 *  - An optional write-through persistent backend (setBackend): a
 *    get() miss first consults `load` -- a hit there is cached in
 *    memory without running compute (counted as a backendHit) -- and
 *    a computed value is handed to `store` so it survives the
 *    process. Eviction only drops the in-memory copy; the backend
 *    serves the key again on its next miss.
 *  - tryGet()/put() for producers that obtain values asynchronously
 *    (the fleet coordinator: results arrive from remote workers, so
 *    there is no compute function to run in the caller).
 *
 * A budget of 0 disables eviction: every value lives as long as the
 * cache.
 */
template <typename Key, typename Value>
class LruMemoCache
{
  public:
    using BytesFn =
        std::function<std::size_t(const Key &, const Value &)>;

    /** Backend read: fill `value`, true on a hit. Must not throw. */
    using LoadFn = std::function<bool(const Key &, Value &)>;

    /** Backend write-through. Failures are the backend's to log. */
    using StoreFn = std::function<void(const Key &, const Value &)>;

    explicit LruMemoCache(std::size_t budget_bytes = 0,
                          BytesFn bytes_of = {})
        : budget_(budget_bytes), bytesOf_(std::move(bytes_of))
    {
    }

    /**
     * Attach a persistent write-through backend. Call before the
     * cache is shared across threads (the callbacks themselves are
     * invoked outside the cache lock and must be thread-safe).
     */
    void setBackend(LoadFn load, StoreFn store)
    {
        backendLoad_ = std::move(load);
        backendStore_ = std::move(store);
    }

    /**
     * Return the value for `key`, computing it (signature `Value()`)
     * only when absent. The returned shared_ptr keeps the value
     * alive independent of any later eviction.
     */
    template <typename Fn>
    std::shared_ptr<const Value> get(const Key &key, Fn &&compute)
    {
        for (;;) {
            std::shared_future<std::shared_ptr<const Value>> future;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                auto it = entries_.find(key);
                if (it == entries_.end()) {
                    std::promise<std::shared_ptr<const Value>> promise;
                    Entry entry;
                    entry.future = promise.get_future().share();
                    entries_.emplace(key, std::move(entry));
                    ++misses_;
                    lock.unlock();
                    return fill(key, promise, compute);
                }
                if (it->second.ready)
                    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
                ++hits_;
                future = it->second.future;
            }
            // A null value means the computing caller threw and erased
            // the entry: look again, so that a failure here is this
            // caller's own.
            if (auto value = future.get())
                return value;
        }
    }

    /**
     * Lookup without computing: the completed in-memory entry, else a
     * backend hit (cached in memory on the way through), else
     * nullptr. In-flight get() computations are not waited for --
     * tryGet() callers produce values themselves and use put().
     */
    std::shared_ptr<const Value> tryGet(const Key &key)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end() && it->second.ready) {
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
                ++hits_;
                return it->second.future.get();
            }
            ++misses_;
        }
        auto value = loadBackend(key);
        if (value == nullptr)
            return nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++backendHits_;
        }
        insertReady(key, value, /*store_through=*/false);
        return value;
    }

    /**
     * Insert a value produced elsewhere (write-through to the
     * backend). An existing or in-flight entry for the key wins --
     * values are pure functions of their key, so the first one is as
     * good as any -- and the put is then a no-op.
     */
    void put(const Key &key, Value value)
    {
        insertReady(key,
                    std::make_shared<const Value>(std::move(value)),
                    /*store_through=*/true);
    }

    /** put() of a value the caller keeps sharing: no copy. */
    void put(const Key &key, std::shared_ptr<const Value> value)
    {
        insertReady(key, std::move(value), /*store_through=*/true);
    }

    /**
     * Evict the least recently used completed entry whose key `keep`
     * rejects, for an owner that charges other state against the same
     * budget (sim/checkpoint.hh); false when `keep` holds every entry.
     * `keep` runs under the cache's lock.
     */
    template <typename Keep>
    bool evictOldest(Keep &&keep)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = lru_.end(); it != lru_.begin();) {
            --it;
            if (keep(*it))
                continue;
            auto entry = entries_.find(*it);
            bytes_ -= entry->second.bytes;
            entries_.erase(entry);
            lru_.erase(it);
            ++evictions_;
            return true;
        }
        return false;
    }

    /** Completed + in-flight entries. */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    MemoCacheStats stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MemoCacheStats stats;
        stats.entries = entries_.size();
        stats.bytes = bytes_;
        stats.budgetBytes = budget_;
        stats.hits = hits_;
        stats.misses = misses_;
        stats.evictions = evictions_;
        stats.backendHits = backendHits_;
        return stats;
    }

  private:
    /**
     * The backend's value of `key`, or nullptr. A value type with no
     * default constructor cannot be loaded, so it has no backend.
     */
    std::shared_ptr<const Value> loadBackend(const Key &key)
    {
        if constexpr (std::is_default_constructible_v<Value>) {
            if (backendLoad_) {
                Value loaded;
                if (backendLoad_(key, loaded))
                    return std::make_shared<const Value>(
                        std::move(loaded));
            }
        }
        return nullptr;
    }

    /**
     * Compute the value of `key`, whose entry this caller registered
     * with `promise`'s future, and complete the entry.
     */
    template <typename Fn>
    std::shared_ptr<const Value>
    fill(const Key &key,
         std::promise<std::shared_ptr<const Value>> &promise, Fn &compute)
    {
        std::shared_ptr<const Value> value;
        bool from_backend = false;
        try {
            // A persistent-backend hit replaces compute (and is not
            // written back: the backend already has it).
            value = loadBackend(key);
            from_backend = value != nullptr;
            if (value == nullptr)
                value = std::make_shared<const Value>(compute());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                entries_.erase(key);
            }
            // Waiters get no exception object: they retry, and any
            // that fail throw their own.
            promise.set_value(nullptr);
            throw;
        }
        if (!from_backend && backendStore_)
            backendStore_(key, *value);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            // Only this thread completes the entry, so it is still
            // present (eviction skips in-flight entries).
            it->second.bytes = bytesOf_ ? bytesOf_(key, *value)
                                        : sizeof(Value) + sizeof(Key);
            it->second.ready = true;
            lru_.push_front(key);
            it->second.lruIt = lru_.begin();
            bytes_ += it->second.bytes;
            if (from_backend)
                ++backendHits_;
            evictLocked();
        }
        promise.set_value(value);
        return value;
    }

    /** Insert an already-available value; existing entries win. */
    void insertReady(const Key &key,
                     std::shared_ptr<const Value> value,
                     bool store_through)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (entries_.find(key) != entries_.end())
                return;
            std::promise<std::shared_ptr<const Value>> promise;
            promise.set_value(value);
            Entry entry;
            entry.future = promise.get_future().share();
            entry.ready = true;
            entry.bytes = bytesOf_ ? bytesOf_(key, *value)
                                   : sizeof(Value) + sizeof(Key);
            auto it = entries_.emplace(key, std::move(entry)).first;
            lru_.push_front(key);
            it->second.lruIt = lru_.begin();
            bytes_ += it->second.bytes;
            evictLocked();
        }
        if (store_through && backendStore_)
            backendStore_(key, *value);
    }

    struct Entry
    {
        std::shared_future<std::shared_ptr<const Value>> future;
        typename std::list<Key>::iterator lruIt;
        bool ready = false; ///< Accounted and evictable.
        std::size_t bytes = 0;
    };

    /** Drop LRU completed entries until the budget fits. */
    void evictLocked()
    {
        if (budget_ == 0)
            return;
        while (bytes_ > budget_ && !lru_.empty()) {
            const Key victim = lru_.back();
            lru_.pop_back();
            auto it = entries_.find(victim);
            bytes_ -= it->second.bytes;
            entries_.erase(it);
            ++evictions_;
        }
    }

    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
    std::list<Key> lru_; ///< Front = most recently used.
    std::size_t budget_ = 0;
    std::size_t bytes_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
    std::size_t backendHits_ = 0;
    BytesFn bytesOf_;
    LoadFn backendLoad_;
    StoreFn backendStore_;
};

} // namespace shotgun

#endif // SHOTGUN_COMMON_MEMO_HH
