#ifndef DMS_SERVE_CACHE_H
#define DMS_SERVE_CACHE_H

/**
 * @file
 * The memoizing result cache behind the compile service: a sharded
 * map from canonical request keys to single-flight entries. An
 * entry is created exactly once per key (the creator compiles; the
 * service publishes the result through the entry's promise), so
 * identical in-flight requests coalesce onto one compilation and
 * later identical requests are pure lookups.
 *
 * Keys are the canonical request text (see service.cc); the FNV
 * hash only picks the shard and avoids re-hashing the key string
 * per map probe — equality is always on the full key, so hash
 * collisions cannot alias two different requests.
 *
 * Capacity is enforced per shard by FIFO eviction over *droppable*
 * entries: a shard at its cap drops entries from the front of its
 * insertion order — a failed entry (a dead alias of a retired
 * compile) is retired, a ready one evicted — until it is under the
 * cap again. Hits never reorder the queue. In-flight entries are
 * never evicted: evicting one would break the coalescing guarantee,
 * so a shard whose entries are all still compiling may go over its
 * cap, and the next insert into that shard pays the overshoot back.
 * The conservation law inserted == size() + evictions() + retired()
 * holds exactly.
 */

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/strings.h" // fnv1a64, the shard/bucket hash

namespace dms {

struct CompileResult;

/**
 * One memo slot: a single-flight rendezvous that becomes a cached
 * result. Waiters (coalesced or hitting requests) block on the
 * shared future; the one compiling thread fulfills the promise and
 * flips ready.
 */
struct CacheEntry
{
    CacheEntry() : future(promise.get_future().share()) {}

    std::promise<std::shared_ptr<const CompileResult>> promise;
    std::shared_future<std::shared_ptr<const CompileResult>> future;
    std::atomic<bool> ready{false};

    /**
     * Set (before ready) when the compile resolved to a
     * non-retryable-as-cached outcome — a Failed/Expired/Rejected
     * result must not be served to later requests. A failed entry
     * still resolves its future (waiters already coalesced onto it
     * see the structured failure), but lookups treat it as absent
     * so the next request for the key retries the compile.
     */
    std::atomic<bool> failed{false};
};

/** Sharded single-flight memo map. */
class ResultCache
{
  public:
    /** How a key lookup resolved. */
    enum class Lookup : std::uint8_t {
        Hit,      ///< entry exists and its result is ready
        InFlight, ///< entry exists, compilation still running
        Inserted, ///< entry was created; the caller must compile
    };

    /**
     * @param shards   number of independent shards (>= 1)
     * @param capacity total ready-entry capacity across shards
     */
    ResultCache(int shards, int capacity);

    /**
     * Find or create the entry for @p key (@p hash must be
     * fnv1a64(key)). @p entry is always filled on return.
     */
    Lookup acquire(const std::string &key, std::uint64_t hash,
                   std::shared_ptr<CacheEntry> &entry);

    /**
     * Find the entry for @p key without creating one; nullptr when
     * absent *or failed* (a failed entry is logically gone — it is
     * physically reclaimed by retire/acquire/eviction). The
     * raw-text fast path of the service probes its alias map with
     * this before paying for canonicalization.
     */
    std::shared_ptr<CacheEntry> find(const std::string &key,
                                     std::uint64_t hash);

    /**
     * Eagerly reclaim a failed @p entry under @p key. Erases only
     * if the resident entry *is* @p entry (identity compare): a
     * fresh same-key entry inserted by a retrying request must not
     * be clobbered. Counted under retired(), never evictions().
     */
    void retire(const std::string &key, std::uint64_t hash,
                const std::shared_ptr<CacheEntry> &entry);

    /**
     * Map @p key to an @p entry owned elsewhere (capacity-bounded
     * like acquire). Used for raw-spelling aliases of a canonical
     * entry; inserting an existing key is a no-op.
     */
    void insertAlias(const std::string &key, std::uint64_t hash,
                     std::shared_ptr<CacheEntry> entry);

    /** Entries currently resident (ready + in-flight). */
    std::uint64_t size() const;

    /** Ready (successful) entries evicted for capacity so far. */
    std::uint64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** Failed entries reclaimed so far (never capacity events). */
    std::uint64_t retired() const
    {
        return retired_.load(std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        std::shared_ptr<CacheEntry> entry;
        /** This key's position in the shard's order list. */
        std::list<std::string>::iterator pos;
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, Slot> entries;
        /** Insertion order, front = first victim candidate. */
        std::list<std::string> order;
    };

    void evictIfFull(Shard &shard);
    void eraseLocked(Shard &shard, const std::string &key);

    std::vector<Shard> shards_;
    int perShardCap_;
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> retired_{0};
};

} // namespace dms

#endif // DMS_SERVE_CACHE_H
