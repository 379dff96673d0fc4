#include "serve/cache.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

ResultCache::ResultCache(int shards, int capacity)
    : shards_(static_cast<size_t>(std::max(shards, 1)))
{
    int n = static_cast<int>(shards_.size());
    perShardCap_ = std::max(1, (std::max(capacity, 1) + n - 1) / n);
}

/** Erase @p key from both the map and the order list. */
void
ResultCache::eraseLocked(Shard &shard, const std::string &key)
{
    auto eit = shard.entries.find(key);
    DMS_ASSERT(eit != shard.entries.end(),
               "cache erase of absent key");
    shard.order.erase(eit->second.pos);
    shard.entries.erase(eit);
}

/**
 * Make room for one insert: drop droppable entries from the front
 * of the insertion order until the shard is under its cap. A failed
 * entry (a dead alias of a retired compile) counts under retired(),
 * a ready one under evictions(). In-flight entries are pinned —
 * evicting one would let a duplicate request start a second
 * compilation of the same key — so a shard of in-flight entries
 * stays over its cap until a later insert finds them droppable.
 * Caller holds the shard lock.
 */
void
ResultCache::evictIfFull(Shard &shard)
{
    const size_t cap = static_cast<size_t>(perShardCap_);
    auto oit = shard.order.begin();
    while (shard.entries.size() >= cap && oit != shard.order.end()) {
        auto eit = shard.entries.find(*oit);
        DMS_ASSERT(eit != shard.entries.end(),
                   "cache order entry without map entry");
        const CacheEntry &e = *eit->second.entry;
        if (e.failed.load(std::memory_order_acquire)) {
            retired_.fetch_add(1, std::memory_order_relaxed);
        } else if (e.ready.load(std::memory_order_acquire)) {
            evictions_.fetch_add(1, std::memory_order_relaxed);
        } else {
            ++oit; // in-flight: pinned
            continue;
        }
        shard.entries.erase(eit);
        oit = shard.order.erase(oit);
    }
}

ResultCache::Lookup
ResultCache::acquire(const std::string &key, std::uint64_t hash,
                     std::shared_ptr<CacheEntry> &entry)
{
    Shard &shard = shards_[hash % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);

    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        if (it->second.entry->failed.load(
                std::memory_order_acquire)) {
            // Lazy reclamation: the resident entry's compile
            // failed, so this request retries with a fresh entry.
            eraseLocked(shard, key);
            retired_.fetch_add(1, std::memory_order_relaxed);
        } else {
            entry = it->second.entry;
            return entry->ready.load(std::memory_order_acquire)
                       ? Lookup::Hit
                       : Lookup::InFlight;
        }
    }

    evictIfFull(shard);
    entry = std::make_shared<CacheEntry>();
    auto pos = shard.order.insert(shard.order.end(), key);
    shard.entries.emplace(key, Slot{entry, pos});
    return Lookup::Inserted;
}

std::shared_ptr<CacheEntry>
ResultCache::find(const std::string &key, std::uint64_t hash)
{
    Shard &shard = shards_[hash % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() ||
        it->second.entry->failed.load(std::memory_order_acquire))
        return nullptr;
    return it->second.entry;
}

void
ResultCache::retire(const std::string &key, std::uint64_t hash,
                    const std::shared_ptr<CacheEntry> &entry)
{
    Shard &shard = shards_[hash % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    // Identity compare: a retrying request may already have
    // replaced the slot with a fresh entry we must not clobber
    // (and acquire may have lazily reclaimed this one already).
    if (it == shard.entries.end() || it->second.entry != entry)
        return;
    eraseLocked(shard, key);
    retired_.fetch_add(1, std::memory_order_relaxed);
}

void
ResultCache::insertAlias(const std::string &key, std::uint64_t hash,
                         std::shared_ptr<CacheEntry> entry)
{
    Shard &shard = shards_[hash % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.count(key))
        return;
    evictIfFull(shard);
    auto pos = shard.order.insert(shard.order.end(), key);
    shard.entries.emplace(key, Slot{std::move(entry), pos});
}

std::uint64_t
ResultCache::size() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.entries.size();
    }
    return total;
}

} // namespace dms
