/**
 * @file
 * On-disk tier of the RunCache (tier 1). One JSON file per
 * (variant, workload, scale) cell under a cache root, keyed by the same
 * canonical mini-spec text runCacheKey() produces for the in-memory
 * tier, so the two tiers answer exactly the same questions.
 *
 * Layout under the root:
 *
 *   <root>/<16-hex-fnv64-of-key>.json   — one entry per cell
 *   <root>/index.json                   — recency + size index for LRU
 *   <root>/index.lock                   — flock serializing index updates
 *
 * Hits bump recency in memory; the index is rewritten once per batch of
 * lookups (flushRecency), not once per hit. Every index update (a flush
 * or a publish) loads, bumps and republishes index.json under an
 * exclusive flock on index.lock, so concurrent processes sharing a root
 * never lose each other's bumps.
 *
 * Each entry is an envelope {"jetty_cache": <version>, "key": "<full
 * canonical key>", "covered": [filter specs...], "result": {...}} so a
 * filename hash collision is detected by comparing the embedded key, and
 * a semantic change to the simulator only needs a kDiskCacheVersion bump
 * to invalidate every stale entry.
 *
 * Robustness contract: the disk tier is an accelerator, never an
 * authority. Corrupt, truncated, or wrong-version entries are evicted
 * and reported as misses; a corrupt index is rebuilt from a directory
 * scan; every publish goes through util/atomic_file.hh so a writer
 * killed mid-publish leaves nothing readable at the final path. No
 * failure in this tier is ever fatal to the caller.
 */

#ifndef JETTY_EXPERIMENTS_DISK_CACHE_HH
#define JETTY_EXPERIMENTS_DISK_CACHE_HH

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "experiments/experiments.hh"
#include "util/json.hh"

namespace jetty::experiments
{

/** Entry-format version; bump when AppRunResult serialization or the
 *  simulator's semantics change so stale entries read as misses. */
constexpr std::uint64_t kDiskCacheVersion = 2;

/** Default byte budget for LRU eviction (overridable via
 *  JETTY_CACHE_BYTES or RunCache::setDiskBudget). */
constexpr std::uint64_t kDefaultDiskBudgetBytes = 256ull << 20;

class DiskCache
{
  public:
    /** Open (creating directories as needed) the cache at @p root. */
    DiskCache(std::string root, std::uint64_t budgetBytes);

    /** Writes any recency bumps still pending (flushRecency). */
    ~DiskCache();

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Look up the cell for canonical key @p key. On a hit, fills
     * @p result / @p covered, queues a bump of the entry's recency (see
     * flushRecency), and returns true. Corrupt, truncated, or
     * wrong-version entries are unlinked and read as misses; a
     * filename-collision entry (embedded key differs) is a miss but is
     * left in place.
     */
    bool lookup(const std::string &key, AppRunResult &result,
                std::set<std::string> &covered);

    /**
     * Write the recency bumps of the hits since the last flush to the
     * index, in hit order, with one atomic index publish. A batch of
     * lookups (runMany's) flushes once after it; publish() folds the
     * pending bumps in before it picks eviction victims, and the
     * destructor flushes what is left.
     */
    void flushRecency();

    /**
     * Publish (or overwrite) the cell for @p key atomically, then
     * evict least-recently-used entries until the tier fits the byte
     * budget (the just-published entry is never evicted). I/O failures
     * are swallowed: the tier simply misses next time.
     */
    void publish(const std::string &key, const AppRunResult &result,
                 const std::set<std::string> &covered);

    const std::string &root() const { return root_; }
    std::uint64_t budgetBytes() const { return budget_; }

    /** Entry filename (relative to the root) for a canonical key —
     *  16 hex digits of FNV-1a plus ".json". Exposed for tests. */
    static std::string entryFileFor(const std::string &key);

  private:
    json::Value loadIndexLocked();
    void storeIndexLocked(const json::Value &index);
    json::Value rebuildIndexLocked();

    std::string root_;
    std::uint64_t budget_;
    std::mutex mu_;
    /** Entry files hit since the last index write, in hit order. */
    std::vector<std::string> pendingBumps_;
};

} // namespace jetty::experiments

#endif // JETTY_EXPERIMENTS_DISK_CACHE_HH
