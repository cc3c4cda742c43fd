#include "experiments/disk_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <utility>
#include <vector>

#include <dirent.h>

#include "experiments/run_result_json.hh"

namespace jetty::experiments
{

namespace
{

constexpr const char *kIndexFile = "index.json";
constexpr const char *kIndexLockFile = "index.lock";

/**
 * Exclusive advisory lock across processes (and across DiskCache
 * instances in one process: flock binds to the open file description)
 * for one load-modify-publish of the index. It locks a sibling file:
 * index.json is replaced by rename on every publish, so a lock on it
 * would guard an inode the next writer no longer opens. Best effort,
 * like the rest of the tier: when the lock file cannot be opened the
 * update runs unlocked and may lose a concurrent writer's bumps.
 */
class IndexLock
{
  public:
    explicit IndexLock(const std::string &root)
        : fd_(::open((root + "/" + kIndexLockFile).c_str(),
                     O_RDWR | O_CREAT | O_CLOEXEC, 0644))
    {
        if (fd_ >= 0) {
            while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
            }
        }
    }

    /** Closing the descriptor releases the lock. */
    ~IndexLock()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    IndexLock(const IndexLock &) = delete;
    IndexLock &operator=(const IndexLock &) = delete;

  private:
    int fd_;
};

/** mkdir -p. Best effort: the cache degrades to all-miss if it fails. */
void
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial += path[i];
            continue;
        }
        if (!partial.empty())
            ::mkdir(partial.c_str(), 0755);
        if (i < path.size())
            partial += '/';
    }
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/** One row of the recency index. */
struct IndexRow
{
    std::string file;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
};

/** Make @p file, of @p bytes, the most recent row of @p rows. */
void
bumpRow(std::vector<IndexRow> &rows, std::uint64_t &seq,
        const std::string &file, std::uint64_t bytes)
{
    ++seq;
    for (auto &row : rows) {
        if (row.file == file) {
            row.seq = seq;
            row.bytes = bytes;
            return;
        }
    }
    rows.push_back({file, bytes, seq});
}

bool
parseIndex(const json::Value &v, std::vector<IndexRow> &rows,
           std::uint64_t &seq)
{
    const json::Value *ver = v.find("jetty_cache_index");
    if (!ver || !ver->isNumber() || !ver->fitsU64() || ver->asU64() != 1)
        return false;
    const json::Value *s = v.find("seq");
    if (!s || !s->isNumber() || !s->fitsU64())
        return false;
    seq = s->asU64();
    const json::Value *entries = v.find("entries");
    if (!entries || !entries->isArray())
        return false;
    for (const auto &e : entries->items()) {
        const json::Value *file = e.find("file");
        const json::Value *bytes = e.find("bytes");
        const json::Value *rowSeq = e.find("seq");
        if (!file || !file->isString() || !bytes || !bytes->isNumber() ||
            !bytes->fitsU64() || !rowSeq || !rowSeq->isNumber() ||
            !rowSeq->fitsU64())
            return false;
        rows.push_back(
            {file->asString(), bytes->asU64(), rowSeq->asU64()});
    }
    return true;
}

/** Bump, in order, every entry file of @p files still under @p root (an
 *  entry another process evicted since its hit stays out). */
void
bumpExisting(const std::string &root, const std::vector<std::string> &files,
             std::vector<IndexRow> &rows, std::uint64_t &seq)
{
    for (const auto &file : files) {
        struct stat st;
        if (::stat((root + "/" + file).c_str(), &st) == 0)
            bumpRow(rows, seq, file, static_cast<std::uint64_t>(st.st_size));
    }
}

json::Value
buildIndex(const std::vector<IndexRow> &rows, std::uint64_t seq)
{
    json::Value v = json::Value::object();
    v.set("jetty_cache_index", std::uint64_t{1});
    v.set("seq", seq);
    json::Value entries = json::Value::array();
    for (const auto &row : rows) {
        json::Value e = json::Value::object();
        e.set("file", row.file);
        e.set("bytes", row.bytes);
        e.set("seq", row.seq);
        entries.push(std::move(e));
    }
    v.set("entries", std::move(entries));
    return v;
}

} // namespace

DiskCache::DiskCache(std::string root, std::uint64_t budgetBytes)
    : root_(std::move(root)), budget_(budgetBytes)
{
    makeDirs(root_);
}

DiskCache::~DiskCache()
{
    flushRecency();
}

void
DiskCache::flushRecency()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (pendingBumps_.empty())
        return;
    const IndexLock indexLock(root_);
    json::Value index = loadIndexLocked();
    std::vector<IndexRow> rows;
    std::uint64_t seq = 0;
    parseIndex(index, rows, seq);
    bumpExisting(root_, pendingBumps_, rows, seq);
    pendingBumps_.clear();
    storeIndexLocked(buildIndex(rows, seq));
}

std::string
DiskCache::entryFileFor(const std::string &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return std::string(hex) + ".json";
}

json::Value
DiskCache::loadIndexLocked()
{
    std::string err;
    json::Value v = json::parseFile(root_ + "/" + kIndexFile, &err);
    std::vector<IndexRow> rows;
    std::uint64_t seq = 0;
    if (err.empty() && parseIndex(v, rows, seq))
        return v;
    return rebuildIndexLocked();
}

void
DiskCache::storeIndexLocked(const json::Value &index)
{
    // Best effort: a lost index only costs recency precision — it is
    // rebuilt from a directory scan on the next load.
    json::writeFileErr(root_ + "/" + kIndexFile, index);
}

json::Value
DiskCache::rebuildIndexLocked()
{
    std::vector<IndexRow> rows;
    std::uint64_t seq = 0;
    DIR *dir = ::opendir(root_.c_str());
    if (dir) {
        while (const dirent *ent = ::readdir(dir)) {
            const std::string name = ent->d_name;
            // Entry files are exactly 16 hex digits + ".json".
            if (name.size() != 21 || name.substr(16) != ".json")
                continue;
            if (name.find_first_not_of("0123456789abcdef") != 16)
                continue;
            rows.push_back({name, fileBytes(root_ + "/" + name), ++seq});
        }
        ::closedir(dir);
    }
    return buildIndex(rows, seq);
}

bool
DiskCache::lookup(const std::string &key, AppRunResult &result,
                  std::set<std::string> &covered)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::string file = entryFileFor(key);
    const std::string path = root_ + "/" + file;

    std::string err;
    json::Value v = json::parseFile(path, &err);
    if (!err.empty()) {
        struct stat st;
        if (::stat(path.c_str(), &st) == 0)
            ::unlink(path.c_str());  // readable-but-corrupt: evict
        return false;
    }

    const json::Value *ver = v.find("jetty_cache");
    const json::Value *storedKey = v.find("key");
    const json::Value *coveredArr = v.find("covered");
    const json::Value *resultObj = v.find("result");
    if (!ver || !ver->isNumber() || !ver->fitsU64() ||
        ver->asU64() != kDiskCacheVersion || !storedKey ||
        !storedKey->isString() || !coveredArr || !coveredArr->isArray() ||
        !resultObj) {
        ::unlink(path.c_str());  // wrong version / malformed envelope
        return false;
    }
    if (storedKey->asString() != key)
        return false;  // filename hash collision: miss, leave in place

    std::set<std::string> cov;
    for (const auto &item : coveredArr->items()) {
        if (!item.isString()) {
            ::unlink(path.c_str());
            return false;
        }
        cov.insert(item.asString());
    }
    AppRunResult res;
    const std::string why = runResultFromJson(*resultObj, res);
    if (!why.empty()) {
        ::unlink(path.c_str());
        return false;
    }

    // Hit: the recency bump waits for the batch's flush.
    pendingBumps_.push_back(file);

    result = std::move(res);
    covered = std::move(cov);
    return true;
}

void
DiskCache::publish(const std::string &key, const AppRunResult &result,
                   const std::set<std::string> &covered)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::string file = entryFileFor(key);
    const std::string path = root_ + "/" + file;

    json::Value entry = json::Value::object();
    entry.set("jetty_cache", kDiskCacheVersion);
    entry.set("key", key);
    json::Value cov = json::Value::array();
    for (const auto &spec : covered)
        cov.push(spec);
    entry.set("covered", std::move(cov));
    entry.set("result", runResultToJson(result));

    const std::string why = json::writeFileErr(path, entry);
    if (!why.empty())
        return;  // best effort: the tier just misses next time

    const IndexLock indexLock(root_);
    json::Value index = loadIndexLocked();
    std::vector<IndexRow> rows;
    std::uint64_t seq = 0;
    parseIndex(index, rows, seq);
    // Earlier hits are more recent than anything before them and less
    // recent than this publish.
    bumpExisting(root_, pendingBumps_, rows, seq);
    pendingBumps_.clear();
    bumpRow(rows, seq, file, fileBytes(path));

    // LRU eviction by byte budget; never evict the entry just published.
    std::uint64_t total = 0;
    for (const auto &row : rows)
        total += row.bytes;
    std::sort(rows.begin(), rows.end(),
              [](const IndexRow &a, const IndexRow &b) {
                  return a.seq < b.seq;
              });
    std::vector<IndexRow> kept;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (total > budget_ && rows[i].file != file) {
            ::unlink((root_ + "/" + rows[i].file).c_str());
            total -= rows[i].bytes;
            continue;
        }
        kept.push_back(rows[i]);
    }
    storeIndexLocked(buildIndex(kept, seq));
}

} // namespace jetty::experiments
