/**
 * @file
 * Tests for the RunCache's persistent tier (experiments/disk_cache.hh)
 * and its AppRunResult JSON payload (run_result_json.hh): lossless
 * round-trip, publish/lookup, the corrupt-entries-are-misses contract,
 * LRU eviction under a byte budget, cross-"process" reuse (tier 0
 * dropped via clear(), everything answered from disk), and a
 * multi-threaded subset/superset stress over the shared cache.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/disk_cache.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "trace/apps.hh"
#include "util/json.hh"

using namespace jetty;
using experiments::AppRunResult;
using experiments::DiskCache;
using experiments::RunCache;
using experiments::RunRequest;

namespace
{

/** Fresh per-test cache root under the gtest temp dir. */
std::string
freshRoot(const std::string &name)
{
    const std::string root = ::testing::TempDir() + name;
    std::string cmd = "rm -rf '" + root + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "could not clear " << root;
    return root;
}

/** A small real simulation to serialize (deterministic). */
AppRunResult
sampleResult()
{
    experiments::SystemVariant variant;
    return experiments::runApp(trace::appByName("ff"), variant,
                               {"EJ-16x2", "IJ-8x4x7"}, 0.01);
}

RunRequest
sampleRequest(const char *app, std::vector<std::string> filters)
{
    RunRequest req;
    req.app = trace::appByName(app);
    req.filterSpecs = std::move(filters);
    req.accessScale = 0.01;
    return req;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

TEST(RunResultJson, RoundTripIsLossless)
{
    const AppRunResult original = sampleResult();
    const json::Value encoded = experiments::runResultToJson(original);

    AppRunResult restored;
    const std::string err = experiments::runResultFromJson(encoded,
                                                           restored);
    ASSERT_EQ(err, "");

    // Value identity through a second encode: canonical text equality
    // covers every serialized counter and double at once.
    const json::Value reencoded = experiments::runResultToJson(restored);
    EXPECT_EQ(encoded.dumpCanonical(), reencoded.dumpCanonical());
    EXPECT_EQ(restored.appName, original.appName);
    EXPECT_EQ(restored.totalRefs, original.totalRefs);
    EXPECT_EQ(restored.simSeconds, original.simSeconds);
    EXPECT_EQ(restored.filterNames, original.filterNames);
    EXPECT_EQ(restored.stats.procs.size(), original.stats.procs.size());
}

TEST(RunResultJson, ReaderRejectsMalformedPayloads)
{
    AppRunResult out;
    EXPECT_NE(experiments::runResultFromJson(json::Value::object(), out),
              "");
    json::Value half = experiments::runResultToJson(sampleResult());
    half.set("totalRefs", "not a number");
    EXPECT_NE(experiments::runResultFromJson(half, out), "");
}

TEST(DiskCacheTest, PublishThenLookupRoundTrips)
{
    const std::string root = freshRoot("jetty_dc_roundtrip");
    DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);

    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2", "IJ-8x4x7"};
    cache.publish("key-a", result, covered);

    AppRunResult got;
    std::set<std::string> gotCovered;
    ASSERT_TRUE(cache.lookup("key-a", got, gotCovered));
    EXPECT_EQ(gotCovered, covered);
    EXPECT_EQ(experiments::runResultToJson(got).dumpCanonical(),
              experiments::runResultToJson(result).dumpCanonical());

    // Unknown key: clean miss.
    EXPECT_FALSE(cache.lookup("key-b", got, gotCovered));
}

TEST(DiskCacheTest, CorruptEntriesAreEvictedMisses)
{
    const std::string root = freshRoot("jetty_dc_corrupt");
    DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
    const AppRunResult result = sampleResult();
    cache.publish("key-a", result, {"EJ-16x2"});
    const std::string file = root + "/" + DiskCache::entryFileFor("key-a");
    ASSERT_TRUE(fileExists(file));

    AppRunResult got;
    std::set<std::string> covered;

    // Truncated mid-file: miss, and the entry is unlinked.
    const std::string bytes = slurp(file);
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_FALSE(fileExists(file));

    // Wrong envelope version: same contract.
    cache.publish("key-a", result, {"EJ-16x2"});
    {
        std::string err;
        json::Value v = json::parse(slurp(file), &err);
        ASSERT_EQ(err, "");
        v.set("jetty_cache", experiments::kDiskCacheVersion + 1);
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        const std::string text = v.dumpCanonical();
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_FALSE(fileExists(file));

    // Filename collision (embedded key differs): miss, but the foreign
    // entry is left in place — it is some other key's valid data.
    cache.publish("key-a", result, {"EJ-16x2"});
    {
        std::string err;
        json::Value v = json::parse(slurp(file), &err);
        ASSERT_EQ(err, "");
        v.set("key", "some-other-key");
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        const std::string text = v.dumpCanonical();
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    EXPECT_FALSE(cache.lookup("key-a", got, covered));
    EXPECT_TRUE(fileExists(file));
}

TEST(DiskCacheTest, LruEvictionHonorsRecencyAndBudget)
{
    const std::string root = freshRoot("jetty_dc_lru");
    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2"};

    // Budget sized for roughly two entries of this payload, measured
    // from a real published entry (the envelope is pretty-printed, so
    // the canonical text undercounts).
    std::uint64_t entryBytes = 0;
    {
        DiskCache probe(root, experiments::kDefaultDiskBudgetBytes);
        probe.publish("probe", result, covered);
        struct stat st = {};
        ASSERT_EQ(::stat((root + "/" + DiskCache::entryFileFor("probe"))
                             .c_str(),
                         &st),
                  0);
        entryBytes = static_cast<std::uint64_t>(st.st_size);
    }
    freshRoot("jetty_dc_lru");
    DiskCache cache(root, entryBytes * 5 / 2);

    cache.publish("key-1", result, covered);
    cache.publish("key-2", result, covered);

    // Touch key-1 so key-2 becomes the least recently used...
    AppRunResult got;
    std::set<std::string> gotCovered;
    ASSERT_TRUE(cache.lookup("key-1", got, gotCovered));

    // ...then publishing key-3 must evict key-2, not key-1.
    cache.publish("key-3", result, covered);
    EXPECT_TRUE(cache.lookup("key-1", got, gotCovered));
    EXPECT_FALSE(cache.lookup("key-2", got, gotCovered));
    EXPECT_TRUE(cache.lookup("key-3", got, gotCovered));
}

TEST(DiskCacheTest, BatchRecencySurvivesIntoAFreshCache)
{
    // Hits bump recency in memory and one flush writes the batch; a new
    // DiskCache on the same root must evict in that order.
    const std::string root = freshRoot("jetty_dc_batch");
    const AppRunResult result = sampleResult();
    const std::set<std::string> covered = {"EJ-16x2"};
    const auto present = [&root](const std::string &key) {
        struct stat st = {};
        return ::stat((root + "/" + DiskCache::entryFileFor(key)).c_str(),
                      &st) == 0;
    };
    std::uint64_t entryBytes = 0;
    {
        DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
        for (const char *key : {"key-1", "key-2", "key-3"})
            cache.publish(key, result, covered);
        struct stat st = {};
        ASSERT_EQ(::stat((root + "/" + DiskCache::entryFileFor("key-1"))
                             .c_str(),
                         &st),
                  0);
        entryBytes = static_cast<std::uint64_t>(st.st_size);
        // One batch: key-1, then key-2; key-3 is now the oldest.
        AppRunResult got;
        std::set<std::string> gotCovered;
        ASSERT_TRUE(cache.lookup("key-1", got, gotCovered));
        ASSERT_TRUE(cache.lookup("key-2", got, gotCovered));
        cache.flushRecency();
    }
    DiskCache fresh(root, entryBytes * 7 / 2);
    fresh.publish("key-4", result, covered);
    EXPECT_FALSE(present("key-3"));
    EXPECT_TRUE(present("key-1"));
    EXPECT_TRUE(present("key-2"));
    fresh.publish("key-5", result, covered);
    EXPECT_FALSE(present("key-1"));
    EXPECT_TRUE(present("key-2"));
    EXPECT_TRUE(present("key-4"));
    EXPECT_TRUE(present("key-5"));
}

TEST(DiskCacheTest, ConcurrentCachesOnOneRootKeepEveryBump)
{
    // Two DiskCache instances on one root stand in for two processes:
    // each bumps its own key and flushes, over and over, at the same
    // time. Every flush loads, bumps and republishes index.json; without
    // the index lock the last writer wins and the other's bumps vanish.
    const std::string root = freshRoot("jetty_dc_concurrent");
    const AppRunResult result = sampleResult();
    const auto indexSeq = [&root] {
        std::string err;
        const json::Value v = json::parse(slurp(root + "/index.json"), &err);
        EXPECT_EQ(err, "");
        const json::Value *seq = v.find("seq");
        return seq ? seq->asU64() : 0;
    };
    {
        DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
        cache.publish("key-a", result, {"EJ-16x2"});
        cache.publish("key-b", result, {"EJ-16x2"});
    }
    const std::uint64_t seqBefore = indexSeq();

    constexpr int kFlushes = 40;
    const auto bumper = [&root](const std::string &key) {
        DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
        AppRunResult got;
        std::set<std::string> covered;
        for (int i = 0; i < kFlushes; ++i) {
            EXPECT_TRUE(cache.lookup(key, got, covered));
            cache.flushRecency();
        }
    };
    std::thread a(bumper, "key-a");
    std::thread b(bumper, "key-b");
    a.join();
    b.join();

    EXPECT_EQ(indexSeq(), seqBefore + 2 * kFlushes);
    std::string err;
    const json::Value index = json::parse(slurp(root + "/index.json"), &err);
    ASSERT_EQ(err, "");
    std::set<std::string> bumped;
    for (const auto &row : index.find("entries")->items()) {
        if (row.find("seq")->asU64() > seqBefore)
            bumped.insert(row.find("file")->asString());
    }
    EXPECT_EQ(bumped, (std::set<std::string>{DiskCache::entryFileFor("key-a"),
                                             DiskCache::entryFileFor("key-b")}));
}

TEST(DiskCacheTest, RebuildsFromDirectoryScanWhenIndexIsCorrupt)
{
    const std::string root = freshRoot("jetty_dc_index");
    const AppRunResult result = sampleResult();
    {
        DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
        cache.publish("key-a", result, {"EJ-16x2"});
    }
    {
        std::ofstream out(root + "/index.json",
                          std::ios::binary | std::ios::trunc);
        out << "{{{ not json";
    }
    DiskCache cache(root, experiments::kDefaultDiskBudgetBytes);
    AppRunResult got;
    std::set<std::string> covered;
    EXPECT_TRUE(cache.lookup("key-a", got, covered));
}

TEST(RunCacheDiskTier, FreshProcessAnswersEntirelyFromDisk)
{
    const std::string root = freshRoot("jetty_dc_process");
    auto &cache = RunCache::instance();
    cache.clear();
    cache.setDiskRoot(root);

    const std::vector<RunRequest> requests = {
        sampleRequest("lu", {"EJ-16x2", "IJ-8x4x7"}),
        sampleRequest("ff", {"EJ-16x2"}),
    };
    const auto first = experiments::runMany(requests);
    EXPECT_EQ(cache.simulations(), 2u);
    EXPECT_EQ(cache.diskHits(), 0u);

    // clear() models a fresh process: tier 0 and the digest memo are
    // gone, the disk tier survives.
    cache.clear();
    const auto second = experiments::runMany(requests);
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 2u);
    EXPECT_EQ(cache.hits(), 2u);

    // Bit-identical results, timing included (cache hits carry the
    // originating run's timing).
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(experiments::runResultToJson(first[i]).dumpCanonical(),
                  experiments::runResultToJson(second[i]).dumpCanonical());
    }

    cache.setDiskRoot("");
    cache.clear();
}

TEST(RunCacheDiskTier, SupersetOnDiskAnswersSubsetAndSubsetMerges)
{
    const std::string root = freshRoot("jetty_dc_superset");
    auto &cache = RunCache::instance();
    cache.clear();
    cache.setDiskRoot(root);

    // Publish a two-filter superset, then ask for a subset from a
    // "fresh process": covered from disk, no simulation.
    experiments::runMany({sampleRequest("lu", {"EJ-16x2", "IJ-8x4x7"})});
    cache.clear();
    experiments::runMany({sampleRequest("lu", {"IJ-8x4x7"})});
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 1u);

    // A strict superset re-simulates the union once and republishes;
    // the next fresh process sees all three filters covered.
    cache.clear();
    experiments::runMany(
        {sampleRequest("lu", {"EJ-16x2", "IJ-8x4x7", "EJ-32x4"})});
    EXPECT_EQ(cache.simulations(), 1u);
    cache.clear();
    experiments::runMany(
        {sampleRequest("lu", {"EJ-32x4", "EJ-16x2", "IJ-8x4x7"})});
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 1u);

    cache.setDiskRoot("");
    cache.clear();
}

TEST(RunCacheDiskTier, ConcurrentSubsetSupersetStress)
{
    const std::string root = freshRoot("jetty_dc_stress");
    auto &cache = RunCache::instance();
    cache.clear();
    cache.setDiskRoot(root);

    // Many threads hammering overlapping subset/superset requests for
    // the same cells: the shared two-tier cache must stay consistent
    // and every answer must carry the filters it was asked for.
    const std::vector<std::vector<std::string>> asks = {
        {"EJ-16x2"},
        {"IJ-8x4x7"},
        {"EJ-16x2", "IJ-8x4x7"},
        {"IJ-8x4x7", "EJ-16x2", "EJ-32x4"},
    };
    std::vector<std::thread> threads;
    std::vector<int> failures(8, 0);
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t]() {
            for (unsigned round = 0; round < 6; ++round) {
                const auto &filters = asks[(t + round) % asks.size()];
                const auto runs = experiments::runMany(
                    {sampleRequest("lu", filters),
                     sampleRequest("ff", filters)});
                for (const auto &run : runs) {
                    for (const auto &name : filters) {
                        // statsFor fatal()s on a missing filter; probe
                        // membership by hand instead.
                        bool found = false;
                        for (const auto &have : run.filterNames)
                            found = found || have == name;
                        if (!found)
                            ++failures[t];
                    }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (unsigned t = 0; t < 8; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;

    // Serial answers after the storm match a cold re-simulation.
    const auto cached =
        experiments::runMany({sampleRequest("lu", {"EJ-16x2"})}).front();
    cache.setDiskRoot("");
    cache.clear();
    const auto fresh =
        experiments::runMany({sampleRequest("lu", {"EJ-16x2"})}).front();
    EXPECT_EQ(cached.statsFor("EJ-16x2").probes,
              fresh.statsFor("EJ-16x2").probes);
    EXPECT_EQ(cached.statsFor("EJ-16x2").filtered,
              fresh.statsFor("EJ-16x2").filtered);
    cache.clear();
}
