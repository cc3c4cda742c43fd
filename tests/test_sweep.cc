/**
 * @file
 * Tests for the parallel sweep engine and the layers on top of it: the
 * jobs=1 vs jobs=N determinism guarantee, the TraceSource clone()/reset()
 * contract, the keyed run cache (identical pairs simulate once per
 * process), and the AppRunResult sizing fix for 8-way variants.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "api/report.hh"
#include "experiments/experiments.hh"
#include "sim/sweep.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

using namespace jetty;
using experiments::RunCache;
using experiments::RunRequest;
using experiments::SystemVariant;

namespace
{

/** Bit-exact comparison of two filter-coverage stats blocks. */
void
expectSameStats(const filter::FilterStats &a, const filter::FilterStats &b)
{
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.filtered, b.filtered);
    EXPECT_EQ(a.wouldMiss, b.wouldMiss);
    EXPECT_EQ(a.filteredWouldMiss, b.filteredWouldMiss);
    EXPECT_EQ(a.snoopAllocs, b.snoopAllocs);
    EXPECT_EQ(a.fillUpdates, b.fillUpdates);
    EXPECT_EQ(a.evictUpdates, b.evictUpdates);
    EXPECT_EQ(a.safetyViolations, b.safetyViolations);
}

/** A small cross-product job list: three apps on two variants. */
std::vector<sim::SweepJob>
sampleJobs()
{
    std::vector<sim::SweepJob> jobs;
    for (const char *app : {"lu", "ff", "ra"}) {
        for (unsigned nprocs : {4u, 8u}) {
            SystemVariant variant;
            variant.nprocs = nprocs;
            sim::SweepJob job;
            job.app = trace::appByName(app);
            job.cfg = variant.smpConfig();
            job.cfg.filterSpecs = {"EJ-16x2", "IJ-8x4x7"};
            job.accessScale = 0.01;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace

TEST(SweepRunner, DefaultJobsIsPositive)
{
    EXPECT_GE(sim::SweepRunner::defaultJobs(), 1u);
}

TEST(SweepRunner, MalformedJobsEnvFallsBackToHardwareDefault)
{
    // JETTY_JOBS=4x used to read as 4; it must be ignored instead. The
    // count is hardware + 1 so the garbage-free prefix can never equal
    // the fallback by accident.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const char *old = std::getenv("JETTY_JOBS");
    const std::string saved = old ? old : "";
    const std::string n = std::to_string(hw + 1);

    ::setenv("JETTY_JOBS", (n + "x").c_str(), 1);
    const unsigned garbage = sim::SweepRunner::defaultJobs();
    ::setenv("JETTY_JOBS", n.c_str(), 1);
    const unsigned clean = sim::SweepRunner::defaultJobs();
    if (old)
        ::setenv("JETTY_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("JETTY_JOBS");

    EXPECT_EQ(garbage, hw);
    EXPECT_EQ(clean, hw + 1);
}

TEST(SweepRunner, SerialAndParallelRunsAreBitIdentical)
{
    // The correctness anchor of the whole engine: the worker count
    // changes wall-clock time, never numbers.
    const auto jobs = sampleJobs();

    sim::SweepRunner serial(1);
    sim::SweepRunner parallel(4);
    const auto a = serial.run(jobs);
    const auto b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].memoryAllocated, b[i].memoryAllocated);
        EXPECT_EQ(a[i].filterNames, b[i].filterNames);

        const auto agg_a = a[i].stats.aggregate();
        const auto agg_b = b[i].stats.aggregate();
        EXPECT_EQ(agg_a.accesses, agg_b.accesses);
        EXPECT_EQ(agg_a.l1Hits, agg_b.l1Hits);
        EXPECT_EQ(agg_a.l2LocalHits, agg_b.l2LocalHits);
        EXPECT_EQ(agg_a.snoopTagProbes, agg_b.snoopTagProbes);
        EXPECT_EQ(agg_a.snoopMisses, agg_b.snoopMisses);

        ASSERT_EQ(a[i].filterStats.size(), b[i].filterStats.size());
        for (std::size_t f = 0; f < a[i].filterStats.size(); ++f)
            expectSameStats(a[i].filterStats[f], b[i].filterStats[f]);
    }
}

TEST(SweepRunner, PoolIsReusableAcrossBatches)
{
    sim::SweepRunner runner(2);
    const auto jobs = sampleJobs();
    const auto first = runner.run({jobs[0]});
    const auto again = runner.run({jobs[0], jobs[1]});
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(again.size(), 2u);
    expectSameStats(first[0].filterStats[0], again[0].filterStats[0]);
}

TEST(TraceSourceContract, ResetReplaysTheSyntheticStream)
{
    const trace::Workload workload(trace::appByName("lu"), 4, 0.005);
    auto src = workload.makeSource(1);
    const auto first = trace::collect(*src, 0);
    ASSERT_GT(first.size(), 0u);

    trace::TraceRecord rec;
    EXPECT_FALSE(src->next(rec));  // exhausted
    src->reset();
    const auto second = trace::collect(*src, 0);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].addr, second[i].addr) << i;
        EXPECT_EQ(first[i].type, second[i].type) << i;
    }
}

TEST(TraceSourceContract, CloneIsIndependentAndComplete)
{
    const trace::Workload workload(trace::appByName("ff"), 4, 0.005);
    auto src = workload.makeSource(0);
    const auto full = trace::collect(*src, 0);

    // Clone a half-consumed source: the clone must replay from the start.
    src->reset();
    trace::TraceRecord rec;
    for (std::size_t i = 0; i < full.size() / 2; ++i)
        ASSERT_TRUE(src->next(rec));
    auto clone = src->clone();
    const auto replay = trace::collect(*clone, 0);

    ASSERT_EQ(replay.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(replay[i].addr, full[i].addr) << i;
}

TEST(TraceSourceContract, VectorSourceCloneAndReset)
{
    const std::vector<trace::TraceRecord> records{
        {AccessType::Read, 0x100}, {AccessType::Write, 0x200}};
    trace::VectorTraceSource src(records);
    trace::TraceRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.addr, 0x100u);

    auto clone = src.clone();
    ASSERT_TRUE(clone->next(rec));
    EXPECT_EQ(rec.addr, 0x100u);  // clone starts from the beginning

    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.addr, 0x200u);  // the original kept its position
    EXPECT_FALSE(src.next(rec));
    src.reset();
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.addr, 0x100u);
}

TEST(RunCacheTest, IdenticalPairsSimulateOncePerProcess)
{
    auto &cache = RunCache::instance();
    cache.clear();

    SystemVariant variant;
    const auto app = trace::appByName("lu");

    experiments::runApp(app, variant, {"EJ-32x4", "NULL"}, 0.01);
    EXPECT_EQ(cache.simulations(), 1u);

    // A subset request (any spelling) is a pure cache hit.
    const auto hit = experiments::runApp(app, variant, {"null"}, 0.01);
    EXPECT_EQ(cache.simulations(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(hit.filterNames, std::vector<std::string>{"NULL"});

    // A new spec for the same pair re-simulates once, with the union.
    const auto grown =
        experiments::runApp(app, variant, {"IJ-8x4x7", "EJ-32x4"}, 0.01);
    EXPECT_EQ(cache.simulations(), 2u);
    EXPECT_EQ(grown.filterNames.size(), 2u);

    // Different variant or scale means a different key.
    SystemVariant v8 = variant;
    v8.nprocs = 8;
    experiments::runApp(app, v8, {"NULL"}, 0.01);
    EXPECT_EQ(cache.simulations(), 3u);
}

TEST(RunCacheTest, BatchDeduplicatesAndPreservesOrder)
{
    auto &cache = RunCache::instance();
    cache.clear();

    SystemVariant variant;
    std::vector<RunRequest> requests;
    for (const char *name : {"lu", "ff", "lu", "ff"}) {
        RunRequest req;
        req.app = trace::appByName(name);
        req.variant = variant;
        req.filterSpecs = {"EJ-16x2"};
        req.accessScale = 0.01;
        requests.push_back(std::move(req));
    }

    const auto runs = experiments::runMany(requests, 2);
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(cache.simulations(), 2u);  // two unique pairs
    EXPECT_EQ(runs[0].abbrev, "lu");
    EXPECT_EQ(runs[1].abbrev, "ff");
    EXPECT_EQ(runs[2].abbrev, "lu");
    EXPECT_EQ(runs[3].abbrev, "ff");
    expectSameStats(runs[0].statsFor("EJ-16x2"), runs[2].statsFor("EJ-16x2"));
}

TEST(RunCacheTest, MergedResultsIdenticalForAnyJobsCount)
{
    // The acceptance anchor at the experiments layer: a --jobs 4 sweep
    // produces merged filter stats identical to a serial run.
    auto &cache = RunCache::instance();
    const std::vector<std::string> specs{"EJ-32x4", "HJ(IJ-9x4x7,EJ-32x4)"};
    std::vector<RunRequest> requests;
    for (const auto &app : trace::paperApps()) {
        RunRequest req;
        req.app = app;
        req.filterSpecs = specs;
        req.accessScale = 0.01;
        requests.push_back(std::move(req));
    }

    cache.clear();
    const auto serial = experiments::runMany(requests, 1);
    cache.clear();
    const auto parallel = experiments::runMany(requests, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].appName);
        EXPECT_EQ(serial[i].abbrev, parallel[i].abbrev);
        for (const auto &spec : specs) {
            expectSameStats(serial[i].statsFor(spec),
                            parallel[i].statsFor(spec));
        }
        const auto ea = serial[i].stats.aggregate();
        const auto eb = parallel[i].stats.aggregate();
        EXPECT_EQ(ea.accesses, eb.accesses);
        EXPECT_EQ(ea.snoopMisses, eb.snoopMisses);
        EXPECT_EQ(serial[i].traffic.allTagAccesses(),
                  parallel[i].traffic.allTagAccesses());
    }
}

TEST(SweepRunner, TinyTraceReportsNoRateInsteadOfGarbage)
{
    // A job shorter than one delivery batch finishes inside the timer's
    // resolution; historically refs/sec then reported inf (elapsed
    // rounded to 0). It must instead flag refsTooFewForRate and report
    // a rate of exactly 0.
    const std::string path =
        ::testing::TempDir() + "jetty_tiny_trace.jtt";
    std::vector<trace::TraceRecord> recs;
    for (int i = 0; i < 3; ++i)
        recs.push_back({AccessType::Read, 0x1000u + 32u * i});
    trace::writeTraceFile(path, recs);

    SystemVariant variant;
    sim::SweepJob job;
    job.cfg = variant.smpConfig();
    job.cfg.filterSpecs = {"NULL"};
    job.traceFiles = {path};  // 3 records cloned onto every processor

    const auto res = sim::SweepRunner::runOne(job);
    EXPECT_EQ(res.totalRefs, 3u * job.cfg.nprocs);
    EXPECT_LT(res.totalRefs, job.cfg.batchRefs);
    EXPECT_TRUE(res.refsTooFewForRate);
    EXPECT_EQ(res.refsPerSecond(), 0.0);
    EXPECT_FALSE(std::isinf(res.refsPerSecond()));
    std::remove(path.c_str());
}

TEST(SweepRunner, SplitBusJobCarriesPerBusStats)
{
    SystemVariant variant;
    variant.snoopBuses = 4;
    sim::SweepJob job;
    job.app = trace::appByName("lu");
    job.cfg = variant.smpConfig();
    job.cfg.filterSpecs = {"NULL"};
    job.accessScale = 0.01;

    const auto res = sim::SweepRunner::runOne(job);
    ASSERT_EQ(res.stats.perBus.size(), 4u);
    std::uint64_t txns = 0;
    for (const auto &bus : res.stats.perBus)
        txns += bus.transactions;
    EXPECT_EQ(txns, res.stats.snoopTransactions);
    EXPECT_GT(txns, 0u);

    // The same job through the experiment layer keys the cache by the
    // bus count: a different snoopBuses is a different simulation.
    RunCache::instance().clear();
    RunRequest req;
    req.app = job.app;
    req.variant = variant;
    req.filterSpecs = {"NULL"};
    req.accessScale = 0.01;
    RunRequest req1 = req;
    req1.variant.snoopBuses = 1;
    experiments::runMany({req, req1});
    EXPECT_EQ(RunCache::instance().simulations(), 2u);
}

TEST(SweepRunner, ReportsPerJobThroughput)
{
    const auto job = sampleJobs()[0];
    const auto res = sim::SweepRunner::runOne(job);
    EXPECT_EQ(res.totalRefs, res.stats.aggregate().accesses);
    EXPECT_GT(res.totalRefs, 0u);
    EXPECT_GT(res.elapsedSeconds, 0.0);
    EXPECT_GT(res.refsPerSecond(), 0.0);

    sim::SweepRunner runner(2);
    const auto batch = runner.run({job, job});
    EXPECT_GT(runner.lastBatchSeconds(), 0.0);
    EXPECT_GT(sim::SweepRunner::aggregateRefsPerSecond(batch), 0.0);
}

TEST(SweepRunner, FileBackedJobMatchesInMemoryReplay)
{
    // Capture a small per-processor trace set, then check the streaming
    // file-backed job simulates exactly what vector replay of the same
    // records does.
    const std::string path = "/tmp/jetty_test_sweep_capture.bin";
    const trace::Workload workload(trace::appByName("lu"), 4, 0.01);
    {
        trace::TraceFileWriter writer(path, 4);
        for (unsigned p = 0; p < 4; ++p) {
            auto src = workload.makeSource(p);
            writer.append(trace::collect(*src));
            writer.endStream();
        }
        writer.close();
    }

    SystemVariant variant;
    sim::SweepJob job;
    job.cfg = variant.smpConfig();
    job.cfg.filterSpecs = {"EJ-16x2"};
    job.traceFiles = {path};
    const auto from_file = sim::SweepRunner::runOne(job);

    sim::SmpSystem sys(job.cfg);
    std::vector<trace::TraceSourcePtr> sources;
    for (unsigned p = 0; p < 4; ++p)
        sources.push_back(std::make_unique<trace::VectorTraceSource>(
            trace::readTraceStream(path, p)));
    sys.attachSources(std::move(sources));
    sys.run();

    const auto a = from_file.stats.aggregate();
    const auto b = sys.stats().aggregate();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.snoopTagProbes, b.snoopTagProbes);
    EXPECT_EQ(a.snoopMisses, b.snoopMisses);
    expectSameStats(from_file.filterStats[0], sys.mergedFilterStats(0));
    std::remove(path.c_str());
}

TEST(RunCacheTest, FileBackedWorkloadsKeyByContentDigest)
{
    auto &cache = RunCache::instance();
    cache.clear();

    // Two identical captures under different paths, one divergent one.
    const std::string a = "/tmp/jetty_test_digest_a.bin";
    const std::string b = "/tmp/jetty_test_digest_b.bin";
    const std::string c = "/tmp/jetty_test_digest_c.bin";
    std::vector<trace::TraceRecord> recs;
    {
        const trace::Workload workload(trace::appByName("ff"), 2, 0.01);
        auto src = workload.makeSource(0);
        recs = trace::collect(*src, 20000);
    }
    trace::writeTraceFile(a, recs);
    trace::writeTraceFile(b, recs);
    recs[0].addr ^= 0x40;
    trace::writeTraceFile(c, recs);

    const auto request = [](const std::string &file) {
        RunRequest req;
        req.variant.nprocs = 4;
        req.traceFiles = {file};
        req.filterSpecs = {"EJ-16x2"};
        req.app.name = "capture:" + file;
        return req;
    };

    // Same content at a different path: pure cache hit.
    const auto first = experiments::runMany({request(a)}).front();
    EXPECT_EQ(cache.simulations(), 1u);
    const auto second = experiments::runMany({request(b)}).front();
    EXPECT_EQ(cache.simulations(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    expectSameStats(first.statsFor("EJ-16x2"), second.statsFor("EJ-16x2"));

    // Different content: a different key, so it re-simulates.
    experiments::runMany({request(c)});
    EXPECT_EQ(cache.simulations(), 2u);

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

namespace
{

/** Two distinct same-length captures (fixed 8-byte records, equal
 *  counts — rewriting one over the other keeps the file size). */
void
makeDigestFixtures(std::vector<trace::TraceRecord> &recsA,
                   std::vector<trace::TraceRecord> &recsB)
{
    const trace::Workload workload(trace::appByName("ff"), 2, 0.01);
    auto src = workload.makeSource(0);
    recsA = trace::collect(*src, 4096);
    recsB = recsA;
    recsB[0].addr ^= 0x40;
}

} // namespace

TEST(TraceDigestMemo, RewriteDuringHashIsNotMemoized)
{
    // Regression for the memo's stat-then-hash race: the stamp used to
    // be captured before hashing, so a file rewritten between the stat
    // and the hash memoized the NEW content's digest under the OLD
    // content's stamp. Restoring the old content (same size, timestamps
    // put back with utimensat) then answered the wrong digest forever.
    experiments::invalidateTraceDigestMemo();
    const std::string path = ::testing::TempDir() + "jetty_toctou.jtt";
    std::vector<trace::TraceRecord> recsA, recsB;
    makeDigestFixtures(recsA, recsB);

    trace::writeTraceFile(path, recsB);
    const std::uint64_t digestB = trace::traceFileDigest(path);
    trace::writeTraceFile(path, recsA);
    const std::uint64_t digestA = trace::traceFileDigest(path);
    ASSERT_NE(digestA, digestB);
    struct stat original = {};
    ASSERT_EQ(::stat(path.c_str(), &original), 0);

    // One-shot hook: rewrite the file after the pre-hash stat.
    bool fired = false;
    experiments::setTraceDigestPreHashHook(
        [&](const std::string &p) {
            if (fired)
                return;
            fired = true;
            trace::writeTraceFile(p, recsB);
        });
    EXPECT_EQ(experiments::traceFileDigestCached(path), digestB);
    EXPECT_TRUE(fired);
    experiments::setTraceDigestPreHashHook(nullptr);

    // Put content A back under its original stamp. A buggy memo holds
    // (stampA -> digestB) and hits; the fixed one re-hashes.
    trace::writeTraceFile(path, recsA);
    struct timespec times[2] = {original.st_atim, original.st_mtim};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
    EXPECT_EQ(experiments::traceFileDigestCached(path), digestA);

    std::remove(path.c_str());
    experiments::invalidateTraceDigestMemo();
}

TEST(TraceDigestMemo, RunCacheClearInvalidatesTheMemo)
{
    // The memo keys on (size, mtime); a same-size rewrite that restores
    // the timestamps is invisible to it by construction. clear() is the
    // seam that drops the memo along with the cached results.
    experiments::invalidateTraceDigestMemo();
    const std::string path = ::testing::TempDir() + "jetty_memo_clear.jtt";
    std::vector<trace::TraceRecord> recsA, recsB;
    makeDigestFixtures(recsA, recsB);

    trace::writeTraceFile(path, recsA);
    struct stat original = {};
    ASSERT_EQ(::stat(path.c_str(), &original), 0);
    const std::uint64_t digestA = experiments::traceFileDigestCached(path);

    trace::writeTraceFile(path, recsB);
    struct timespec times[2] = {original.st_atim, original.st_mtim};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
    // Same stamp: the memo (documented) still answers the old digest.
    EXPECT_EQ(experiments::traceFileDigestCached(path), digestA);

    RunCache::instance().clear();
    const std::uint64_t digestB = experiments::traceFileDigestCached(path);
    EXPECT_NE(digestB, digestA);
    EXPECT_EQ(digestB, trace::traceFileDigest(path));

    std::remove(path.c_str());
    experiments::invalidateTraceDigestMemo();
}

TEST(TraceDigestMemo, ReplayReportAfterItsKeyHashesNoFile)
{
    // A replay Report lists its captures' digests right after the run's
    // cache key hashed the same files: it must read the key's memoized
    // digests instead of hashing every file a second time.
    experiments::invalidateTraceDigestMemo();
    const std::string path = ::testing::TempDir() + "jetty_report_digest.jtt";
    std::vector<trace::TraceRecord> recsA, recsB;
    makeDigestFixtures(recsA, recsB);
    trace::writeTraceFile(path, recsA);
    struct stat original = {};
    ASSERT_EQ(::stat(path.c_str(), &original), 0);
    char digestA[32];
    std::snprintf(digestA, sizeof(digestA), "0x%016llx",
                  static_cast<unsigned long long>(
                      trace::traceFileDigest(path)));

    int hashes = 0;
    experiments::setTraceDigestPreHashHook(
        [&hashes](const std::string &) { ++hashes; });
    RunRequest req;
    req.traceFiles = {path};
    experiments::runCacheKey(req, 1.0);
    EXPECT_EQ(hashes, 1);

    // Same-stamp rewrite: only a fresh hash could see content B, so the
    // Report naming digest A shows it read the key's memo.
    trace::writeTraceFile(path, recsB);
    struct timespec times[2] = {original.st_atim, original.st_mtim};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
    hashes = 0;
    const json::Value node = api::Report::traceDigestsNode({path});
    experiments::setTraceDigestPreHashHook(nullptr);
    EXPECT_EQ(hashes, 0);
    ASSERT_EQ(node.items().size(), 1u);
    EXPECT_EQ(node.items()[0].find("digest")->asString(), digestA);

    std::remove(path.c_str());
    experiments::invalidateTraceDigestMemo();
}

TEST(RunCacheTest, StatsBlockSizedFromVariant)
{
    // Regression: AppRunResult::stats used to be hard-wired to four
    // processors, so 8-way runs carried a mis-sized stats block.
    SystemVariant v8;
    v8.nprocs = 8;
    const auto run =
        experiments::runApp(trace::appByName("ff"), v8, {"NULL"}, 0.01);
    EXPECT_EQ(run.stats.procs.size(), 8u);
    EXPECT_EQ(run.stats.remoteHits.buckets(), 8u);
}
