/**
 * @file
 * Tests for the distributed sweep subsystem (src/dist/): a worker's
 * "cells" answer round-trips losslessly and the coordinator's reader
 * rejects what it does not speak with dotted-path diagnostics, the
 * worker (the service request loop on a pipe pair) answers bad input
 * ok=false and keeps serving, the MergeTable handles the edge cases
 * (empty shard, stolen-then-completed duplicate, unknown key), a cell
 * key disagreement fails the campaign, real coordinator campaigns over
 * thread workers produce Reports byte-identical to the single-process
 * sweep at any worker count — including under an injected mid-shard
 * worker death — and a rerun against the same disk tier replays
 * finished cells losslessly.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment_spec.hh"
#include "dist/coordinator.hh"
#include "dist/worker.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "util/json.hh"

using namespace jetty;

namespace
{

/** Coordinator/worker pipes: a peer hanging up mid-write must surface
 *  as EPIPE, not kill the test binary (service/protocol.hh contract for
 *  non-socket transports). */
void
ignoreSigpipe()
{
    std::signal(SIGPIPE, SIG_IGN);
}

/** A four-cell sweep (2 apps x 2 bus counts), cheap enough to simulate
 *  in a unit test, resolved exactly as `jetty_cli sweep` would. */
api::ExperimentSpec
tinySweepSpec()
{
    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::parse(
        R"({"jetty_spec": 1,
            "machine": {"procs": 4, "buses": 1, "subblocked": true},
            "workload": {"apps": ["lu", "ff"], "scale": 0.01},
            "sweep": {"buses": [1, 2]},
            "filters": ["EJ-16x2"]})",
        &err);
    EXPECT_EQ(err, "");
    EXPECT_EQ(service::resolveSpec(spec, "sweep"), "");
    return spec;
}

/** A one-cell sweep (lu on one bus), resolved like tinySweepSpec(). */
api::ExperimentSpec
oneCellSweepSpec()
{
    api::ExperimentSpec spec = tinySweepSpec();
    spec.apps = {"lu"};
    spec.sweepBuses = {1};
    return spec;
}

/** One in-process worker: a thread running the real runWorkerLoop over
 *  a pipe pair, indistinguishable (to the coordinator) from a forked
 *  `jetty_cli worker`. */
struct ThreadWorker
{
    dist::WorkerEndpoint endpoint;  //!< the coordinator's side
    std::thread thread;
    int loopResult = -1;
};

void
startThreadWorker(ThreadWorker &tw, const dist::WorkerOptions &wopts)
{
    int req[2];
    int resp[2];
    ASSERT_EQ(::pipe(req), 0);
    ASSERT_EQ(::pipe(resp), 0);
    tw.endpoint.readFd = resp[0];
    tw.endpoint.writeFd = req[1];
    tw.endpoint.pid = -1;  // a thread, nothing to reap
    tw.thread = std::thread([&tw, in = req[0], out = resp[1], wopts]() {
        tw.loopResult = dist::runWorkerLoop(in, out, wopts);
        ::close(in);
        ::close(out);
    });
}

/** Hang up on a thread worker (EOF on its request pipe) and join it. */
void
stopThreadWorker(ThreadWorker &tw)
{
    ::close(tw.endpoint.writeFd);
    tw.thread.join();
    ::close(tw.endpoint.readFd);
}

/** Send one line to a thread worker and read its one answer, parsed. */
json::Value
ask(ThreadWorker &tw, const std::string &line)
{
    std::string err;
    EXPECT_TRUE(service::sendLine(tw.endpoint.writeFd, line, &err)) << err;
    service::LineReader reader(tw.endpoint.readFd);
    std::string answer;
    EXPECT_EQ(reader.readLine(answer, &err), 1) << err;
    const json::Value v = json::parse(answer, &err);
    EXPECT_EQ(err, "") << answer;
    return v;
}

/** A "cells" request for @p spec, as the coordinator sends it. */
std::string
cellsRequest(const api::ExperimentSpec &spec)
{
    json::Value req = service::makeRequest("cells");
    req.set("spec", spec.toJson());
    return req.dumpCompact();
}

/** The "ok" flag of an answer; fails the test if it is not a bool. */
bool
answerOk(const json::Value &v)
{
    const json::Value *ok = v.find("ok");
    EXPECT_TRUE(ok && ok->isBool()) << v.dumpCompact();
    return ok && ok->isBool() && ok->asBool();
}

/** A scripted worker's ok "cells" answer carrying one cell. */
json::Value
cellsAnswer(const std::string &key, const experiments::AppRunResult &result)
{
    json::Value v = json::Value::object();
    v.set("jetty_response", service::kProtocolVersion);
    v.set("ok", true);
    v.set("simulated", 0);
    v.set("disk_hits", 0);
    v.set("mem_hits", 1);
    v.set("sweep_seconds", 0.0);
    json::Value cell = json::Value::object();
    cell.set("key", key);
    cell.set("result", experiments::runResultToJson(result));
    json::Value cells = json::Value::array();
    cells.push(std::move(cell));
    v.set("cells", std::move(cells));
    return v;
}

/** Fabricated cells carrying one result (for merge-table tests; the
 *  result payload only needs to be distinguishable, not real). */
std::vector<dist::ResultCell>
fakeCells(const std::string &key, double simSeconds)
{
    dist::ResultCell cell;
    cell.key = key;
    cell.result.appName = "fake";
    cell.result.abbrev = "fk";
    cell.result.simSeconds = simSeconds;
    return {cell};
}

} // namespace

TEST(CellsAnswer, RoundTripsThroughARealWorker)
{
    ignoreSigpipe();
    experiments::RunCache::instance().clear();
    const api::ExperimentSpec spec = oneCellSweepSpec();
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
    ASSERT_EQ(direct.runs.size(), 1u);

    // The worker answers from the cache the direct run filled: the same
    // result object, so its bytes must survive the wire exactly. (A
    // fresh simulation would differ in the host-timed simSeconds.)
    ThreadWorker tw;
    startThreadWorker(tw, dist::WorkerOptions());
    const json::Value wire = ask(tw, cellsRequest(spec));
    stopThreadWorker(tw);
    EXPECT_EQ(tw.loopResult, 0);

    dist::CellsAnswer back;
    ASSERT_EQ(dist::cellsAnswerFromJson(wire, back), "");
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.simulated, 0u);
    EXPECT_EQ(back.memHits, 1u);
    EXPECT_GT(back.sweepSeconds, 0.0);
    ASSERT_EQ(back.cells.size(), 1u);
    EXPECT_EQ(back.cells[0].key, service::cellCacheKey(direct.requests[0]));
    // Lossless through the wire: the round-tripped run result emits the
    // same bytes (the byte-identity contract rides on this).
    EXPECT_EQ(experiments::runResultToJson(back.cells[0].result)
                  .dumpCanonical(),
              experiments::runResultToJson(direct.runs[0]).dumpCanonical());
    experiments::RunCache::instance().clear();
}

TEST(CellsAnswer, OkFalseReadsAsTheWorkersError)
{
    dist::CellsAnswer back;
    back.ok = true;
    ASSERT_EQ(dist::cellsAnswerFromJson(
                  service::makeErrorResponse("unknown app 'zz'"), back),
              "");
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "unknown app 'zz'");
}

TEST(CellsAnswer, VersionMismatchNamesBothVersions)
{
    json::Value wire = cellsAnswer("k", experiments::AppRunResult());
    wire.set("jetty_response", 2);

    dist::CellsAnswer back;
    const std::string err = dist::cellsAnswerFromJson(wire, back);
    EXPECT_NE(err.find("response.jetty_response"), std::string::npos)
        << err;
    EXPECT_NE(err.find("version 2 not supported"), std::string::npos)
        << err;
    EXPECT_NE(err.find("this build speaks 1"), std::string::npos) << err;
}

TEST(CellsAnswer, MalformedFieldNamesItsDottedPath)
{
    json::Value wire = cellsAnswer("k", experiments::AppRunResult());
    wire.set("sweep_seconds", "not-a-number");
    dist::CellsAnswer back;
    std::string err = dist::cellsAnswerFromJson(wire, back);
    EXPECT_NE(err.find("response.sweep_seconds"), std::string::npos)
        << err;

    wire = cellsAnswer("k", experiments::AppRunResult());
    json::Value cell = json::Value::object();
    cell.set("key", 7);
    json::Value cells = json::Value::array();
    cells.push(std::move(cell));
    wire.set("cells", std::move(cells));
    err = dist::cellsAnswerFromJson(wire, back);
    EXPECT_NE(err.find("response.cells[0].key"), std::string::npos) << err;
}

TEST(MergeTable, EmptyResponseIsLegalNoOp)
{
    dist::MergeTable table({"k0", "k1"});
    // No cells — a resumed-elsewhere or vacuous shard.
    std::uint64_t dups = 0;
    EXPECT_EQ(table.apply({}, &dups), "");
    EXPECT_EQ(dups, 0u);
    EXPECT_FALSE(table.complete());
    EXPECT_EQ(table.missingKeys().size(), 2u);
}

TEST(MergeTable, DuplicateCellIsFirstWriterWins)
{
    dist::MergeTable table({"k0"});
    std::uint64_t dups = 0;
    ASSERT_EQ(table.apply(fakeCells("k0", 1.0), &dups), "");
    // The stolen-then-completed straggler answers the same cell later.
    ASSERT_EQ(table.apply(fakeCells("k0", 99.0), &dups), "");
    EXPECT_EQ(dups, 1u);
    ASSERT_TRUE(table.complete());
    const auto runs = table.takeRuns();
    ASSERT_EQ(runs.size(), 1u);
    // The first writer's payload survived, the duplicate was discarded.
    EXPECT_DOUBLE_EQ(runs[0].simSeconds, 1.0);
}

TEST(MergeTable, UnknownKeyIsDottedPathError)
{
    dist::MergeTable table({"k0"});
    std::uint64_t dups = 0;
    const std::string err = table.apply(fakeCells("intruder", 1.0), &dups);
    EXPECT_NE(err.find("response.cells[0].key"), std::string::npos) << err;
    EXPECT_NE(err.find("intruder"), std::string::npos) << err;
}

TEST(WorkerLoop, AnswersBadInputOkFalseAndKeepsServing)
{
    ignoreSigpipe();
    ThreadWorker tw;
    startThreadWorker(tw, dist::WorkerOptions());

    // Each failure is an ok=false answer whose error names the cause.
    const auto expectRefused = [&tw](const std::string &line,
                                     const std::string &cause) {
        const json::Value answer = ask(tw, line);
        EXPECT_FALSE(answerOk(answer));
        const json::Value *why = answer.find("error");
        ASSERT_TRUE(why && why->isString()) << answer.dumpCompact();
        EXPECT_NE(why->asString().find(cause), std::string::npos)
            << why->asString();
    };
    expectRefused("this is not json", "parse error");
    expectRefused(service::makeRequest("dance").dumpCompact(),
                  "unknown verb 'dance'");
    api::ExperimentSpec ghost = oneCellSweepSpec();
    ghost.apps = {"no-such-app"};
    expectRefused(cellsRequest(ghost), "no-such-app");

    // The same loop is still serving.
    const json::Value pong = ask(tw, service::makeRequest("ping").dumpCompact());
    EXPECT_TRUE(answerOk(pong));
    const json::Value *p = pong.find("pong");
    EXPECT_TRUE(p && p->isBool() && p->asBool());

    // shutdown ends the loop cleanly without waiting for EOF.
    const json::Value bye =
        ask(tw, service::makeRequest("shutdown").dumpCompact());
    EXPECT_TRUE(answerOk(bye));
    tw.thread.join();
    EXPECT_EQ(tw.loopResult, 0);
    ::close(tw.endpoint.writeFd);
    ::close(tw.endpoint.readFd);
}

TEST(DistCampaign, CellKeyDisagreementFailsTheCampaign)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();
    experiments::RunCache::instance().clear();
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
    const std::string canonical = service::cellCacheKey(direct.requests[0]);

    int req[2];
    int resp[2];
    ASSERT_EQ(::pipe(req), 0);
    ASSERT_EQ(::pipe(resp), 0);
    dist::CoordinatorConfig cfg;
    cfg.maxRetries = 2;
    cfg.stealAfterSeconds = 0;
    dist::Coordinator coordinator(cfg);
    dist::WorkerEndpoint ep;
    ep.readFd = resp[0];
    ep.writeFd = req[1];
    coordinator.attachWorker(ep);

    // A worker that answers its first request under a key the
    // coordinator's expansion never produced.
    std::thread fake([&]() {
        service::LineReader reader(req[0]);
        std::string line;
        std::string err;
        EXPECT_EQ(reader.readLine(line, &err), 1) << err;
        EXPECT_TRUE(service::sendValue(
            resp[1], cellsAnswer("not-the-canonical-key", direct.runs[0]),
            &err))
            << err;
        // A determinism violation does not heal on retry: the next
        // thing on this pipe is the coordinator hanging up. (Hanging up
        // here too turns a retry into a failed campaign, not a hang.)
        EXPECT_EQ(reader.readLine(line, &err), 0) << line;
        ::close(req[0]);
        ::close(resp[1]);
    });

    dist::CampaignResult result;
    const std::string err = coordinator.run(spec, result);
    fake.join();

    EXPECT_NE(err.find("cross-process determinism"), std::string::npos)
        << err;
    EXPECT_NE(err.find("not-the-canonical-key"), std::string::npos) << err;
    EXPECT_NE(err.find(canonical), std::string::npos) << err;
    EXPECT_EQ(result.retried, 0u);
    experiments::RunCache::instance().clear();
}

TEST(DistCampaign, ReportIsByteIdenticalAtAnyWorkerCount)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();

    for (const unsigned workerCount : {2u, 3u}) {
        // Cold cache: the workers do the actual simulating.
        experiments::RunCache::instance().clear();

        std::vector<ThreadWorker> pool(workerCount);
        dist::CoordinatorConfig cfg;
        cfg.stealAfterSeconds = 0;  // nothing should straggle here
        dist::Coordinator coordinator(cfg);
        for (auto &tw : pool) {
            startThreadWorker(tw, dist::WorkerOptions());
            coordinator.attachWorker(tw.endpoint);
        }

        dist::CampaignResult result;
        ASSERT_EQ(coordinator.run(spec, result), "");
        for (auto &tw : pool) {
            tw.thread.join();
            EXPECT_EQ(tw.loopResult, 0);  // clean EOF exit
        }

        EXPECT_EQ(result.shards, 4u);
        // At least one answer per cell. (Thread workers share ONE
        // process-global RunCache, so concurrent per-shard counter
        // deltas can overlap and overcount — in the real deployment
        // each worker process owns its counters.)
        EXPECT_GE(result.simulated + result.memHits + result.diskHits, 4u);

        // The single-process sweep, answered from the same in-process
        // cache the workers filled: value identity across the process
        // boundary makes the Reports byte-identical.
        service::ExecuteResult direct;
        ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
        EXPECT_EQ(direct.simulated, 0u)
            << "the distributed campaign should have populated the cache";
        EXPECT_EQ(result.report.dump(), direct.report.dump())
            << "workers=" << workerCount;
    }
    experiments::RunCache::instance().clear();
}

TEST(DistCampaign, MidShardWorkerDeathRetriesAndStaysByteIdentical)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();
    experiments::RunCache::instance().clear();

    // Worker 0 dies mid-shard on its first request: the request is
    // read, the answer never comes, both pipe ends drop.
    dist::WorkerOptions dying;
    dying.faultHook = [](std::uint64_t received) { return received >= 1; };

    std::vector<ThreadWorker> pool(2);
    dist::CoordinatorConfig cfg;
    cfg.maxRetries = 2;
    cfg.stealAfterSeconds = 0;
    dist::Coordinator coordinator(cfg);
    startThreadWorker(pool[0], dying);
    startThreadWorker(pool[1], dist::WorkerOptions());
    coordinator.attachWorker(pool[0].endpoint);
    coordinator.attachWorker(pool[1].endpoint);

    dist::CampaignResult result;
    ASSERT_EQ(coordinator.run(spec, result), "");
    pool[0].thread.join();
    pool[1].thread.join();
    EXPECT_EQ(pool[0].loopResult, 2);  // the fault hook abandoned it

    EXPECT_GE(result.retried, 1u);
    bool sawDeath = false;
    bool sawRetry = false;
    for (const auto &ev : result.events) {
        sawDeath = sawDeath || ev.type == "worker_died";
        sawRetry = sawRetry || ev.type == "retried";
    }
    EXPECT_TRUE(sawDeath);
    EXPECT_TRUE(sawRetry);

    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
    EXPECT_EQ(result.report.dump(), direct.report.dump());
    experiments::RunCache::instance().clear();
}

TEST(DistCampaign, DiskTierResumeReplaysEveryCellLosslessly)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();
    const std::string diskRoot =
        ::testing::TempDir() + "jetty_dist_resume_test";
    std::filesystem::remove_all(diskRoot);
    experiments::RunCache &cache = experiments::RunCache::instance();
    cache.clear();
    cache.setDiskRoot(diskRoot);

    // Runs one campaign over two fresh thread workers.
    const auto campaign = [&spec](dist::CampaignResult &out) {
        std::vector<ThreadWorker> pool(2);
        dist::CoordinatorConfig cfg;
        cfg.stealAfterSeconds = 0;
        dist::Coordinator coordinator(cfg);
        for (auto &tw : pool) {
            startThreadWorker(tw, dist::WorkerOptions());
            coordinator.attachWorker(tw.endpoint);
        }
        ASSERT_EQ(coordinator.run(spec, out), "");
        for (auto &tw : pool)
            tw.thread.join();
    };

    // Campaign 1: simulate everything, publishing each cell to disk.
    dist::CampaignResult first;
    campaign(first);
    EXPECT_EQ(first.diskHits, 0u);

    // Campaign 2: tier 0 wiped (a fresh process would start cold), every
    // cell answered by the disk tier — nothing simulated, and the merged
    // Report's bytes survive the round trip through the disk entries.
    cache.clear();
    dist::CampaignResult second;
    campaign(second);
    EXPECT_EQ(second.simulated, 0u);
    // Thread workers share one process-global RunCache, so their
    // per-shard counter deltas can overlap and overcount the campaign's
    // diskHits; the cache's own counters are exact.
    EXPECT_EQ(cache.simulations(), 0u);
    EXPECT_EQ(cache.diskHits(), 4u);
    EXPECT_EQ(second.report.dump(), first.report.dump());

    cache.setDiskRoot("");
    std::filesystem::remove_all(diskRoot);
    cache.clear();
}

TEST(DistCampaign, StolenShardDuplicateIsLoggedAndDiscarded)
{
    ignoreSigpipe();
    const api::ExperimentSpec spec = tinySweepSpec();

    // Real cells to script with: simulate the sweep once directly.
    experiments::RunCache::instance().clear();
    service::ExecuteResult direct;
    ASSERT_EQ(service::executeResolved(spec, "sweep", 1, direct), "");
    ASSERT_EQ(direct.runs.size(), 4u);
    std::vector<std::string> keys;
    for (const auto &req : direct.requests)
        keys.push_back(service::cellCacheKey(req));

    // Three scripted fake workers on raw pipe pairs. A holds its shard
    // hostage, B answers then holds its second shard, C answers then
    // idles — forcing the coordinator to steal A's shard for C. Then
    // both A's original answer and C's stolen answer arrive: the second
    // must be logged as a duplicate and discarded.
    int req[3][2];
    int resp[3][2];
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(::pipe(req[i]), 0);
        ASSERT_EQ(::pipe(resp[i]), 0);
    }

    dist::CoordinatorConfig cfg;
    cfg.stealAfterSeconds = 0.05;
    dist::Coordinator coordinator(cfg);
    for (int i = 0; i < 3; ++i) {
        dist::WorkerEndpoint ep;
        ep.readFd = resp[i][0];
        ep.writeFd = req[i][1];
        coordinator.attachWorker(ep);
    }

    std::thread script([&]() {
        // The shard a request asks for: the cell its spec expands to,
        // keyed the way a worker keys it.
        auto readRequest = [&](int w) -> std::size_t {
            service::LineReader reader(req[w][0]);
            std::string line;
            std::string err;
            EXPECT_EQ(reader.readLine(line, &err), 1) << err;
            const json::Value msg = json::parse(line, &err);
            const json::Value *node = msg.find("spec");
            if (!node) {
                ADD_FAILURE() << "request carries no spec: " << line;
                return keys.size();
            }
            api::ExperimentSpec cell =
                api::ExperimentSpec::fromJson(*node, &err);
            EXPECT_EQ(service::resolveSpec(cell, "sweep"), "");
            std::vector<experiments::RunRequest> cells = cell.expand();
            EXPECT_EQ(cells.size(), 1u);
            cells[0].filterSpecs = service::canonicalFilterNames(cell);
            return static_cast<std::size_t>(
                std::find(keys.begin(), keys.end(),
                          service::cellCacheKey(cells[0])) -
                keys.begin());
        };
        auto send = [&](int w, std::size_t shard) {
            std::string err;
            EXPECT_TRUE(service::sendValue(
                resp[w][1], cellsAnswer(keys[shard], direct.runs[shard]),
                &err))
                << err;
        };

        // Dispatch order is deterministic: A<-0, B<-1, C<-2, queue=[3].
        const std::size_t ra = readRequest(0);
        EXPECT_EQ(ra, 0u);

        const std::size_t rb = readRequest(1);
        EXPECT_EQ(rb, 1u);
        send(1, rb);

        const std::size_t rc = readRequest(2);
        EXPECT_EQ(rc, 2u);
        send(2, rc);

        // B drains the queue (shard 3) and holds it.
        const std::size_t rb2 = readRequest(1);
        EXPECT_EQ(rb2, 3u);

        // C idles with an empty queue; past stealAfterSeconds the
        // coordinator re-assigns the oldest in-flight shard — A's.
        const std::size_t stolen = readRequest(2);
        EXPECT_EQ(stolen, 0u);

        // Straggler A answers first (first writer), then C's stolen
        // copy (the duplicate), then B releases shard 3 so the campaign
        // can only finish after the duplicate has been consumed.
        send(0, ra);
        send(2, stolen);
        send(1, rb2);
    });

    dist::CampaignResult result;
    ASSERT_EQ(coordinator.run(spec, result), "");
    script.join();
    for (int i = 0; i < 3; ++i) {
        ::close(req[i][0]);
        ::close(resp[i][1]);
    }

    EXPECT_GE(result.stolen, 1u);
    EXPECT_EQ(result.duplicates, 1u);
    bool sawSteal = false;
    bool sawDuplicate = false;
    for (const auto &ev : result.events) {
        if (ev.type == "stolen" && ev.shardId == 0) {
            // The steal is the shard's second assignment.
            sawSteal = true;
            EXPECT_EQ(ev.attempt, 2u);
        }
        if (ev.type == "duplicate") {
            sawDuplicate = true;
            EXPECT_EQ(ev.shardId, 0u);
            EXPECT_NE(ev.detail.find("first-writer-wins"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(sawSteal);
    EXPECT_TRUE(sawDuplicate);
    EXPECT_EQ(result.report.dump(), direct.report.dump());
    experiments::RunCache::instance().clear();
}
