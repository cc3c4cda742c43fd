/**
 * @file
 * Command-line driver for the jetty library: run any workload on any
 * system variant with any set of filter configurations, print coverage
 * and energy tables, or capture/replay binary traces.
 *
 * Every simulating subcommand (run, sweep, replay, bench, fuzz) is a
 * thin adapter over the declarative api::ExperimentSpec: `--spec FILE`
 * loads a spec, the command's flags overlay it (flags win), the
 * command's defaults fill whatever is still unset, and `--dump-spec`
 * prints the fully resolved spec instead of running — so any
 * invocation can be captured as one reproducible file and re-run
 * bit-identically with `--spec`. `--json FILE` writes the results as a
 * structured api::Report (schema in DESIGN.md), which echoes the spec.
 *
 * Each subcommand's flags are one table in main() (util/flags.hh); any
 * other flag fails. `jetty_cli` alone prints every table.
 *
 * Usage:
 *   jetty_cli run     [--spec FILE] [--app NAME] [--procs N] [--buses N]
 *                     [--no-subblock] [--scale F]
 *                     [--filters SPEC[,SPEC...]] [--json FILE]
 *                     [--dump-spec] [--cache-dir DIR] [--cache-bytes N]
 *   jetty_cli sweep   [--spec FILE] [--apps NAME[,NAME...]|all]
 *                     [--procs N[,N...]] [--buses N[,N...]]
 *                     [--no-subblock] [--scale F] [--jobs N]
 *                     [--filters SPEC[,SPEC...]] [--json FILE]
 *                     [--dump-spec] [--cache-dir DIR] [--cache-bytes N]
 *                     [--workers N] [--retries N] [--respawns N]
 *                     [--steal-after S] [--events FILE]
 *                     [--kill-worker-after N]
 *                     (--procs/--buses are sweep axes: every
 *                     (app, procs, buses) cell of the cross-product;
 *                     --workers N shards the campaign across N local
 *                     worker processes via the dist coordinator —
 *                     same Report bytes, plus work stealing and bounded
 *                     retry; rerunning with the same --cache-dir resumes
 *                     an interrupted campaign from the disk tier.
 *                     --kill-worker-after K is fault injection: the
 *                     first worker dies mid-shard after K requests)
 *   jetty_cli scorecard FILE [--scale F] [--jobs N] [--cache-dir DIR]
 *                     [--cache-bytes N] [--json FILE]
 *                     (the paper's figures and tables as committed
 *                     specs, scored against the paper: panels, a
 *                     paper | simulated | delta table, and claims;
 *                     flags as on sweep. Exit 2 when a gated claim
 *                     fails)
 *   jetty_cli apps
 *   jetty_cli filters
 *   jetty_cli capture --app NAME --out FILE [--procs N] [--scale F]
 *                     [--limit N]
 *                     (records every processor's stream into one
 *                     JTTRACE2 file, one section per processor,
 *                     streamed — the capture never lives in memory)
 *   jetty_cli trace   --app NAME [--proc P] --out FILE [--limit N]
 *                     (single-processor capture, one-section JTTRACE2)
 *   jetty_cli replay  [--spec FILE] --in FILE[,FILE...]
 *                     [--filters SPEC[,...]] [--procs N] [--json FILE]
 *                     [--dump-spec] [--cache-dir DIR] [--cache-bytes N]
 *                     (per-processor files, one multi-section capture,
 *                     or one single-section file cloned everywhere;
 *                     streamed and cached by content digest)
 *   jetty_cli serve   [--socket PATH] [--jobs N] [--cache-dir DIR]
 *                     [--cache-bytes N]
 *                     (experiment service daemon: accepts ExperimentSpec
 *                     jobs over a unix socket, answers them through the
 *                     shared two-tier RunCache and SweepRunner pool,
 *                     streams structured Reports back; many concurrent
 *                     clients share one cache)
 *   jetty_cli submit  SPEC.json [--socket PATH] [--json FILE]
 *                     [--timeout S] [--retries N]
 *   jetty_cli submit  --shutdown [--socket PATH] [--timeout S] [--retries N]
 *                     (send one spec to a serve daemon and print its
 *                     cache counters; --json writes the streamed Report
 *                     — bit-identical to what the direct subcommand
 *                     would have written. --timeout/--retries bound the
 *                     connect backoff and the response wait)
 *   jetty_cli worker  [--jobs N] [--cache-dir DIR] [--cache-bytes N]
 *                     (distributed-sweep worker: the serve request
 *                     loop on stdin/stdout instead of a socket; spawned
 *                     by `sweep --workers N`, or attach one over any
 *                     stream transport — ssh included)
 *   jetty_cli bench   [--spec FILE] [--app NAME | --in FILE[,FILE...]]
 *                     [--procs N] [--buses N] [--no-subblock] [--scale F]
 *                     [--filters SPEC[,...]] [--batch N] [--repeat K]
 *                     [--json FILE] [--dump-spec]
 *                     (sustained refs/sec of the batched delivery
 *                     pipeline and the filter replay's share; median
 *                     of K cold runs, optional JSON)
 *   jetty_cli fuzz    [--spec FILE] [--seed N] [--rounds N] [--refs N]
 *                     [--procs N] [--buses N] [--filters SPEC[,...]]
 *                     [--seconds S] [--smoke] [--audit-every N]
 *                     [--out FILE] [--json FILE] [--repro FILE]
 *                     [--dump-spec]
 *                     (--buses pins the split interconnect; without it
 *                     rounds cycle snoopBuses through 1/2/4)
 *                     (coverage-guided differential fuzzing: online
 *                     invariant checkers + golden-model and batched
 *                     state equivalence; failures are shrunk and
 *                     written as a JTTRACE2 repro + .json sidecar whose
 *                     embedded ExperimentSpec pins the machine.
 *                     --repro replays a previously written repro.
 *                     Exit 0 clean, 2 on a caught violation)
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <chrono>

#include "api/experiment_spec.hh"
#include "api/report.hh"
#include "api/scorecard.hh"
#include "core/filter_registry.hh"
#include "core/filter_spec.hh"
#include "dist/coordinator.hh"
#include "dist/worker.hh"
#include "experiments/experiments.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "sim/latency.hh"
#include "sim/sweep.hh"
#include "trace/apps.hh"
#include "trace/file_stream_source.hh"
#include "trace/trace_file.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "verify/fuzzer.hh"

using namespace jetty;

namespace
{

/** Load --spec FILE when given, else a default-constructed spec. */
api::ExperimentSpec
specFromFlags(const flags::Values &f)
{
    return f.has("spec") ? api::ExperimentSpec::load(f.text("spec"))
                         : api::ExperimentSpec();
}

/** Overlay --filters onto @p filters (flag wins). A bad spec exits
 *  through the registry's describeFailure(), naming the offending token
 *  and its family's grammar (cli negative-path test). */
void
overlayFilterFlag(const flags::Values &f, std::vector<std::string> &filters)
{
    if (!f.has("filters"))
        return;
    filters = splitFilterList(f.text("filters"));
    for (const auto &s : filters) {
        if (!filter::isValidFilterSpec(s))
            fatal(filter::FilterRegistry::instance().describeFailure(s));
    }
}

/** Replace the spec's workload with --in FILE[,FILE...] when given
 *  (flags win over the spec's workload wholesale: apps and trace_files
 *  are mutually exclusive in the schema). */
void
overlayInFlag(const flags::Values &f, api::ExperimentSpec &spec)
{
    if (!f.has("in"))
        return;
    spec.apps.clear();
    spec.traceFiles.clear();
    for (const auto &file : split(f.text("in"), ','))
        spec.traceFiles.push_back(trim(file));
}

/**
 * Overlay the machine/workload/filter flags every simulating command
 * shares onto @p spec. Flags win over the spec file; whatever neither
 * sets is resolved by the command's own defaults afterwards.
 */
void
overlayCommonFlags(const flags::Values &f, api::ExperimentSpec &spec)
{
    spec.machine.procs = f.count("procs", spec.machine.procs);
    spec.machine.buses = f.count("buses", spec.machine.buses);
    if (f.has("no-subblock"))
        spec.machine.subblocked = false;
    spec.scale = f.number("scale", spec.scale);
    if (f.has("app")) {
        spec.apps = {f.text("app")};
        // Flags win over the spec's workload wholesale: an explicit
        // --app must not be silently outvoted by the spec's
        // trace_files (the --in overlay clears apps symmetrically).
        spec.traceFiles.clear();
    }
    overlayFilterFlag(f, spec.filters);
}

/** Print the fully resolved spec and report whether the command should
 *  exit (--dump-spec runs nothing). */
bool
dumpSpecRequested(const flags::Values &f, const api::ExperimentSpec &spec)
{
    if (!f.has("dump-spec"))
        return false;
    std::fputs(spec.emit().c_str(), stdout);
    return true;
}

/** Write @p doc to the file flag @p key names, if given. */
void
writeJsonOpt(const flags::Values &f, const json::Value &doc,
             const char *key = "json")
{
    if (!f.has(key))
        return;
    json::writeFile(f.text(key), doc);
    std::printf("wrote %s\n", f.text(key).c_str());
}

/**
 * Attach the persistent RunCache tier for the caching subcommands
 * (run/sweep/replay/serve — never bench or fuzz, whose timings and
 * campaigns must be fresh). Precedence: --cache-dir flag, then the
 * JETTY_CACHE_DIR environment variable (already honoured by the
 * RunCache constructor), then the default user cache directory. A value
 * of "off" (flag or env) disables the tier.
 */
void
enableDiskCache(const flags::Values &f)
{
    auto &cache = experiments::RunCache::instance();
    if (f.has("cache-bytes"))
        cache.setDiskBudget(f.u64("cache-bytes", 0));
    if (f.has("cache-dir")) {
        cache.setDiskRoot(f.text("cache-dir"));
        return;
    }
    if (std::getenv("JETTY_CACHE_DIR"))
        return;
    std::string root;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        root = std::string(xdg) + "/jetty";
    else if (const char *home = std::getenv("HOME"); home && *home)
        root = std::string(home) + "/.cache/jetty";
    if (!root.empty())
        cache.setDiskRoot(root);
}

/** Print @p run's headline and its Report node's filter rows. */
void
printRunReport(const experiments::AppRunResult &run, const json::Value &node)
{
    const auto agg = run.stats.aggregate();
    std::printf("%s: %.1fM refs, L1 %.1f%%, L2 %.1f%%, snoops miss "
                "%.1f%% of %.2fM probes\n\n",
                run.appName.c_str(), agg.accesses / 1e6,
                percent(agg.l1Hits, agg.accesses),
                percent(agg.l2LocalHits, agg.l2LocalAccesses),
                percent(agg.snoopMisses, agg.snoopTagProbes),
                agg.snoopTagProbes / 1e6);

    TextTable table;
    table.header({"filter", "coverage", "snoopE saved(S)", "allE saved(S)",
                  "snoopE saved(P)", "allE saved(P)", "mean snoop lat"});
    for (const auto &row : node.find("filters")->items()) {
        const auto saved = [&row](const char *mode, const char *key) {
            return TextTable::pct(
                row.find("energy")->find(mode)->find(key)->asDouble());
        };
        table.row({
            row.find("spec")->asString(),
            TextTable::pct(100.0 * row.find("coverage")->asDouble()),
            saved("serial", "snoop_reduction_pct"),
            saved("serial", "all_reduction_pct"),
            saved("parallel", "snoop_reduction_pct"),
            saved("parallel", "all_reduction_pct"),
            TextTable::num(
                row.find("mean_snoop_latency_cycles")->asDouble(), 1) +
                " cyc",
        });
    }
    table.print();
}

int
cmdRun(const flags::Values &f)
{
    api::ExperimentSpec spec = specFromFlags(f);
    overlayCommonFlags(f, spec);
    // Resolution and execution are the service executor's (shared with
    // `serve`, so a served spec resolves and reports exactly as the
    // direct subcommand would); the CLI turns its diagnostics back into
    // the usual fatal() exits.
    std::string err = service::resolveSpec(spec, "run");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(f, spec))
        return 0;

    enableDiskCache(f);
    service::ExecuteResult result;
    err = service::executeResolved(spec, "run", 0, result);
    if (!err.empty())
        fatal(err);

    const experiments::SystemVariant variant = spec.machine.toVariant();
    const experiments::AppRunResult &run = result.runs[0];
    printRunReport(run, *result.report.find("run"));

    if (variant.snoopBuses > 1) {
        // The split-interconnect view: per-bus occupancy, the latency
        // model's contention term, and the accountant's exact per-bus
        // snoop-energy decomposition.
        const auto contention = sim::evaluateBusContention(run.stats);
        const energy::CacheEnergyModel model(variant.l2EnergyGeometry());
        const energy::EnergyAccountant accountant(model);
        const auto bus_energy = accountant.perBusSnoopEnergy(
            run.stats.busSnoopTagProbes, energy::AccessMode::Serial);
        double total_energy = 0;
        for (const double e : bus_energy)
            total_energy += e;

        std::printf("\ninterconnect: %u buses, busiest %.1f%% utilized "
                    "(mean %.1f%%), M/D/1 wait %.2f bus cycles%s\n",
                    variant.snoopBuses,
                    100.0 * contention.busiestUtilization,
                    100.0 * contention.meanUtilization,
                    contention.busiestWaitBusCycles,
                    contention.saturated ? " [saturated]" : "");
        for (std::size_t b = 0; b < run.stats.perBus.size(); ++b) {
            const auto &bus = run.stats.perBus[b];
            std::printf("  bus %zu: %llu txns (%llu rd, %llu rdX, "
                        "%llu upg), %.1f%% of snoop probe energy\n",
                        b,
                        static_cast<unsigned long long>(bus.transactions),
                        static_cast<unsigned long long>(bus.reads),
                        static_cast<unsigned long long>(bus.readXs),
                        static_cast<unsigned long long>(bus.upgrades),
                        total_energy > 0
                            ? 100.0 * bus_energy[b] / total_energy
                            : 0.0);
        }
    }

    writeJsonOpt(f, result.report);
    return 0;
}

/** The sweep results table — one row per (app, variant) cell, one
 *  coverage column per filter. Shared by the single-process and the
 *  distributed (--workers) paths so their human output matches too. */
void
printSweepTable(const std::vector<std::string> &specs,
                const std::vector<experiments::RunRequest> &requests,
                const std::vector<experiments::AppRunResult> &runs)
{
    TextTable table;
    std::vector<std::string> head{"app", "procs", "buses", "snoopMiss%",
                                  "Mrefs/s"};
    for (const auto &s : specs)
        head.push_back(s);
    table.header(head);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &run = runs[i];
        const auto agg = run.stats.aggregate();
        std::vector<std::string> row{
            run.abbrev,
            std::to_string(requests[i].variant.nprocs),
            std::to_string(requests[i].variant.snoopBuses),
            TextTable::pct(percent(agg.snoopMisses, agg.snoopTagProbes)),
            !run.refsTooFewForRate && run.simSeconds > 0
                ? TextTable::num(run.totalRefs / 1e6 / run.simSeconds, 1)
                : std::string("-"),
        };
        for (const auto &s : specs)
            row.push_back(TextTable::pct(100.0 * run.statsFor(s).coverage()));
        table.row(std::move(row));
    }
    table.print();
}

/** One human-readable progress line per ShardEvent, flushed eagerly so
 *  a scripted caller tailing the coordinator sees shard lifecycle
 *  transitions (assigned/completed/stolen/retried/duplicate/
 *  worker_died) as they happen. */
void
printShardEvent(const dist::ShardEvent &ev)
{
    if (ev.type == "worker_died") {
        std::printf("worker %d died%s%s\n", ev.worker,
                    ev.detail.empty() ? "" : ": ", ev.detail.c_str());
        std::fflush(stdout);
        return;
    }
    std::string line = "shard " + std::to_string(ev.shardId) + " " + ev.type;
    if (ev.worker >= 0)
        line += " worker=" + std::to_string(ev.worker);
    if (ev.attempt > 0)
        line += " attempt=" + std::to_string(ev.attempt);
    if (ev.type == "completed") {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      " (%.2fs, %llu simulated, %llu disk, %llu mem)",
                      ev.wallSeconds,
                      static_cast<unsigned long long>(ev.simulated),
                      static_cast<unsigned long long>(ev.diskHits),
                      static_cast<unsigned long long>(ev.memHits));
        line += buf;
    }
    if (!ev.detail.empty() && ev.type != "completed")
        line += ": " + ev.detail;
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/**
 * The `sweep --workers N` path: shard the resolved campaign across N
 * locally forked `jetty_cli worker` processes through the dist
 * coordinator. The merged Report is byte-identical to the
 * single-process path (same service::buildReport, cells keyed by the
 * canonical runCacheKey); what changes is the execution fabric — work
 * stealing for stragglers and bounded retry on worker death. The
 * workers share the disk tier, so a rerun resumes from it.
 */
int
runDistributedSweep(const api::ExperimentSpec &spec,
                    const flags::Values &f,
                    unsigned jobs)
{
    const unsigned workers = f.count("workers", 0);

    // Worker pipes: a worker dying mid-write must surface as EPIPE on
    // the coordinator's send, not kill the coordinator with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    dist::CoordinatorConfig cfg;
    cfg.spawnWorkers = workers;
    cfg.maxRetries = f.count("retries", cfg.maxRetries);
    cfg.maxRespawns = f.count("respawns", cfg.maxRespawns);
    cfg.stealAfterSeconds = f.number("steal-after", cfg.stealAfterSeconds);
    cfg.eventSink = printShardEvent;
    const std::uint64_t killAfter = f.u64("kill-worker-after", 0);

    // Children must attach the exact cache tier the parent resolved
    // (flag > env > default): pass it explicitly so a respawned worker
    // under a stripped environment still lands on the same directory.
    const std::string cacheRoot =
        experiments::RunCache::instance().diskRoot();

    auto spawned = std::make_shared<unsigned>(0);
    cfg.factory = [&cacheRoot, jobs, killAfter,
                   spawned](dist::WorkerEndpoint &ep,
                            std::string *err) -> bool {
        int req[2];
        int resp[2];
        // O_CLOEXEC everywhere: a later-forked worker must NOT inherit
        // an earlier worker's pipe ends across its execv — a leaked
        // request-pipe write end would keep that worker's stdin open
        // after the coordinator hangs up, so it never sees EOF and the
        // wind-down reap deadlocks. The child's dup2 onto fds 0/1
        // clears the flag on exactly the two ends it needs.
        if (::pipe2(req, O_CLOEXEC) != 0) {
            if (err)
                *err = std::string("pipe: ") + std::strerror(errno);
            return false;
        }
        if (::pipe2(resp, O_CLOEXEC) != 0) {
            if (err)
                *err = std::string("pipe: ") + std::strerror(errno);
            ::close(req[0]);
            ::close(req[1]);
            return false;
        }
        const unsigned index = (*spawned)++;
        const pid_t pid = ::fork();
        if (pid < 0) {
            if (err)
                *err = std::string("fork: ") + std::strerror(errno);
            ::close(req[0]);
            ::close(req[1]);
            ::close(resp[0]);
            ::close(resp[1]);
            return false;
        }
        if (pid == 0) {
            // Child: requests on stdin, answers on stdout,
            // stderr inherited so worker diagnostics stay visible.
            ::dup2(req[0], 0);
            ::dup2(resp[1], 1);
            ::close(req[0]);
            ::close(req[1]);
            ::close(resp[0]);
            ::close(resp[1]);
            if (killAfter > 0 && index == 0) {
                // Fault injection: only the FIRST spawn dies, so a
                // respawned replacement finishes the campaign.
                ::setenv("JETTY_WORKER_DIE_AFTER",
                         std::to_string(killAfter).c_str(), 1);
            }
            std::vector<std::string> args = {
                "jetty_cli", "worker", "--cache-dir",
                cacheRoot.empty() ? std::string("off") : cacheRoot};
            if (jobs) {
                args.push_back("--jobs");
                args.push_back(std::to_string(jobs));
            }
            std::vector<char *> argvp;
            argvp.reserve(args.size() + 1);
            for (auto &a : args)
                argvp.push_back(const_cast<char *>(a.c_str()));
            argvp.push_back(nullptr);
            ::execv("/proc/self/exe", argvp.data());
            _exit(127);
        }
        ::close(req[0]);
        ::close(resp[1]);
        ep.readFd = resp[0];
        ep.writeFd = req[1];
        ep.pid = pid;
        return true;
    };

    dist::Coordinator coordinator(cfg);
    dist::CampaignResult result;
    const std::string err = coordinator.run(spec, result);
    if (!err.empty())
        fatal(err);

    printSweepTable(result.filterNames, result.requests, result.runs);

    std::printf("\n%llu shards (%llu simulated, %llu disk hits, "
                "%llu mem hits), %u workers, stolen %llu, "
                "retried %llu, duplicates %llu, %.1fs\n",
                static_cast<unsigned long long>(result.shards),
                static_cast<unsigned long long>(result.simulated),
                static_cast<unsigned long long>(result.diskHits),
                static_cast<unsigned long long>(result.memHits), workers,
                static_cast<unsigned long long>(result.stolen),
                static_cast<unsigned long long>(result.retried),
                static_cast<unsigned long long>(result.duplicates),
                result.wallSeconds);

    if (f.has("events")) {
        json::Value doc = json::Value::object();
        doc.set("jetty_dist_events", 1);
        json::Value arr = json::Value::array();
        for (const auto &ev : result.events)
            arr.push(ev.toJson());
        doc.set("events", std::move(arr));
        writeJsonOpt(f, doc, "events");
    }
    writeJsonOpt(f, result.report);
    return 0;
}

/**
 * The parallel cross-product: applications × system variants, one table
 * row per (app, variant), one column per filter. The spec's expand() is
 * the cross-product expander; the sweep engine simulates every distinct
 * cell concurrently (--jobs) and exactly once.
 */
int
cmdSweep(const flags::Values &f)
{
    api::ExperimentSpec spec = specFromFlags(f);

    // Axis flags (list-valued, so not part of overlayCommonFlags).
    if (f.has("apps")) {
        const std::string &app_list = f.text("apps");
        spec.apps.clear();
        // Flags win over the spec's workload wholesale: expand()
        // prefers trace_files, so an explicit --apps must clear them.
        spec.traceFiles.clear();
        if (toUpper(app_list) == "ALL") {
            for (const auto &app : trace::paperApps())
                spec.apps.push_back(app.abbrev);
        } else {
            for (const auto &name : split(app_list, ','))
                spec.apps.push_back(trim(name));
        }
    }
    if (f.has("procs"))
        spec.sweepProcs = f.counts("procs");
    if (f.has("buses"))
        spec.sweepBuses = f.counts("buses");
    if (f.has("no-subblock"))
        spec.machine.subblocked = false;
    spec.scale = f.number("scale", spec.scale);
    overlayFilterFlag(f, spec.filters);

    // Sweep resolution (all-paper-apps default, axis inference) lives
    // in the shared service executor.
    std::string err = service::resolveSpec(spec, "sweep");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(f, spec))
        return 0;

    const unsigned jobs = f.count("jobs", 0);
    enableDiskCache(f);

    // The distributed fabric: shard the campaign across local worker
    // processes instead of in-process SweepRunner threads. Same Report
    // bytes either way — the branch only changes who simulates.
    if (f.has("workers"))
        return runDistributedSweep(spec, f, jobs);

    service::ExecuteResult result;
    err = service::executeResolved(spec, "sweep", jobs, result);
    if (!err.empty())
        fatal(err);
    const std::vector<std::string> &specs = result.filterNames;
    const std::vector<experiments::RunRequest> &requests = result.requests;
    const std::vector<experiments::AppRunResult> &runs = result.runs;
    const double sweep_seconds = result.sweepSeconds;
    const std::uint64_t simulated = result.simulated;

    printSweepTable(specs, requests, runs);

    // Report the concurrency actually available to this sweep: the
    // requested (or default) worker count never exceeds the number of
    // simulations there were to run.
    const std::uint64_t want = jobs ? jobs : sim::SweepRunner::defaultJobs();
    // Aggregate delivery rate of the whole sweep: references behind every
    // answered run (cache hits included) over the sweep's wall clock.
    std::uint64_t sim_refs = 0;
    for (const auto &run : runs)
        sim_refs += run.totalRefs;
    std::printf("\n%zu runs (%llu simulated, %llu cache hits), "
                "%llu workers, %.1f Mrefs/s served\n",
                runs.size(),
                static_cast<unsigned long long>(simulated),
                static_cast<unsigned long long>(
                    experiments::RunCache::instance().hits()),
                static_cast<unsigned long long>(std::min(want, simulated)),
                sweep_seconds > 0 ? sim_refs / 1e6 / sweep_seconds : 0.0);

    writeJsonOpt(f, result.report);
    return 0;
}

/**
 * Score the paper's figures and tables (api/scorecard.hh). Every spec
 * the scorecard names resolves as a sweep (--scale overrides each
 * spec's scale, as on sweep); one runMany over the union of their cells
 * simulates each distinct cell once with the union of its filters;
 * each spec's Report is then built through the service executor from
 * memory hits. Exit 2 when a gated claim fails.
 */
int
cmdScorecard(const flags::Values &f)
{
    if (f.args().empty())
        fatal("scorecard needs a scorecard file: jetty_cli scorecard FILE "
              "(jetty_cli alone lists the flags)");
    std::string err;
    const api::Scorecard card = api::Scorecard::load(f.args()[0], &err);
    if (!err.empty())
        fatal(err);

    std::vector<std::pair<std::string, api::ExperimentSpec>> specs;
    const double scale = f.number("scale", -1.0);
    for (const auto &[id, file] : card.specs()) {
        api::ExperimentSpec spec = api::ExperimentSpec::load(file);
        spec.scale = f.number("scale", spec.scale);
        if (!(err = service::resolveSpec(spec, "sweep")).empty())
            fatal(id + ": " + err);
        specs.emplace_back(id, std::move(spec));
    }
    const unsigned jobs = f.count("jobs", 0);
    enableDiskCache(f);

    // Declare every cell up front: one concurrent sweep fills the run
    // cache, and the per-spec Reports below are pure cache hits.
    std::vector<experiments::RunRequest> cells;
    for (const auto &entry : specs) {
        const auto names = service::canonicalFilterNames(entry.second);
        for (auto &req : entry.second.expand()) {
            req.filterSpecs = names;
            cells.push_back(std::move(req));
        }
    }
    experiments::runMany(cells, jobs);

    std::map<std::string, json::Value> reports;
    for (const auto &[id, spec] : specs) {
        service::ExecuteResult result;
        if (!(err = service::executeSpec(spec, jobs, result)).empty())
            fatal(id + ": " + err);
        reports[id] = std::move(result.report);
    }
    const json::Value scored = card.evaluate(reports, scale, &err);
    if (!err.empty())
        fatal(err);
    api::Scorecard::print(scored);
    writeJsonOpt(f, scored);
    return api::Scorecard::failedGates(scored) ? 2 : 0;
}

/** Enumerate the registered filter families and the paper's specs. */
int
cmdFilters(const flags::Values &)
{
    const auto &registry = filter::FilterRegistry::instance();

    TextTable table;
    table.header({"family", "grammar", "example", "description"});
    for (const auto &key : registry.listFamilies()) {
        const auto *family = registry.family(key);
        table.row({family->key, family->grammar, family->example,
                   family->summary});
    }
    table.print();

    std::printf("\nPaper configurations:\n");
    auto print_list = [](const char *label,
                         const std::vector<std::string> &specs) {
        std::printf("  %-12s", label);
        for (const auto &s : specs)
            std::printf(" %s", s.c_str());
        std::printf("\n");
    };
    print_list("Figure 4(a):", filter::paperExcludeSpecs());
    print_list("Figure 4(b):", filter::paperVectorExcludeSpecs());
    print_list("Figure 5(a):", filter::paperIncludeSpecs());
    print_list("Figure 5(b):", filter::paperHybridSpecs());
    return 0;
}

int
cmdApps(const flags::Values &)
{
    TextTable table;
    table.header({"tag", "name", "streams", "refs/proc"});
    for (const auto &app : trace::paperApps()) {
        table.row({app.abbrev, app.name,
                   TextTable::count(app.streams.size()),
                   TextTable::count(app.accessesPerProc)});
    }
    table.row({"ts", "ThroughputServer (extra)", "1", "-"});
    table.row({"ws", "WidelyShared (extra)", "2", "-"});
    table.print();
    return 0;
}

int
cmdTrace(const flags::Values &f)
{
    if (!f.has("app") || !f.has("out"))
        fatal("trace needs --app and --out");
    trace::Workload workload(trace::appByName(f.text("app")), 4);
    auto src = workload.makeSource(f.count("proc", 0));
    const auto recs = trace::collect(*src, f.count("limit", 1'000'000));
    trace::writeTraceFile(f.text("out"), recs);
    std::printf("wrote %zu references to %s\n", recs.size(),
                f.text("out").c_str());
    return 0;
}

/** Capture every processor's stream into one multi-section JTTRACE2
 *  file. Streams are written in bounded chunks, so a capture of any
 *  length (beyond 4 Gi records, beyond memory) works. */
int
cmdCapture(const flags::Values &f)
{
    if (!f.has("app") || !f.has("out"))
        fatal("capture needs --app and --out");
    const unsigned nprocs = f.count("procs", 4);
    const unsigned limit = f.count("limit", 0);  // 0 = the full stream

    const trace::Workload workload(trace::appByName(f.text("app")), nprocs,
                                   f.number("scale", 1.0));
    trace::TraceFileWriter writer(f.text("out"), nprocs);
    std::vector<trace::TraceRecord> buf(64 * 1024);
    for (unsigned p = 0; p < nprocs; ++p) {
        auto src = workload.makeSource(p);
        std::uint64_t left =
            limit ? limit : std::numeric_limits<std::uint64_t>::max();
        while (left > 0) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, buf.size()));
            const std::size_t got = src->nextBatch(buf.data(), want);
            writer.append(buf.data(), got);
            left -= got;
            if (got < want)
                break;
        }
        writer.endStream();
    }
    writer.close();
    std::printf("captured %llu references (%u per-processor streams) "
                "to %s\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                nprocs, f.text("out").c_str());
    return 0;
}

int
cmdReplay(const flags::Values &f)
{
    api::ExperimentSpec spec = specFromFlags(f);
    overlayInFlag(f, spec);
    overlayFilterFlag(f, spec.filters);
    spec.machine.procs = f.count("procs", spec.machine.procs);
    // Resolution (default filters, processor inference from the
    // capture, section rejection) is the shared service executor's.
    std::string err = service::resolveSpec(spec, "replay");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(f, spec))
        return 0;

    // Replays go through the experiment layer: the sources stream from
    // disk (nothing is materialized) and the run cache keys the workload
    // by the files' content digests, so repeated replays of one capture
    // simulate once per process — and, with the disk tier, once per
    // machine.
    enableDiskCache(f);
    service::ExecuteResult result;
    err = service::executeResolved(spec, "replay", 0, result);
    if (!err.empty())
        fatal(err);
    const experiments::AppRunResult &run = result.runs[0];

    const auto agg = run.stats.aggregate();
    std::printf("replayed %.2fM refs on %u processors; snoops miss "
                "%.1f%%\n\n",
                agg.accesses / 1e6, spec.machine.procs,
                percent(agg.snoopMisses, agg.snoopTagProbes));
    TextTable table;
    table.header({"filter", "coverage"});
    for (std::size_t i = 0; i < run.filterNames.size(); ++i) {
        table.row({run.filterNames[i],
                   TextTable::pct(100.0 * run.filterStats[i].coverage())});
    }
    table.print();

    writeJsonOpt(f, result.report);
    return 0;
}

/**
 * Sustained throughput of the batched delivery pipeline: the median of K
 * cold runs (fresh system and sources each time, only run() timed),
 * reported per run and as a structured api::Report for trend tracking.
 * The median rides out one-sided contention spikes; the best run is
 * kept in the JSON as best_seconds for existing trend tooling. The
 * deferred filter replay's median share of a run is printed as ns/ref
 * and a percentage, and kept in the JSON as replay_seconds.
 */
int
cmdBench(const flags::Values &f)
{
    using Clock = std::chrono::steady_clock;

    api::ExperimentSpec spec = specFromFlags(f);
    overlayCommonFlags(f, spec);
    overlayInFlag(f, spec);
    spec.machine.batchRefs = f.count("batch", spec.machine.batchRefs);
    spec.benchRepeat = f.count("repeat", spec.benchRepeat);
    // Resolution (workload, repeats, filters and scale defaults, replay
    // processor inference) is the shared service executor's; its
    // "bench" kind keeps explicit machine geometry, which bench honours
    // because it drives SmpSystem directly.
    const std::string err = service::resolveSpec(spec, "bench");
    if (!err.empty())
        fatal(err);
    if (dumpSpecRequested(f, spec))
        return 0;

    sim::SmpConfig cfg = spec.smpConfig();
    const unsigned repeat = spec.benchRepeat;

    std::unique_ptr<trace::Workload> workload;
    std::string name;
    if (!spec.traceFiles.empty()) {
        name = spec.traceFiles.front();
        for (std::size_t i = 1; i < spec.traceFiles.size(); ++i)
            name += "," + spec.traceFiles[i];
    } else {
        workload = std::make_unique<trace::Workload>(
            trace::appByName(spec.apps[0]), cfg.nprocs, spec.scale);
        name = spec.apps[0];
    }

    std::uint64_t refs = 0;
    std::vector<double> seconds;
    std::vector<double> replaySeconds;
    for (unsigned r = 0; r < repeat; ++r) {
        sim::SmpSystem sys(cfg);
        std::vector<trace::TraceSourcePtr> sources;
        if (workload) {
            for (unsigned p = 0; p < cfg.nprocs; ++p)
                sources.push_back(workload->makeSource(p));
        } else {
            sources = trace::makeFileSources(spec.traceFiles, cfg.nprocs);
        }
        sys.attachSources(std::move(sources));
        const auto t0 = Clock::now();
        sys.run();
        const auto t1 = Clock::now();
        seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
        replaySeconds.push_back(sys.replaySeconds());
        refs = sys.stats().aggregate().accesses;
    }
    const double best = *std::min_element(seconds.begin(), seconds.end());
    std::vector<double> sorted = seconds;
    const double median = medianInPlace(sorted);
    // The deferred filter replay's share: median replay time against
    // the median run time (SmpSystem times it per chunk flush).
    const double replayMedian = medianInPlace(replaySeconds);

    std::printf("bench %s: %u procs, %u bus%s, %zu filters, batch %u, "
                "%.2fM refs\n",
                name.c_str(), cfg.nprocs, cfg.snoopBuses,
                cfg.snoopBuses == 1 ? "" : "es", spec.filters.size(),
                cfg.batchRefs, refs / 1e6);
    for (unsigned r = 0; r < repeat; ++r) {
        std::printf("  run %u: %.3f s  (%.1f Mrefs/s)\n", r + 1,
                    seconds[r], refs / 1e6 / seconds[r]);
    }
    std::printf("sustained: %.1f Mrefs/s (median of %u)\n",
                refs / 1e6 / median, repeat);
    std::printf("filter replay: %.1f ns/ref (%.1f%% of run)\n",
                refs == 0 ? 0.0 : replayMedian * 1e9 / refs,
                median > 0 ? 100.0 * replayMedian / median : 0.0);

    if (f.has("json")) {
        api::Report report("bench");
        report.echoSpec(spec);
        auto &root = report.root();
        // The pre-Report emitter's fields, preserved for trend tooling.
        root.set("bench", "jetty_cli");
        root.set("workload", name);
        root.set("procs", cfg.nprocs);
        root.set("snoop_buses", cfg.snoopBuses);
        root.set("batch_refs", cfg.batchRefs);
        root.set("filters",
                 static_cast<std::uint64_t>(spec.filters.size()));
        root.set("refs", refs);
        root.set("repeats", repeat);
        root.set("median_seconds", median);
        root.set("best_seconds", best);
        root.set("replay_seconds", replayMedian);
        root.set("refs_per_sec",
                 api::Report::ratio(static_cast<double>(refs), median));
        if (!spec.traceFiles.empty()) {
            root.set("trace_digests",
                     api::Report::traceDigestsNode(spec.traceFiles));
        }
        writeJsonOpt(f, report.root());
    }
    return 0;
}

/** The effective spec of a fuzz campaign (verify::specOfFuzz with the
 *  configured bus count — the shared construction the repro sidecar
 *  also uses). */
api::ExperimentSpec
specOfFuzz(const verify::FuzzConfig &cfg)
{
    return verify::specOfFuzz(cfg, cfg.system.snoopBuses);
}

/** Apply a loaded spec onto the fuzz defaults. A present machine
 *  section is authoritative (explicit geometry honoured); an absent
 *  one keeps the fuzzer's deliberately tiny thrash machine rather than
 *  silently swapping in the paper variant. Filters fall back to the
 *  fuzzer's every-family default when the spec names none. Sections
 *  fuzz cannot honour (workload, sweep, bench) are rejected, matching
 *  the other subcommands. */
void
applySpecToFuzz(const api::ExperimentSpec &spec, verify::FuzzConfig &cfg)
{
    if (!spec.apps.empty() || !spec.traceFiles.empty())
        fatal("fuzz: the spec has a workload section — fuzz synthesizes "
              "its own adversarial traces (use run/replay/bench)");
    const std::string err = service::rejectForeignSections(spec, "fuzz");
    if (!err.empty())
        fatal(err);

    if (spec.hasMachine) {
        const std::vector<std::string> default_filters =
            cfg.system.filterSpecs;
        cfg.system = spec.smpConfig();
        if (spec.filters.empty())
            cfg.system.filterSpecs = default_filters;
    } else if (!spec.filters.empty()) {
        cfg.system.filterSpecs = spec.filters;
    }
    cfg.system.checkSafety = false;
    if (spec.hasFuzz) {
        cfg.seed = spec.fuzz.seed;
        cfg.rounds = spec.fuzz.rounds;
        cfg.refsPerProc = spec.fuzz.refsPerProc;
        cfg.auditEvery = spec.fuzz.auditEvery;
        cfg.randomizeBuses = spec.fuzz.randomizeBuses;
        cfg.timeBudgetSeconds = spec.fuzz.seconds;
    }
}

/**
 * Coverage-guided differential fuzzing (verify/fuzzer.hh): generate
 * adversarial traces, check every online invariant plus golden-model and
 * batched-path state equivalence, shrink and persist any failure.
 */
int
cmdFuzz(const flags::Values &f)
{
    verify::FuzzConfig cfg;

    if (f.has("spec"))
        applySpecToFuzz(api::ExperimentSpec::load(f.text("spec")), cfg);

    // --smoke next: it sets CI-sized defaults that any explicit option
    // below still overrides.
    if (f.has("smoke")) {
        cfg.rounds = 64;
        cfg.refsPerProc = 2048;
        cfg.timeBudgetSeconds = 20.0;
    }

    cfg.seed = f.u64("seed", cfg.seed);
    cfg.rounds = f.count("rounds", cfg.rounds);
    cfg.refsPerProc = f.u64("refs", cfg.refsPerProc);
    cfg.system.nprocs = f.count("procs", cfg.system.nprocs);
    if (f.has("buses")) {
        // Pin the interconnect instead of cycling through 1/2/4.
        cfg.system.snoopBuses = f.count("buses", 1);
        cfg.randomizeBuses = false;
    }
    overlayFilterFlag(f, cfg.system.filterSpecs);
    cfg.timeBudgetSeconds = f.number("seconds", cfg.timeBudgetSeconds);
    cfg.auditEvery = f.count("audit-every", cfg.auditEvery);

    // The effective campaign must itself be expressible as a valid
    // spec (the --dump-spec/--spec contract), so flag values the
    // schema would reject fail here with the schema's diagnostic.
    {
        std::string err;
        api::ExperimentSpec::parse(specOfFuzz(cfg).emit(), &err);
        if (!err.empty())
            fatal(err);
    }

    if (!f.has("repro") && dumpSpecRequested(f, specOfFuzz(cfg)))
        return 0;

    if (f.has("repro")) {
        const std::string &repro = f.text("repro");
        // Replay a persisted repro through the full differential check,
        // on the machine its sidecar recorded — not the default one —
        // so a failure caught under custom filters or geometry cannot
        // falsely replay "clean". Explicit --filters overrides.
        const auto traces = verify::readReproTraces(repro);
        if (traces.size() < 2) {
            fatal("fuzz --repro: '" + repro + "' holds " +
                  std::to_string(traces.size()) +
                  " stream(s); a repro needs one per processor (>= 2)");
        }
        if (f.has("procs") &&
            cfg.system.nprocs != traces.size()) {
            fatal("fuzz --repro: --procs " +
                  std::to_string(cfg.system.nprocs) +
                  " conflicts with the repro's " +
                  std::to_string(traces.size()) + " streams");
        }
        api::ExperimentSpec sidecar;
        if (!verify::readReproConfig(repro, cfg.system,
                                     &sidecar)) {
            warn("no complete sidecar " + repro +
                 ".json; replaying under the default configuration");
        }
        // Restore the recorded campaign's fuzz section too (seed and
        // budgets), so the --dump-spec/--json echo records the
        // campaign that caught the failure rather than the defaults.
        // Flags given explicitly on this invocation still win.
        if (sidecar.hasFuzz) {
            if (!f.has("seed"))
                cfg.seed = sidecar.fuzz.seed;
            if (!f.has("rounds"))
                cfg.rounds = sidecar.fuzz.rounds;
            if (!f.has("refs"))
                cfg.refsPerProc = sidecar.fuzz.refsPerProc;
            if (!f.has("audit-every"))
                cfg.auditEvery = sidecar.fuzz.auditEvery;
            if (!f.has("seconds"))
                cfg.timeBudgetSeconds = sidecar.fuzz.seconds;
            cfg.randomizeBuses = sidecar.fuzz.randomizeBuses;
        }
        // Explicit options override what the sidecar restored.
        overlayFilterFlag(f, cfg.system.filterSpecs);
        cfg.system.snoopBuses = f.count("buses", cfg.system.snoopBuses);
        cfg.system.nprocs = static_cast<unsigned>(traces.size());
        if (dumpSpecRequested(f, specOfFuzz(cfg)))
            return 0;
        const std::string failure = verify::TraceFuzzer::checkOnce(
            cfg.system, traces, cfg.auditEvery, nullptr);
        const bool reproduced = !failure.empty();
        if (reproduced) {
            std::printf("repro %s reproduces:\n  %s\n",
                        repro.c_str(), failure.c_str());
        } else {
            std::printf("repro %s: clean (%zu streams)\n",
                        repro.c_str(), traces.size());
        }
        if (f.has("json")) {
            api::Report report("fuzz");
            report.echoSpec(specOfFuzz(cfg));
            auto &root = report.root();
            root.set("repro", repro);
            root.set("reproduced", reproduced);
            if (reproduced)
                root.set("failure", failure);
            writeJsonOpt(f, report.root());
        }
        return reproduced ? 2 : 0;
    }

    verify::TraceFuzzer fuzzer(cfg);
    const auto result = fuzzer.run();

    std::printf("fuzz: %u rounds, %.2fM refs, coverage %zu/%zu cells "
                "(seed %llu, %u procs, %zu filters)\n",
                result.roundsRun, result.totalRefs / 1e6,
                result.coverage.cellsCovered(),
                result.coverage.cellsTracked(),
                static_cast<unsigned long long>(result.seed),
                cfg.system.nprocs, cfg.system.filterSpecs.size());

    std::string repro_path;
    if (result.failed) {
        std::printf("fuzz: FAILURE in round %u (round seed %llu)\n"
                    "  %s: %s\n"
                    "  shrunk to %llu records\n",
                    result.failingRound,
                    static_cast<unsigned long long>(result.roundSeed),
                    result.invariant.c_str(), result.detail.c_str(),
                    static_cast<unsigned long long>(result.records()));
        repro_path =
            f.has("out") ? f.text("out") : std::string("fuzz-repro.jtt");
        // (writeRepro records the failing round's bus count from the
        // result, and embeds the machine + campaign budgets as an
        // ExperimentSpec.)
        verify::writeRepro(repro_path, result, cfg);
        std::printf("  repro written to %s (+ %s.json)\n",
                    repro_path.c_str(), repro_path.c_str());
    } else {
        std::printf("fuzz: no invariant violations, golden and batched "
                    "states bit-exact\n");
    }

    if (f.has("json")) {
        api::Report report("fuzz");
        report.echoSpec(specOfFuzz(cfg));
        auto &root = report.root();
        root.set("rounds_run", result.roundsRun);
        root.set("total_refs", result.totalRefs);
        json::Value cov = json::Value::object();
        cov.set("cells_covered",
                static_cast<std::uint64_t>(result.coverage.cellsCovered()));
        cov.set("cells_tracked",
                static_cast<std::uint64_t>(result.coverage.cellsTracked()));
        root.set("coverage", std::move(cov));
        root.set("failed", result.failed);
        if (result.failed) {
            root.set("invariant", result.invariant);
            root.set("detail", result.detail);
            root.set("failing_round", result.failingRound);
            root.set("round_seed", result.roundSeed);
            root.set("snoop_buses", result.snoopBuses);
            root.set("records", result.records());
            root.set("repro", repro_path);
        }
        writeJsonOpt(f, report.root());
    }
    return result.failed ? 2 : 0;
}

/** The running daemon, for the signal handler (an atomic pointer store/
 *  load and ExperimentServer::requestStop() are both async-signal-safe). */
std::atomic<service::ExperimentServer *> gServer{nullptr};

extern "C" void
serveSignalHandler(int)
{
    if (auto *server = gServer.load())
        server->requestStop();
}

int
cmdServe(const flags::Values &f)
{
    service::ServerConfig cfg;
    if (f.has("socket"))
        cfg.socketPath = f.text("socket");
    cfg.jobs = f.count("jobs", 0);
    enableDiskCache(f);

    service::ExperimentServer server(cfg);
    std::string err = server.start();
    if (!err.empty())
        fatal(err);

    gServer.store(&server);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    // Flushed eagerly so a scripted caller (CI smoke) that backgrounds
    // the daemon and greps its log sees the ready line immediately.
    std::printf("serving experiments on %s\n", cfg.socketPath.c_str());
    std::fflush(stdout);

    server.run();
    gServer.store(nullptr);
    std::printf("serve: stopped\n");
    return 0;
}

/** The distributed-sweep worker: the serve request loop over
 *  stdin/stdout. Spawned by `sweep --workers N` (pipes dup2'd onto fds
 *  0/1), but any stream a caller can land on those fds works — the
 *  protocol is transport-agnostic. JETTY_WORKER_DIE_AFTER=K (fault
 *  injection for the kill tests and the CI smoke) makes the process die
 *  mid-shard — after reading its Kth request line, before answering
 *  it. */
int
cmdWorker(const flags::Values &f)
{
    // The coordinator may vanish while a response is in flight; EPIPE
    // on the write is the recoverable signal, SIGPIPE is not.
    std::signal(SIGPIPE, SIG_IGN);

    dist::WorkerOptions wopts;
    wopts.jobs = f.count("jobs", 0);
    enableDiskCache(f);

    if (const char *die = std::getenv("JETTY_WORKER_DIE_AFTER");
        die && *die) {
        const std::uint64_t after = parseU64(die).value_or(0);
        if (after == 0)
            fatal(std::string("JETTY_WORKER_DIE_AFTER needs a positive "
                              "request count, got '") + die + "'");
        wopts.faultHook = [after](std::uint64_t received) -> bool {
            if (received >= after) {
                // A hard mid-shard crash as the coordinator sees one:
                // the request was taken, the answer never comes, both
                // pipe ends drop.
                _exit(17);
            }
            return false;
        };
    }

    return dist::runWorkerLoop(0, 1, wopts);
}

int
cmdSubmit(const flags::Values &f)
{
    const std::string socket =
        f.has("socket") ? f.text("socket") : std::string("jetty.sock");

    service::ClientOptions copts;
    copts.timeoutSeconds = f.number("timeout", copts.timeoutSeconds);
    copts.retries = f.count("retries", copts.retries);

    if (f.has("shutdown")) {
        json::Value resp;
        std::string err = service::requestResponse(
            socket, service::makeRequest("shutdown"), resp, copts);
        if (!err.empty())
            fatal(err);
        std::printf("submit: server stopping\n");
        return 0;
    }

    if (f.args().empty())
        fatal("submit needs a spec file: jetty_cli submit SPEC.json "
              "(jetty_cli alone lists the flags)");
    api::ExperimentSpec spec = api::ExperimentSpec::load(f.args()[0]);

    json::Value resp;
    std::string err = service::requestResponse(
        socket, service::makeRunRequest(spec.toJson()), resp, copts);
    if (!err.empty())
        fatal(err);

    const json::Value *ok = resp.find("ok");
    if (!ok || !ok->isBool() || !ok->asBool()) {
        const json::Value *msg = resp.find("error");
        fatal("server error: " + (msg && msg->isString()
                                      ? msg->asString()
                                      : std::string("(malformed response)")));
    }

    const json::Value *kind = resp.find("kind");
    const json::Value *simulated = resp.find("simulated");
    const json::Value *diskHits = resp.find("disk_hits");
    const json::Value *memHits = resp.find("mem_hits");
    std::printf("%s: simulated=%llu disk_hits=%llu mem_hits=%llu\n",
                kind && kind->isString() ? kind->asString().c_str()
                                         : "(unknown)",
                static_cast<unsigned long long>(
                    simulated && simulated->isNumber() ? simulated->asU64()
                                                       : 0),
                static_cast<unsigned long long>(
                    diskHits && diskHits->isNumber() ? diskHits->asU64()
                                                     : 0),
                static_cast<unsigned long long>(
                    memHits && memHits->isNumber() ? memHits->asU64() : 0));

    if (f.has("json")) {
        const json::Value *report = resp.find("report");
        if (!report)
            fatal("server response carries no report");
        writeJsonOpt(f, *report);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using K = flags::Kind;
    const flags::Flag spec{"spec", K::Text, "FILE"};
    const flags::Flag json{"json", K::Text, "FILE"};
    const flags::Flag dump{"dump-spec"};
    const flags::Flag app{"app", K::Text, "NAME"};
    const flags::Flag in{"in", K::Text, "FILE[,FILE...]"};
    const flags::Flag out{"out", K::Text, "FILE"};
    const flags::Flag procs{"procs", K::Count, "N", 2};
    const flags::Flag buses{"buses", K::Count, "N", 1};
    const flags::Flag noSubblock{"no-subblock"};
    const flags::Flag scale{"scale", K::Positive, "F"};
    const flags::Flag filters{"filters", K::Text, "SPEC[,SPEC...]"};
    const flags::Flag jobs{"jobs", K::Count, "N"};
    const flags::Flag cacheDir{"cache-dir", K::Text, "DIR"};
    const flags::Flag cacheBytes{"cache-bytes", K::U64, "N", 1};
    const flags::Flag socket{"socket", K::Text, "PATH"};
    const flags::Flag retries{"retries", K::Count, "N"};
    const flags::Flag limit{"limit", K::Count, "N"};
    struct Subcommand
    {
        flags::Command cmd;
        int (*run)(const flags::Values &);
    };
    // Each command's whole flag table: any other flag is rejected.
    const std::vector<Subcommand> commands = {
        {{"run", {},
          {spec, app, procs, buses, noSubblock, scale, filters, json, dump,
           cacheDir, cacheBytes}},
         cmdRun},
        {{"sweep", {},
          {spec, {"apps", K::Text, "NAME[,NAME...]|all"},
           {"procs", K::Counts, "N[,N...]", 2},
           {"buses", K::Counts, "N[,N...]", 1}, noSubblock, scale, jobs,
           filters, json, dump, cacheDir, cacheBytes,
           {"workers", K::Count, "N", 1}, retries,
           {"respawns", K::Count, "N"}, {"steal-after", K::Number, "S"},
           {"events", K::Text, "FILE"},
           {"kill-worker-after", K::U64, "N", 1}}},
         cmdSweep},
        {{"scorecard", {"FILE"}, {scale, jobs, cacheDir, cacheBytes, json}},
         cmdScorecard},
        {{"apps", {}, {}}, cmdApps},
        {{"filters", {}, {}}, cmdFilters},
        {{"capture", {},
          {app, out, {"procs", K::Count, "N", 1}, scale, limit}},
         cmdCapture},
        {{"trace", {}, {app, {"proc", K::Count, "P"}, out, limit}}, cmdTrace},
        {{"replay", {},
          {spec, in, filters, procs, json, dump, cacheDir, cacheBytes}},
         cmdReplay},
        {{"serve", {}, {socket, jobs, cacheDir, cacheBytes}}, cmdServe},
        {{"submit", {"SPEC.json"},
          {socket, json, {"timeout", K::Positive, "S"}, retries,
           {"shutdown"}}},
         cmdSubmit},
        {{"worker", {}, {jobs, cacheDir, cacheBytes}}, cmdWorker},
        {{"bench", {},
          {spec, app, in, procs, buses, noSubblock, scale, filters,
           {"batch", K::Count, "N", 1}, {"repeat", K::Count, "K", 1}, json,
           dump}},
         cmdBench},
        {{"fuzz", {},
          {spec, {"seed", K::Seed, "N"}, {"rounds", K::Count, "N", 1},
           {"refs", K::Count, "N", 1}, procs, buses, filters,
           {"seconds", K::NonNegative, "S"}, {"smoke"},
           {"audit-every", K::Count, "N"}, out, json,
           {"repro", K::Text, "FILE"}, dump}},
         cmdFuzz},
    };

    const std::string name = argc >= 2 ? argv[1] : "";
    for (const auto &sub : commands) {
        if (sub.cmd.name != name)
            continue;
        flags::Values f;
        const std::string err = flags::parse(sub.cmd, argc, argv, 2, f);
        if (!err.empty())
            fatal(err);
        return sub.run(f);
    }
    if (!name.empty())
        std::fprintf(stderr, "jetty_cli: unknown command '%s'\n",
                     name.c_str());
    std::fprintf(stderr, "usage:\n");
    for (const auto &sub : commands) {
        std::fprintf(stderr, "  jetty_cli %s\n",
                     flags::usage(sub.cmd).c_str());
    }
    return 1;
}
