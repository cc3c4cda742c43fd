/**
 * @file
 * The repository benchmark: three closed-loop workloads over the public
 * layers of the simulator (trace, mem, coherence, core, sim, energy,
 * experiments, api, service, dist), timed from outside on the host's
 * steady clock.
 *
 *   jetty_perfbench --workload lu-cold|fm-replay-l1x4|fig4-campaign
 *                   --seed N --seconds S --trace 0|1 [--smoke]
 *   jetty_perfbench worker --cache-dir DIR     (distributed-sweep worker)
 *
 * Untraced runs (--trace 0) measure the end-to-end metrics; the traced
 * run (--trace 1) records spans around every layer call, runs one probe
 * per layer metric and writes the spans as Chrome trace-event JSON.
 * Every simulated number is checked and reported as an exact count. The
 * last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * See perfbench/README.md for the workloads and metric definitions.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#include <fcntl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment_spec.hh"
#include "api/report.hh"
#include "dist/coordinator.hh"
#include "dist/worker.hh"
#include "experiments/experiments.hh"
#include "experiments/run_result_json.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "sim/latency.hh"
#include "sim/smp_system.hh"
#include "sim/sweep.hh"
#include "trace/apps.hh"
#include "trace/file_stream_source.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/simd.hh"

#include "spans.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace fs = std::filesystem;
using perfbench::Span;

namespace jetty::bench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile of a fixed ladder that still has at least ten
 *  samples beyond it (p50 when there are fewer than 20 samples). */
struct Tail
{
    double pct = 50;
    double value = 0;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double rank = std::ceil(p / 100.0 * n);
        if (n - rank >= 10 || p == 50.0) {
            t.pct = p;
            t.value = v[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
            return t;
        }
    }
    return t;
}

/** Shortest text of a ladder percentile ("95", "99.9"). */
std::string
pctText(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** A workload seed folded into a profile seed (splitmix-expanded, so
 *  neighbouring seeds give unrelated streams). */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    Rng rng(seed);
    return base ^ rng.next();
}

/** A copy of @p v without any "timing" member: the simulated sections
 *  of a Report. Wall-clock fields are excluded from byte identity, as
 *  in the repository's own determinism contract. */
json::Value
stripTiming(const json::Value &v)
{
    if (v.isObject()) {
        json::Value out = json::Value::object();
        for (const auto &[key, val] : v.members()) {
            if (key != "timing")
                out.set(key, stripTiming(val));
        }
        return out;
    }
    if (v.isArray()) {
        json::Value out = json::Value::array();
        for (const auto &item : v.items())
            out.push(stripTiming(item));
        return out;
    }
    return v;
}

std::string
simulatedText(const json::Value &report)
{
    return stripTiming(report).dump();
}

/** Canonical text of every SimStats field (nothing else). */
std::string
statsText(const sim::SimStats &stats)
{
    experiments::AppRunResult r(0);
    r.stats = stats;
    return experiments::runResultToJson(r).dumpCanonical();
}

/** A filter spec as a metric-name suffix ([A-Za-z0-9_.-] only). */
std::string
metricSuffix(const std::string &spec)
{
    std::string out;
    for (const char c : spec) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == '.' || c == '-';
        if (ok)
            out.push_back(c);
        else if (!out.empty() && out.back() != '-')
            out.push_back('-');
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** This process's high-water RSS in KiB (VmHWM: unlike ru_maxrss it
 *  is not inherited from the parent across fork and exec). */
long
vmHwmKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atol(line.c_str() + 6);
    }
    return 0;
}

/** Where every distributed-sweep worker appends its VmHWM at exit. */
std::string gWorkerRssFile;

/** The high-water RSS of this process plus that of its largest worker. */
double
peakRssMb()
{
    long worker = 0;
    std::ifstream in(gWorkerRssFile);
    for (long kb = 0; in >> kb;)
        worker = std::max(worker, kb);
    return static_cast<double>(vmHwmKb() + worker) / 1024.0;
}

// ---- options, results, checks ------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything a run reports, plus its private temp directory. */
struct Run
{
    Options opt;
    std::string tmp;
    std::vector<Metric> metrics;  //!< the final JSON (e2e or per-layer)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::string digest;  //!< simulated-sections fingerprint

    /** One output check. Any failure makes the run incorrect; callers
     *  pass the op's combined verdict to endOp(). */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
        return ok;
    }

    void
    endOp(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        std::printf("metric %-20s %.6g %s\n", name.c_str(), value,
                    unit.c_str());
        if (!opt.trace)
            metrics.push_back({name, value, unit});
    }

    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        std::printf("layer  %-40s %.6g %s\n", name.c_str(), value,
                    unit.c_str());
        if (opt.trace)
            metrics.push_back({name, value, unit});
    }

    /** Print-only line: an end-to-end figure the JSON does not carry
     *  (it exists on this workload only). */
    void
    info(const std::string &name, double value, const std::string &unit,
         const std::string &note = "")
    {
        std::printf("metric %-20s %.6g %s%s%s\n", name.c_str(), value,
                    unit.c_str(), note.empty() ? "" : "  ", note.c_str());
    }
};

/** The exact simulated counts of one run: mem, coherence, core. */
void
reportCounts(Run &run, const sim::SimStats &stats,
             const std::vector<std::string> &filterNames,
             const std::vector<filter::FilterStats> &filterStats,
             bool asLayerMetrics)
{
    const auto agg = stats.aggregate();
    std::uint64_t txns = 0;
    for (const auto &bus : stats.perBus)
        txns += bus.transactions;
    const double busiest =
        sim::evaluateBusContention(stats).busiestUtilization;
    std::vector<Metric> counts = {
        {"mem.l1_misses", static_cast<double>(agg.l1Misses), "count"},
        {"mem.l2_misses",
         static_cast<double>(agg.l2LocalAccesses - agg.l2LocalHits), "count"},
        {"mem.wb_reclaims", static_cast<double>(agg.wbReclaims), "count"},
        {"coherence.bus_txns", static_cast<double>(txns), "count"},
        {"coherence.snoop_probes", static_cast<double>(agg.snoopTagProbes),
         "count"},
        {"coherence.busiest_bus_util", busiest, "fraction"},
    };
    for (std::size_t f = 0; f < filterNames.size(); ++f) {
        const auto &fs = filterStats[f];
        const std::string sfx = metricSuffix(filterNames[f]);
        counts.push_back({"core.filtered." + sfx,
                          fs.probes ? static_cast<double>(fs.filtered) /
                                          static_cast<double>(fs.probes)
                                    : 0.0,
                          "fraction"});
        counts.push_back({"core.coverage." + sfx, fs.coverage(), "fraction"});
        run.check(fs.safetyViolations == 0,
                  "filter " + filterNames[f] + " reported safety violations");
    }
    for (const auto &m : counts) {
        if (asLayerMetrics) {
            run.layer(m.name, m.value, m.unit);
        } else {
            std::printf("count  %-40s %.17g\n", m.name.c_str(), m.value);
        }
    }
}

// ---- private temp dir ---------------------------------------------------

std::string gTmpDir;

void
removeTmpDir()
{
    if (!gTmpDir.empty()) {
        std::error_code ec;
        fs::remove_all(gTmpDir, ec);
        gTmpDir.clear();
        fs::remove(".bench_tmp", ec);  // only when empty
    }
}

std::string
makeTmpDir()
{
    std::error_code ec;
    fs::create_directories(".bench_tmp", ec);
    std::string tmpl = ".bench_tmp/run-XXXXXX";
    if (!::mkdtemp(tmpl.data()))
        return "";
    gTmpDir = tmpl;
    std::atexit(removeTmpDir);
    return tmpl;
}

// ---- in-process server, distributed campaign ----------------------------

/** An ExperimentServer on its own thread. */
class ServerHandle
{
  public:
    ServerHandle() = default;
    ServerHandle(const ServerHandle &) = delete;
    ServerHandle &operator=(const ServerHandle &) = delete;

    std::string
    start(const std::string &socketPath)
    {
        service::ServerConfig cfg;
        cfg.socketPath = socketPath;
        cfg.jobs = 1;
        server_ = std::make_unique<service::ExperimentServer>(cfg);
        const std::string err = server_->start();
        if (!err.empty())
            return err;
        thread_ = std::thread([this]() { server_->run(); });
        return "";
    }

    void
    stop()
    {
        if (!server_)
            return;
        server_->requestStop();
        if (thread_.joinable())
            thread_.join();
        server_.reset();
    }

    ~ServerHandle() { stop(); }

    const std::string &socketPath() const { return server_->socketPath(); }

  private:
    std::unique_ptr<service::ExperimentServer> server_;
    std::thread thread_;
};

/** One distributed campaign over @p workers forked worker processes
 *  (this binary's `worker` mode, as `jetty_cli sweep --workers` forks
 *  `jetty_cli worker`), sharing the disk tier at @p cacheDir. */
std::string
runCampaign(const api::ExperimentSpec &spec, const std::string &cacheDir,
            unsigned workers, dist::CampaignResult &out)
{
    // Built before any fork: the child only dup2s, closes and execs.
    const std::vector<std::string> args = {
        "jetty_perfbench", "worker", "--cache-dir", cacheDir, "--rss-file",
        gWorkerRssFile};
    std::vector<char *> argvp;
    for (const auto &a : args)
        argvp.push_back(const_cast<char *>(a.c_str()));
    argvp.push_back(nullptr);

    dist::CoordinatorConfig cfg;
    cfg.spawnWorkers = workers;
    cfg.factory = [&argvp](dist::WorkerEndpoint &ep,
                           std::string *err) -> bool {
        int req[2];
        int resp[2];
        if (::pipe2(req, O_CLOEXEC) != 0) {
            *err = std::string("pipe: ") + std::strerror(errno);
            return false;
        }
        if (::pipe2(resp, O_CLOEXEC) != 0) {
            *err = std::string("pipe: ") + std::strerror(errno);
            ::close(req[0]);
            ::close(req[1]);
            return false;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            *err = std::string("fork: ") + std::strerror(errno);
            for (const int fd : {req[0], req[1], resp[0], resp[1]})
                ::close(fd);
            return false;
        }
        if (pid == 0) {
            ::dup2(req[0], 0);
            ::dup2(resp[1], 1);
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
    return coordinator.run(spec, out);
}

struct DistShape
{
    double busyShare = 0;
    double dispatchOverhead = 0;
};

/** Worker busy share and dispatch overhead from the shard events. */
DistShape
distShape(const dist::CampaignResult &res, unsigned workers)
{
    std::map<int, double> busy;
    double total = 0;
    for (const auto &ev : res.events) {
        if (ev.type == "completed") {
            busy[ev.worker] += ev.wallSeconds;
            total += ev.wallSeconds;
        }
    }
    double busiest = 0;
    for (const auto &[w, s] : busy)
        busiest = std::max(busiest, s);
    DistShape d;
    d.busyShare = res.wallSeconds > 0 ? total / (workers * res.wallSeconds)
                                      : 0;
    d.dispatchOverhead = res.wallSeconds - busiest;
    return d;
}

constexpr unsigned kWorkers = 3;

/** A SweepRunner result as the experiments layer's AppRunResult, so a
 *  replay renders through the same Report run node as a served run. */
experiments::AppRunResult
fromSweep(const trace::AppProfile &app, const sim::SweepResult &r)
{
    experiments::AppRunResult out(0);
    out.appName = app.name;
    out.abbrev = app.abbrev;
    out.stats = r.stats;
    out.totalRefs = r.totalRefs;
    out.simSeconds = r.elapsedSeconds;
    out.refsTooFewForRate = r.refsTooFewForRate;
    out.filterNames = r.filterNames;
    out.filterStats = r.filterStats;
    out.filterCosts = r.filterCosts;
    out.traffic = r.traffic;
    return out;
}

// ---- the layer probes of the traced run ---------------------------------

/** The cell the layer probes measure, and the answer to check against. */
struct ProbeCell
{
    trace::AppProfile app;
    double scale = 1;
    sim::SmpConfig cfg;  //!< trio filters
    experiments::SystemVariant variant;
    experiments::AppRunResult reference;  //!< the op's answer
    api::ExperimentSpec spec;             //!< variant spec for the
                                          //!< experiments/service/dist probes
    std::string capture;                  //!< JTTRACE2 of the cell
    double captureSeconds = -1;           //!< < 0: not captured yet
};

/** Capture @p app to a JTTRACE2 file through TraceFileWriter. */
std::uint64_t
capture(const trace::AppProfile &app, unsigned nprocs, double scale,
        const std::string &path)
{
    trace::Workload wl(app, nprocs, scale);
    trace::TraceFileWriter writer(path, nprocs);
    std::vector<trace::TraceRecord> buf(4096);
    for (unsigned p = 0; p < nprocs; ++p) {
        auto src = wl.makeSource(p);
        for (;;) {
            const std::size_t n = src->nextBatch(buf.data(), buf.size());
            if (n == 0)
                break;
            writer.append(buf.data(), n);
        }
        writer.endStream();
    }
    writer.close();
    return writer.recordsWritten();
}

std::uint64_t
drain(std::vector<trace::TraceSourcePtr> &sources)
{
    std::vector<trace::TraceRecord> buf(4096);
    std::uint64_t total = 0;
    for (auto &src : sources) {
        for (;;) {
            const std::size_t n = src->nextBatch(buf.data(), buf.size());
            if (n == 0)
                break;
            total += n;
        }
    }
    return total;
}

/** SmpSystem::run() over the capture materialized into memory. */
double
runMaterialized(const ProbeCell &cell, const sim::SmpConfig &cfg,
                sim::SweepResult *out, std::uint64_t *refs)
{
    std::vector<trace::TraceSourcePtr> sources;
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        sources.push_back(std::make_unique<trace::VectorTraceSource>(
            trace::readTraceStream(cell.capture, p)));
    }
    sim::SmpSystem system(cfg);
    system.attachSources(std::move(sources));
    const auto t0 = Clock::now();
    {
        Span s(cfg.filterSpecs.size() == 1 ? "sim.run_null" : "sim.run");
        system.run();
    }
    const double secs = since(t0);
    *refs = system.stats().aggregate().accesses;
    if (out) {
        out->stats = system.stats();
        const auto &bank = system.bank(0);
        for (std::size_t i = 0; i < bank.size(); ++i) {
            out->filterNames.push_back(bank.filterAt(i).name());
            out->filterStats.push_back(system.mergedFilterStats(i));
        }
    }
    return secs;
}

void
layerProbes(Run &run, ProbeCell &cell, unsigned reps)
{
    const unsigned nprocs = cell.cfg.nprocs;
    std::vector<double> t;

    // api: spec parse.
    const std::string specText = cell.spec.emit();
    t.clear();
    for (unsigned i = 0; i < reps * 10; ++i) {
        std::string err;
        const auto t0 = Clock::now();
        Span s("api.spec_parse");
        (void)api::ExperimentSpec::parse(specText, &err);
        t.push_back(since(t0));
        run.check(err.empty(), "probe spec does not parse: " + err);
    }
    run.layer("api.spec_parse_us", median(t) * 1e6, "us");

    // trace: workload build, synthesis, capture, file delivery.
    t.clear();
    std::vector<double> synth;
    for (unsigned i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        std::unique_ptr<trace::Workload> wl;
        {
            Span s("trace.workload_build");
            wl = std::make_unique<trace::Workload>(cell.app, nprocs,
                                                   cell.scale);
        }
        t.push_back(since(t0));
        std::vector<trace::TraceSourcePtr> sources;
        for (unsigned p = 0; p < nprocs; ++p)
            sources.push_back(wl->makeSource(p));
        t0 = Clock::now();
        std::uint64_t refs = 0;
        {
            Span s("trace.synth_drain");
            refs = drain(sources);
        }
        synth.push_back(since(t0) * 1e9 / static_cast<double>(refs));
    }
    run.layer("trace.workload_build_ms", median(t) * 1e3, "ms");
    run.layer("trace.synth_ns_per_ref", median(synth), "ns");

    if (cell.captureSeconds < 0) {
        cell.capture = run.tmp + "/probe.jttrace";
        const auto t0 = Clock::now();
        Span s("trace.capture");
        capture(cell.app, nprocs, cell.scale, cell.capture);
        cell.captureSeconds = since(t0);
    }
    run.layer("trace.capture_s", cell.captureSeconds, "s");

    t.clear();
    for (unsigned i = 0; i < reps; ++i) {
        auto sources = trace::makeFileSources({cell.capture}, nprocs);
        const auto t0 = Clock::now();
        std::uint64_t refs = 0;
        {
            Span s("trace.file_drain");
            refs = drain(sources);
        }
        t.push_back(since(t0) * 1e9 / static_cast<double>(refs));
    }
    run.layer("trace.file_ns_per_ref", median(t), "ns");

    // sim + core: the materialized run with the trio and with NULL.
    sim::SmpConfig nullCfg = cell.cfg;
    nullCfg.filterSpecs = {"NULL"};
    std::vector<double> full;
    std::vector<double> null;
    sim::SweepResult trioRun;
    for (unsigned i = 0; i < reps; ++i) {
        std::uint64_t refs = 0;
        const double a =
            runMaterialized(cell, cell.cfg, i == 0 ? &trioRun : nullptr,
                            &refs);
        full.push_back(a * 1e9 / static_cast<double>(refs));
        const double b = runMaterialized(cell, nullCfg, nullptr, &refs);
        null.push_back(b * 1e9 / static_cast<double>(refs));
    }
    run.check(statsText(trioRun.stats) == statsText(cell.reference.stats),
              "materialized SmpSystem::run stats differ from the op's");
    run.layer("sim.run_ns_per_ref", median(full), "ns");
    run.layer("sim.run_null_ns_per_ref", median(null), "ns");
    run.layer("core.filter_ns_per_ref", median(full) - median(null), "ns");
    reportCounts(run, trioRun.stats, trioRun.filterNames,
                 trioRun.filterStats, true);

    // energy: evaluateEnergy over every filter of the op's run.
    t.clear();
    for (unsigned i = 0; i < reps * 20; ++i) {
        const auto t0 = Clock::now();
        Span s("energy.evaluate");
        double sink = 0;
        for (const auto &name : cell.reference.filterNames) {
            for (const auto mode : {energy::AccessMode::Serial,
                                    energy::AccessMode::Parallel}) {
                sink += experiments::evaluateEnergy(cell.reference,
                                                    cell.variant, name, mode)
                            .reductionOverAllPct;
            }
        }
        t.push_back(since(t0));
        run.check(std::isfinite(sink), "energy evaluation is not finite");
    }
    run.layer("energy.evaluate_us", median(t) * 1e6, "us");

    // experiments: the two RunCache tiers over the probe spec.
    auto &cache = experiments::RunCache::instance();
    const std::string expDir = run.tmp + "/probe-cache";
    cache.setDiskRoot("off");
    cache.clear();
    cache.setDiskRoot(expDir);
    api::ExperimentSpec spec = cell.spec;
    std::string err;
    const std::string kind = service::chooseKind(spec, &err);
    err = service::resolveSpec(spec, kind);
    run.check(err.empty(), "probe spec does not resolve: " + err);
    service::ExecuteResult exec;
    err = service::executeResolved(spec, kind, kWorkers, exec);
    run.check(err.empty() && exec.simulated == exec.requests.size(),
              "cold probe execution did not simulate every cell");
    const auto &reqs = exec.requests;
    run.layer("experiments.simulated", static_cast<double>(exec.simulated),
              "count");
    t.clear();
    for (unsigned i = 0; i < reps * 10; ++i) {
        const auto t0 = Clock::now();
        Span s("experiments.mem_hit");
        (void)experiments::runMany(reqs, 1);
        t.push_back(since(t0));
    }
    run.layer("experiments.mem_hit_us", median(t) * 1e6, "us");
    t.clear();
    std::uint64_t diskHits = 0;
    for (unsigned i = 0; i < reps * 3; ++i) {
        cache.clear();
        const auto t0 = Clock::now();
        Span s("experiments.disk_hit");
        (void)experiments::runMany(reqs, 1);
        t.push_back(since(t0));
        diskHits = cache.diskHits();
    }
    run.check(diskHits == reqs.size(), "disk-tier probe missed the disk");
    run.layer("experiments.disk_hit_ms", median(t) * 1e3, "ms");
    run.layer("experiments.disk_hits", static_cast<double>(diskHits),
              "count");
    run.layer("experiments.disk_bytes", static_cast<double>(dirBytes(expDir)),
              "bytes");

    // api + service: report build and emission.
    std::vector<double> build;
    std::vector<double> emit;
    std::string reportText;
    for (unsigned i = 0; i < reps * 5; ++i) {
        auto t0 = Clock::now();
        json::Value report;
        {
            Span s("service.build_report");
            report = service::buildReport(spec, kind, exec.filterNames,
                                          exec.requests, exec.runs);
        }
        build.push_back(since(t0));
        t0 = Clock::now();
        {
            Span s("api.emit");
            reportText = report.dump();
        }
        emit.push_back(since(t0));
    }
    run.layer("api.report_build_ms", median(build) * 1e3, "ms");
    run.layer("api.report_emit_ms", median(emit) * 1e3, "ms");
    run.layer("api.report_bytes", static_cast<double>(reportText.size()),
              "bytes");

    // service: warm in-process execution and the socket round trip.
    ServerHandle server;
    err = server.start(run.tmp + "/probe.sock");
    run.check(err.empty(), "probe server did not start: " + err);
    t.clear();
    for (unsigned i = 0; i < reps * 5; ++i) {
        service::ExecuteResult warm;
        const auto t0 = Clock::now();
        Span s("service.execute");
        err = service::executeSpec(cell.spec, 1, warm);
        t.push_back(since(t0));
        run.check(err.empty() && warm.simulated == 0,
                  "warm execution simulated");
    }
    const double execMs = median(t) * 1e3;
    run.layer("service.execute_ms", execMs, "ms");
    t.clear();
    std::size_t respBytes = 0;
    const json::Value request = service::makeRunRequest(cell.spec.toJson());
    for (unsigned i = 0; i < reps * 10; ++i) {
        json::Value resp;
        const auto t0 = Clock::now();
        {
            Span s("service.submit");
            err = service::requestResponse(server.socketPath(), request,
                                           resp);
        }
        t.push_back(since(t0));
        const json::Value *ok = resp.find("ok");
        const json::Value *rep = resp.find("report");
        run.check(err.empty() && ok && ok->isBool() && ok->asBool() && rep &&
                      rep->dump() == reportText,
                  "probe submit failed or answered a different report");
        respBytes = resp.dumpCompact().size();
    }
    run.layer("service.wire_ms", median(t) * 1e3 - execMs, "ms");
    run.layer("service.response_bytes", static_cast<double>(respBytes),
              "bytes");
    server.stop();
    cache.setDiskRoot("off");
    cache.clear();

    // dist: a cold distributed campaign of the probe spec.
    api::ExperimentSpec sweepSpec = cell.spec;
    err = service::resolveSpec(sweepSpec, "sweep");
    run.check(err.empty(), "probe spec does not resolve as a sweep: " + err);
    dist::CampaignResult camp;
    {
        Span s("dist.campaign");
        err = runCampaign(sweepSpec, run.tmp + "/probe-dist", kWorkers, camp);
    }
    run.check(err.empty() && camp.simulated == camp.shards,
              "probe campaign failed: " + err);
    const DistShape shape = distShape(camp, kWorkers);
    run.layer("dist.worker_busy_share", shape.busyShare, "fraction");
    run.layer("dist.dispatch_overhead_s", shape.dispatchOverhead, "s");
    run.layer("dist.shards", static_cast<double>(camp.shards), "count");
    run.layer("dist.retried", static_cast<double>(camp.retried), "count");
    run.layer("dist.stolen", static_cast<double>(camp.stolen), "count");
}

// ---- the closed loop ----------------------------------------------------

/**
 * Moves the calling thread to the next allowed CPU before each op, so a
 * single-threaded op samples every core in turn. On a shared host the
 * cores see different outside load; without rotation a run's median
 * follows where the scheduler happened to place it. The destructor
 * restores the original mask (forked workers inherit it).
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&orig_);
        ::sched_getaffinity(0, sizeof(orig_), &orig_);
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &orig_))
                cpus_.push_back(c);
        }
    }
    ~CpuRotation() { ::sched_setaffinity(0, sizeof(orig_), &orig_); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    moveTo(std::uint64_t op)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[op % cpus_.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t orig_;
    std::vector<int> cpus_;
};

/** One timed op's end-to-end figures. */
struct OpTiming
{
    double runS = 0;
    double mrefs = 0;
    bool traced = false;
};

/**
 * Run @p op in a closed loop for the run's --seconds (at least
 * @p minOps times), each op on the next CPU when @p rotateCpus (for
 * single-threaded ops; never around forked workers). The traced run
 * alternates untraced and traced ops so the tracing overhead is
 * measured under the same drift.
 */
std::vector<OpTiming>
closedLoop(Run &run, unsigned minOps,
           const std::function<OpTiming(std::uint64_t)> &op,
           perfbench::SpanRecorder *rec, bool rotateCpus)
{
    CpuRotation rotation;
    std::vector<OpTiming> out;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
        // The 120 s cap keeps a slow host inside the 180 s run limit.
        const bool budgetLeft = since(t0) < run.opt.seconds;
        if ((!budgetLeft && out.size() >= minOps) || since(t0) > 120)
            break;
        if (rotateCpus)
            rotation.moveTo(i);
        const bool traced = rec && (i % 2 == 1);
        perfbench::activeRecorder() = traced ? rec : nullptr;
        if (rec)
            rec->setOp(i);
        OpTiming t = op(i);
        t.traced = traced;
        out.push_back(t);
    }
    perfbench::activeRecorder() = rec;
    return out;
}

/** Report run_s / mrefs_per_s from the untraced ops, and the tracing
 *  overhead when some ops were traced. */
void
reportLoop(Run &run, const std::vector<OpTiming> &ops)
{
    std::vector<double> runS[2];
    std::vector<double> mrefs[2];
    for (const auto &o : ops) {
        runS[o.traced].push_back(o.runS);
        mrefs[o.traced].push_back(o.mrefs);
    }
    run.e2e("run_s", median(runS[0]), "s");
    const Tail tail = tailOf(runS[0]);
    run.info("run_s_tail", tail.value, "s",
             "p" + pctText(tail.pct) + " of " +
                 std::to_string(tail.samples) + " samples");
    run.e2e("mrefs_per_s", median(mrefs[0]), "Mrefs/s");
    if (!runS[1].empty()) {
        std::printf("tracing overhead: run_s %+.6f s (%+.2f%%), "
                    "mrefs_per_s %+.4f Mrefs/s (%+.2f%%) over %zu traced / "
                    "%zu untraced ops\n",
                    median(runS[1]) - median(runS[0]),
                    100.0 * (median(runS[1]) / median(runS[0]) - 1),
                    median(mrefs[1]) - median(mrefs[0]),
                    100.0 * (median(mrefs[1]) / median(mrefs[0]) - 1),
                    runS[1].size(), runS[0].size());
    }
}

/** setup_s: the median of @p reps set-ups; the traced run adds one
 *  traced set-up and prints the difference. */
void
reportSetup(Run &run, const std::vector<double> &untraced, double traced)
{
    run.e2e("setup_s", median(untraced), "s");
    if (traced >= 0) {
        std::printf("tracing overhead: setup_s %+.6f s\n",
                    traced - median(untraced));
    }
}

void
printFingerprint(Run &run, const std::string &simText)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(fnv1a(simText)));
    run.digest = hex;
    std::printf("fingerprint workload=%s seed=%llu digest=%s\n",
                run.opt.workload.c_str(),
                static_cast<unsigned long long>(run.opt.seed), hex);
}

// ---- lu-cold --------------------------------------------------------------

int
runLuCold(Run &run, perfbench::SpanRecorder *rec)
{
    const std::string specPath = "perfbench/specs/lu-cold.spec.json";
    std::string specText = readFile(specPath);
    if (specText.empty()) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", specPath.c_str());
        return 2;
    }
    std::string err;
    if (run.opt.smoke) {
        auto s = api::ExperimentSpec::parse(specText, &err);
        s.scale = 0.02;
        specText = s.emit();
    }

    // Set-up: load, resolve and expand the spec and lay out the seeded
    // workload (its page table) once.
    auto setupOnce = [&]() {
        const auto t0 = Clock::now();
        Span s("setup");
        auto spec = api::ExperimentSpec::parse(readFile(specPath), &err);
        err += service::resolveSpec(spec, "run");
        auto reqs = spec.expand();
        trace::AppProfile app = reqs.at(0).app;
        app.seed = mixSeed(app.seed, run.opt.seed);
        trace::Workload wl(app, spec.machine.procs, spec.scale);
        return since(t0);
    };
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i)
        setups.push_back(setupOnce());
    double tracedSetup = -1;
    if (rec) {
        perfbench::activeRecorder() = rec;
        tracedSetup = setupOnce();
    }
    if (!run.check(err.empty(), "lu-cold spec: " + err))
        return 2;

    auto &cache = experiments::RunCache::instance();
    cache.setDiskRoot("off");

    std::string firstSim;
    experiments::AppRunResult lastRun;
    api::ExperimentSpec lastSpec;
    auto op = [&](std::uint64_t) {
        cache.clear();  // cold: tier 0 empty, no disk tier
        OpTiming t;
        const auto t0 = Clock::now();
        json::Value report;
        std::string text;
        std::vector<experiments::AppRunResult> runs;
        std::string opErr;
        api::ExperimentSpec spec;
        {
            Span s("op");
            {
                Span p("api.spec_parse");
                spec = api::ExperimentSpec::parse(specText, &opErr);
            }
            {
                Span p("service.resolve");
                opErr += service::resolveSpec(spec, "run");
            }
            std::vector<experiments::RunRequest> reqs;
            std::vector<std::string> names;
            {
                Span p("api.expand");
                reqs = spec.expand();
                names = service::canonicalFilterNames(spec);
                for (auto &req : reqs) {
                    req.filterSpecs = names;
                    req.app.seed = mixSeed(req.app.seed, run.opt.seed);
                }
            }
            {
                Span p("experiments.run_many");
                runs = experiments::runMany(reqs, 1);
            }
            {
                Span p("service.build_report");
                report = service::buildReport(spec, "run", names, reqs, runs);
            }
            {
                Span p("api.emit");
                text = report.dump();
            }
        }
        t.runS = since(t0);
        bool ok = run.check(opErr.empty() && runs.size() == 1 &&
                                cache.simulations() == 1,
                            "lu-cold op did not simulate cold: " + opErr);
        if (ok) {
            t.mrefs = static_cast<double>(runs[0].totalRefs) / 1e6 /
                      runs[0].simSeconds;
            const std::string sim = simulatedText(report);
            if (firstSim.empty())
                firstSim = sim;
            ok = run.check(sim == firstSim,
                           "lu-cold Report differs from the first op's");
            lastRun = runs[0];
            lastSpec = spec;
        }
        run.endOp(ok);
        return t;
    };
    const auto ops = closedLoop(run, 3, op, rec, true);
    cache.clear();

    reportSetup(run, setups, tracedSetup);
    reportLoop(run, ops);
    run.e2e("peak_rss_mb", peakRssMb(), "MB");
    printFingerprint(run, firstSim);
    reportCounts(run, lastRun.stats, lastRun.filterNames,
                 lastRun.filterStats, false);

    if (rec) {
        perfbench::activeRecorder() = rec;
        rec->setOp(ops.size());
        ProbeCell cell;
        cell.app = trace::appByName(lastSpec.apps.at(0));
        cell.app.seed = mixSeed(cell.app.seed, run.opt.seed);
        cell.scale = lastSpec.scale;
        cell.variant = lastSpec.machine.toVariant();
        cell.cfg = cell.variant.smpConfig();
        cell.cfg.filterSpecs = service::defaultFilterSpecs();
        cell.reference = lastRun;
        cell.spec = lastSpec;
        layerProbes(run, cell, run.opt.smoke ? 1 : 3);
    }
    return 0;
}

// ---- fm-replay-l1x4 -------------------------------------------------------

int
runFmReplay(Run &run, perfbench::SpanRecorder *rec)
{
    const double scale = run.opt.smoke ? 0.02 : 0.5;
    trace::AppProfile app = trace::appByName("fm");
    app.seed = mixSeed(app.seed, run.opt.seed);

    // The base machine with a 4-way L1 (same capacity), the paper trio.
    experiments::SystemVariant variant;
    sim::SmpConfig cfg = variant.smpConfig();
    cfg.l1.assoc = 4;
    cfg.filterSpecs = service::defaultFilterSpecs();

    // Set-up: capture fm once to a JTTRACE2 file (5 times, median: the
    // atomic publish makes single captures I/O-noisy).
    const std::string path = run.tmp + "/fm.jttrace";
    std::vector<double> setups;
    std::uint64_t captured = 0;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        captured = capture(app, cfg.nprocs, scale, path);
        setups.push_back(since(t0));
    }
    double tracedSetup = -1;
    if (rec) {
        perfbench::activeRecorder() = rec;
        const auto t0 = Clock::now();
        Span s("trace.capture");
        captured = capture(app, cfg.nprocs, scale, path);
        tracedSetup = since(t0);
    }
    perfbench::activeRecorder() = nullptr;

    sim::SweepJob replay;
    replay.app = app;
    replay.cfg = cfg;
    replay.traceFiles = {path};

    // Set-up check: replaying the capture simulates exactly what
    // synthesizing the same profile on the same geometry does.
    sim::SweepJob synth = replay;
    synth.traceFiles.clear();
    synth.accessScale = scale;
    const auto synthRun = fromSweep(app, sim::SweepRunner::runOne(synth));
    const auto replayRun = fromSweep(app, sim::SweepRunner::runOne(replay));
    const std::string synthSim = simulatedText(
        api::Report::runNode(synthRun, variant, synthRun.filterNames));
    if (!run.check(replayRun.totalRefs == captured &&
                       simulatedText(api::Report::runNode(
                           replayRun, variant, replayRun.filterNames)) ==
                           synthSim,
                   "fm capture replay differs from the synthesized run"))
        return 0;

    std::string firstSim;
    experiments::AppRunResult lastRun;
    auto op = [&](std::uint64_t) {
        OpTiming t;
        const auto t0 = Clock::now();
        sim::SweepResult res;
        {
            Span s("op");
            Span p("sim.run_one");
            res = sim::SweepRunner::runOne(replay);
        }
        t.runS = since(t0);
        t.mrefs = static_cast<double>(res.totalRefs) / 1e6 /
                  res.elapsedSeconds;
        lastRun = fromSweep(app, res);
        const std::string sim = simulatedText(
            api::Report::runNode(lastRun, variant, lastRun.filterNames));
        if (firstSim.empty())
            firstSim = sim;
        run.endOp(run.check(sim == firstSim && sim == synthSim,
                            "fm replay differs from the first op's"));
        return t;
    };
    const auto ops = closedLoop(run, 3, op, rec, true);

    reportSetup(run, setups, tracedSetup);
    reportLoop(run, ops);
    run.e2e("peak_rss_mb", peakRssMb(), "MB");
    printFingerprint(run, firstSim);
    reportCounts(run, lastRun.stats, lastRun.filterNames,
                 lastRun.filterStats, false);

    if (rec) {
        perfbench::activeRecorder() = rec;
        rec->setOp(ops.size());
        ProbeCell cell;
        cell.app = app;
        cell.scale = scale;
        cell.variant = variant;
        cell.cfg = cfg;
        cell.reference = lastRun;
        cell.capture = path;
        cell.captureSeconds = median(setups);
        // The variant-only layers (experiments/service/dist) replay the
        // same capture on the base machine: they reject explicit
        // geometry.
        cell.spec.machine.procs = cfg.nprocs;
        cell.spec.hasMachine = true;
        cell.spec.traceFiles = {path};
        cell.spec.filters = service::defaultFilterSpecs();
        layerProbes(run, cell, run.opt.smoke ? 1 : 3);
    }
    return 0;
}

// ---- fig4-campaign --------------------------------------------------------

int
runFig4(Run &run, perfbench::SpanRecorder *rec)
{
    const std::string specPath = "examples/paper_figure4.spec.json";
    const unsigned kDisk = run.opt.smoke ? 3 : 40;
    const unsigned kMem = run.opt.smoke ? 5 : 80;
    std::string err;

    // Set-up: load the spec, permute its filters by the seed, resolve
    // it, and start the experiment server (repeated, median).
    api::ExperimentSpec spec;
    ServerHandle server;
    auto setupOnce = [&]() {
        server.stop();
        const auto t0 = Clock::now();
        Span s("setup");
        spec = api::ExperimentSpec::parse(readFile(specPath), &err);
        if (run.opt.smoke)
            spec.scale = 0.01;
        // The seed permutes the filters, not the apps: the coordinator
        // dispatches shards in app order, and the makespan of 10 uneven
        // cells on 3 workers moves by ~20% with that order.
        Rng rng(run.opt.seed);
        auto &f = spec.filters;
        for (std::size_t i = f.size(); i > 1; --i)
            std::swap(f[i - 1], f[rng.below(i)]);
        err += service::resolveSpec(spec, "sweep");
        err += server.start(run.tmp + "/s.sock");
        json::Value pong;
        err += service::requestResponse(server.socketPath(),
                                        service::makeRequest("ping"), pong);
        return since(t0);
    };
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i)
        setups.push_back(setupOnce());
    double tracedSetup = -1;
    if (rec) {
        perfbench::activeRecorder() = rec;
        tracedSetup = setupOnce();
    }
    if (!run.check(err.empty(), "fig4 set-up: " + err))
        return 2;

    const std::size_t cells = spec.expand().size();
    const json::Value request = service::makeRunRequest(spec.toJson());
    auto &cache = experiments::RunCache::instance();

    std::vector<double> cold;
    std::vector<double> warm;
    std::vector<double> memMs;
    std::vector<double> diskMs;
    std::string firstSim;
    dist::CampaignResult lastCold;

    // One submit; checks the answer against the cold campaign's Report.
    // Returns the round trip in seconds.
    auto submit = [&](const char *span, const std::string &coldText,
                      bool diskWarm) {
        json::Value resp;
        const auto t0 = Clock::now();
        std::string e;
        {
            Span s(span);
            e = service::requestResponse(server.socketPath(), request, resp);
        }
        const double ms = since(t0) * 1e3;
        Span c("bench.check");
        const json::Value *ok = resp.find("ok");
        const json::Value *rep = resp.find("report");
        const json::Value *simd = resp.find("simulated");
        const json::Value *disk = resp.find("disk_hits");
        const json::Value *mem = resp.find("mem_hits");
        bool good = run.check(e.empty() && ok && ok->isBool() &&
                                  ok->asBool(),
                              "submit failed: " + e);
        good = good && run.check(rep && rep->dump() == coldText,
                                 "submitted Report differs from the cold "
                                 "campaign's");
        good = good && run.check(simd && simd->asU64() == 0,
                                 "warm submit simulated");
        good = good &&
               run.check(diskWarm ? disk && disk->asU64() == cells
                                  : mem && mem->asU64() == cells,
                         diskWarm ? "disk-warm submit missed the disk tier"
                                  : "memory-warm submit missed tier 0");
        run.endOp(good);
        (diskWarm ? diskMs : memMs).push_back(ms);
        return ms / 1e3;
    };

    // One op is the four phases; run_s sums their timed calls (the
    // output checks and tier-0 clears between them are not timed).
    auto op = [&](std::uint64_t i) {
        const std::string dir = run.tmp + "/cache-" + std::to_string(i);
        cache.setDiskRoot("off");
        cache.clear();
        OpTiming t;
        Span s("op");

        // Cold: the distributed campaign writes the disk tier.
        dist::CampaignResult c;
        auto t0 = Clock::now();
        {
            Span p("dist.campaign_cold");
            err = runCampaign(spec, dir, kWorkers, c);
        }
        cold.push_back(since(t0));
        auto checks = std::make_unique<Span>("bench.check");
        const std::string coldText = c.report.dump();
        run.endOp(run.check(err.empty() && c.simulated == cells,
                            "cold campaign: " + err));
        std::uint64_t refs = 0;
        double simSecs = 0;
        for (const auto &r : c.runs) {
            refs += r.totalRefs;
            simSecs += r.simSeconds;
        }
        t.mrefs = static_cast<double>(refs) / 1e6 / simSecs;
        const std::string sim = simulatedText(c.report);
        if (firstSim.empty())
            firstSim = sim;
        run.check(sim == firstSim,
                  "cold campaign Report differs from the first op's");

        checks.reset();

        // Warm rerun: every shard answers from the disk tier.
        dist::CampaignResult w;
        t0 = Clock::now();
        {
            Span p("dist.campaign_warm");
            err = runCampaign(spec, dir, kWorkers, w);
        }
        warm.push_back(since(t0));
        checks = std::make_unique<Span>("bench.check");
        run.endOp(run.check(err.empty() && w.simulated == 0 &&
                                w.diskHits == cells &&
                                w.report.dump() == coldText,
                            "warm rerun simulated or differs: " + err));
        checks.reset();
        t.runS = cold.back() + warm.back();

        // Submits to the in-process server: disk-warm (tier 0 cleared
        // first, as in a fresh process), then memory-warm.
        cache.setDiskRoot(dir);
        for (unsigned k = 0; k < kDisk; ++k) {
            {
                Span clearSpan("bench.clear");
                cache.clear();
            }
            t.runS += submit("service.submit_disk", coldText, true);
        }
        for (unsigned k = 0; k < kMem; ++k)
            t.runS += submit("service.submit_mem", coldText, false);
        lastCold = std::move(c);

        cache.setDiskRoot("off");
        cache.clear();
        std::error_code ec;
        fs::remove_all(dir, ec);
        return t;
    };
    const auto ops = closedLoop(run, 2, op, rec, false);

    reportSetup(run, setups, tracedSetup);
    reportLoop(run, ops);
    run.e2e("peak_rss_mb", peakRssMb(), "MB");
    run.info("sweep_cold_s", median(cold), "s");
    run.info("sweep_warm_s", median(warm), "s");
    const Tail memTail = tailOf(memMs);
    const Tail diskTail = tailOf(diskMs);
    run.info("submit_mem_ms", median(memMs), "ms");
    run.info("submit_mem_ms_tail", memTail.value, "ms",
             "p" + pctText(memTail.pct) + " of " +
                 std::to_string(memTail.samples) + " samples");
    run.info("submit_disk_ms", median(diskMs), "ms");
    run.info("submit_disk_ms_tail", diskTail.value, "ms",
             "p" + pctText(diskTail.pct) + " of " +
                 std::to_string(diskTail.samples) + " samples");
    printFingerprint(run, firstSim);

    // The probe cell, whose exact counts are fingerprinted: one campaign
    // cell picked by the seed.
    const std::size_t probe = run.opt.seed % cells;
    const auto &cellRun = lastCold.runs.at(probe);
    reportCounts(run, cellRun.stats, cellRun.filterNames,
                 cellRun.filterStats, false);

    if (rec) {
        perfbench::activeRecorder() = rec;
        rec->setOp(ops.size());
        ProbeCell cell;
        cell.app = lastCold.requests.at(probe).app;
        cell.scale = spec.scale;
        cell.variant = lastCold.requests.at(probe).variant;
        cell.cfg = cell.variant.smpConfig();
        cell.cfg.filterSpecs = service::defaultFilterSpecs();
        cell.reference = cellRun;
        cell.spec = spec;
        layerProbes(run, cell, 1);
    }
    server.stop();
    return 0;
}

// ---- entry points ---------------------------------------------------------

void
makeHermetic()
{
    // The benchmark fixes its own cache tier, worker count and scale.
    for (const char *var : {"JETTY_CACHE_DIR", "JETTY_CACHE_BYTES",
                            "JETTY_JOBS", "JETTY_SCALE",
                            "JETTY_WORKER_DIE_AFTER"})
        ::unsetenv(var);
}

int
workerMain(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    std::string rssFile;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--cache-dir")
            experiments::RunCache::instance().setDiskRoot(argv[i + 1]);
        else if (flag == "--rss-file")
            rssFile = argv[i + 1];
    }
    dist::WorkerOptions wopts;
    wopts.jobs = 1;
    const int rc = dist::runWorkerLoop(0, 1, wopts);
    if (!rssFile.empty()) {
        // One short O_APPEND write per worker: concurrent exits never
        // interleave within a line.
        const std::string line = std::to_string(vmHwmKb()) + "\n";
        const int fd = ::open(rssFile.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd >= 0) {
            (void)!::write(fd, line.data(), line.size());
            ::close(fd);
        }
    }
    return rc;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: jetty_perfbench --workload "
                 "lu-cold|fm-replay-l1x4|fig4-campaign --seed N "
                 "--seconds S --trace 0|1 [--smoke]\n");
    return 2;
}

void
printResult(const Run &run)
{
    std::string out = "{\"correct\": ";
    out += run.correct && run.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(run.attempted);
    out += ", \"failed\": " + std::to_string(run.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < run.metrics.size(); ++i) {
        const auto &m = run.metrics[i];
        char val[64];
        std::snprintf(val, sizeof(val), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + val +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
benchMain(int argc, char **argv)
{
    makeHermetic();
    if (argc >= 2 && std::string(argv[1]) == "worker")
        return workerMain(argc, argv);

#if !defined(__OPTIMIZE__)
    std::fprintf(stderr, "perfbench: refusing to measure an unoptimized "
                         "build (build type '" PERFBENCH_BUILD_TYPE "')\n");
    return 3;
#endif

    Run run;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasVal = i + 1 < argc;
        if (a == "--workload" && hasVal) {
            run.opt.workload = argv[++i];
        } else if (a == "--seed" && hasVal) {
            run.opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasVal) {
            run.opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasVal) {
            run.opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--smoke") {
            run.opt.smoke = true;
        } else {
            return usage();
        }
    }
    std::function<int(Run &, perfbench::SpanRecorder *)> body;
    if (run.opt.workload == "lu-cold")
        body = runLuCold;
    else if (run.opt.workload == "fm-replay-l1x4")
        body = runFmReplay;
    else if (run.opt.workload == "fig4-campaign")
        body = runFig4;
    else
        return usage();

    std::signal(SIGPIPE, SIG_IGN);
    run.tmp = makeTmpDir();
    if (run.tmp.empty()) {
        std::fprintf(stderr, "perfbench: cannot create a temp dir\n");
        return 2;
    }
    gWorkerRssFile = run.tmp + "/worker-rss";
    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("build type=%s compiler=%s simd_isa=%s simd_width=%u "
                "nproc=%u\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, simd::isaName(),
                static_cast<unsigned>(simd::lanesU64()), nproc);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d%s\n",
                run.opt.workload.c_str(),
                static_cast<unsigned long long>(run.opt.seed),
                run.opt.seconds, run.opt.trace ? 1 : 0,
                run.opt.smoke ? " smoke" : "");

    perfbench::SpanRecorder recorder;
    const int rc = body(run, run.opt.trace ? &recorder : nullptr);
    perfbench::activeRecorder() = nullptr;
    if (rc != 0)
        return rc;

    run.info("error_rate",
             run.attempted ? static_cast<double>(run.failed) /
                                 static_cast<double>(run.attempted)
                           : 1.0,
             "fraction",
             std::to_string(run.failed) + " of " +
                 std::to_string(run.attempted) + " ops failed");

    if (run.opt.trace) {
        recorder.printOpShares();
        json::Value other = json::Value::object();
        other.set("workload", run.opt.workload);
        other.set("seed", run.opt.seed);
        other.set("digest", run.digest);
        other.set("build_type", PERFBENCH_BUILD_TYPE);
        other.set("compiler", PERFBENCH_COMPILER);
        other.set("simd_isa", simd::isaName());
        other.set("nproc", nproc);
        std::error_code ec;
        fs::create_directories(".bench_out", ec);
        const std::string path = ".bench_out/trace-" +
                                 run.opt.workload + "-" +
                                 std::to_string(run.opt.seed) + ".json";
        json::writeFile(path, recorder.chromeTrace(std::move(other)));
        std::printf("wrote span trace %s (%zu spans)\n", path.c_str(),
                    recorder.spans().size());
    }
    removeTmpDir();
    printResult(run);
    return 0;
}

} // namespace
} // namespace jetty::bench

int
main(int argc, char **argv)
{
    return jetty::bench::benchMain(argc, argv);
}
