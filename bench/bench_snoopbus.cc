/**
 * @file
 * Split-bus snoop pipeline bench: the end-to-end simulation pipelines,
 * old versus new, on the snoop-bound `lu` workload (headline) with the
 * delivery-bound `fm` for contrast.
 *
 * Two pipelines deliver the *identical* reference stream:
 *  - **scalar (the pre-change pipeline)**: per-reference synthesis
 *    through the virtual TraceSource::next() and one processorAccess()
 *    per reference, round-robin, with immediate per-snoop filter
 *    observation on the single shared bus — exactly how the seed
 *    simulator ran every experiment;
 *  - **batched (today's pipeline)**: the workload is materialized once
 *    (the capture/replay architecture of the streaming trace layer;
 *    capture time is measured and reported, and amortizes across the
 *    replays — this bench alone replays each capture four times) and
 *    replayed through SmpSystem::run() at snoopBuses in {1, 2, 4}:
 *    nextBatch() delivery, the inlined L1 fast path, the single-lookup
 *    snoop route, and the deferred filter-bank replay.
 *
 * For decomposition honesty the JSON also reports `scalar_replay` — the
 *  scalar delivery loop over the materialized trace — separating the
 * synthesis-vs-replay share of the win from the snoop/filter-path
 * share. The headline compares the pipelines end to end.
 *
 * Correctness gates, checked before any number is reported:
 *  - synthesized scalar vs replayed scalar vs snoopBuses=1 batched:
 *    every statistic (architectural and per-filter) bit-identical —
 *    which also proves the materialized capture delivers exactly the
 *    synthesized stream;
 *  - snoopBuses in {2, 4}: machine state (L1/L2/WB snapshots) and
 *    every statistic (architectural and per-filter) bit-identical to
 *    the single-bus run, with per-bus transaction counts that sum to
 *    the single-bus total.
 *
 * Writes BENCH_snoopbus.json (field reference in DESIGN.md); --smoke
 * shrinks the run for CI and skips the file unless --out is given.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/report.hh"
#include "experiments/experiments.hh"
#include "sim/latency.hh"
#include "sim/smp_system.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "verify/golden_smp.hh"

using namespace jetty;
using Clock = std::chrono::steady_clock;

namespace
{

/** The paper's standard filter trio (run/replay default). */
const std::vector<std::string> kFilters = {"EJ-32x4", "IJ-10x4x7",
                                           "HJ(IJ-10x4x7,EJ-32x4)"};

/** One processor's pre-materialized reference stream. */
using Traces = std::vector<std::vector<trace::TraceRecord>>;

Traces
materialize(const trace::Workload &workload, unsigned nprocs)
{
    Traces traces(nprocs);
    for (unsigned p = 0; p < nprocs; ++p) {
        auto src = workload.makeSource(p);
        traces[p] = trace::collect(*src);
    }
    return traces;
}

std::vector<trace::TraceSourcePtr>
sourcesFor(const Traces &traces)
{
    std::vector<trace::TraceSourcePtr> sources;
    sources.reserve(traces.size());
    for (const auto &t : traces)
        sources.push_back(std::make_unique<trace::VectorTraceSource>(t));
    return sources;
}

/** The pre-change scalar pipeline, reproduced over any source set:
 *  virtual next() + processorAccess() per reference, round-robin.
 *  processorAccess routes snoops through the immediate (non-deferred)
 *  broadcast path, so the filter banks observe per snoop exactly as the
 *  seed simulator did. */
double
runScalarSources(sim::SmpSystem &sys,
                 std::vector<trace::TraceSourcePtr> sources)
{
    const auto t0 = Clock::now();
    std::vector<bool> done(sources.size(), false);
    bool any = true;
    while (any) {
        any = false;
        for (unsigned p = 0; p < sources.size(); ++p) {
            if (done[p])
                continue;
            trace::TraceRecord rec;
            if (!sources[p]->next(rec)) {
                done[p] = true;
                continue;
            }
            any = true;
            sys.processorAccess(p, rec.type, rec.addr);
        }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
runScalar(sim::SmpSystem &sys, const Traces &traces)
{
    return runScalarSources(sys, sourcesFor(traces));
}

/** The pre-change pipeline end to end: per-reference synthesis. */
double
runScalarSynth(sim::SmpSystem &sys, const trace::Workload &workload,
               unsigned nprocs)
{
    std::vector<trace::TraceSourcePtr> sources;
    sources.reserve(nprocs);
    for (unsigned p = 0; p < nprocs; ++p)
        sources.push_back(workload.makeSource(p));
    return runScalarSources(sys, std::move(sources));
}

double
runBatched(sim::SmpSystem &sys, const Traces &traces)
{
    sys.attachSources(sourcesFor(traces));
    const auto t0 = Clock::now();
    sys.run();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Every architectural and per-filter counter of two runs must agree
 *  exactly. */
void
requireIdentical(const sim::SmpSystem &a, const sim::SmpSystem &b,
                 const std::string &what)
{
    const auto x = a.stats().aggregate();
    const auto y = b.stats().aggregate();
    if (x.accesses != y.accesses || x.l1Hits != y.l1Hits ||
        x.l1Misses != y.l1Misses || x.l2LocalHits != y.l2LocalHits ||
        x.l2Fills != y.l2Fills || x.snoopTagProbes != y.snoopTagProbes ||
        x.snoopHits != y.snoopHits || x.snoopMisses != y.snoopMisses ||
        x.busReads != y.busReads || x.busReadXs != y.busReadXs ||
        x.busUpgrades != y.busUpgrades ||
        x.wbInsertions != y.wbInsertions ||
        x.wbReclaims != y.wbReclaims ||
        a.stats().snoopTransactions != b.stats().snoopTransactions) {
        fatal("bench_snoopbus: " + what + " diverged architecturally");
    }
    const std::string state_diff =
        verify::diffSnapshots(verify::snapshotOf(a), verify::snapshotOf(b));
    if (!state_diff.empty())
        fatal("bench_snoopbus: " + what + " machine state diverged:\n" +
              state_diff);
    for (std::size_t f = 0; f < a.bank(0).size(); ++f) {
        const auto fa = a.mergedFilterStats(f);
        const auto fb = b.mergedFilterStats(f);
        if (fa.safetyViolations != 0 || fb.safetyViolations != 0)
            fatal("bench_snoopbus: " + what + " saw a safety violation");
        if (fa.probes != fb.probes || fa.filtered != fb.filtered ||
            fa.wouldMiss != fb.wouldMiss ||
            fa.filteredWouldMiss != fb.filteredWouldMiss ||
            fa.snoopAllocs != fb.snoopAllocs ||
            fa.fillUpdates != fb.fillUpdates ||
            fa.evictUpdates != fb.evictUpdates) {
            fatal("bench_snoopbus: " + what + " filter stats diverged on " +
                  a.bank(0).filterAt(f).name());
        }
    }
}

struct BusRow
{
    unsigned buses = 0;
    double seconds = 0;
    double busiestUtilization = 0;
    double busiestWaitBusCycles = 0;
    std::vector<std::uint64_t> perBusTxns;
};

struct Measurement
{
    std::uint64_t refs = 0;
    double scalarSeconds = 0;        //!< pre-change pipeline (synthesis)
    double scalarReplaySeconds = 0;  //!< scalar delivery over the capture
    double captureSeconds = 0;       //!< one-time materialization cost
    std::vector<BusRow> rows;        //!< one per bus count

    double
    speedupAt(unsigned buses) const
    {
        for (const auto &row : rows) {
            if (row.buses == buses)
                return row.seconds > 0 ? scalarSeconds / row.seconds
                                       : 0.0;
        }
        return 0.0;
    }
};

Measurement
measure(const trace::AppProfile &profile, double scale, unsigned repeats,
        const std::vector<unsigned> &busCounts)
{
    experiments::SystemVariant variant;
    sim::SmpConfig base = variant.smpConfig();
    base.filterSpecs = kFilters;

    const trace::Workload workload(profile, base.nprocs, scale);

    const auto cap0 = Clock::now();
    const Traces traces = materialize(workload, base.nprocs);

    Measurement m;
    m.captureSeconds =
        std::chrono::duration<double>(Clock::now() - cap0).count();

    // The pre-change pipeline: per-reference synthesis + scalar
    // delivery + immediate snoop evaluation. One system is kept for the
    // correctness gates below; times are the median over the repeats.
    sim::SmpSystem scalar_sys(base);
    std::vector<double> scalar_times;
    {
        scalar_times.push_back(
            runScalarSynth(scalar_sys, workload, base.nprocs));
        m.refs = scalar_sys.stats().aggregate().accesses;
    }
    for (unsigned r = 1; r < repeats; ++r) {
        sim::SmpSystem sys(base);
        scalar_times.push_back(
            runScalarSynth(sys, workload, base.nprocs));
    }
    m.scalarSeconds = medianInPlace(scalar_times);

    // Decomposition row: the same scalar delivery over the materialized
    // capture, isolating the synthesis share of the end-to-end win (and
    // proving, via the gate below, that the capture replays the
    // synthesized stream exactly).
    std::unique_ptr<sim::SmpSystem> scalar_replay_sys;
    std::vector<double> replay_times;
    for (unsigned r = 0; r < repeats; ++r) {
        auto sys = std::make_unique<sim::SmpSystem>(base);
        replay_times.push_back(runScalar(*sys, traces));
        scalar_replay_sys = std::move(sys);
    }
    m.scalarReplaySeconds = medianInPlace(replay_times);
    requireIdentical(scalar_sys, *scalar_replay_sys,
                     profile.abbrev + " synthesized vs replayed scalar");

    std::unique_ptr<sim::SmpSystem> one_bus;
    for (const unsigned buses : busCounts) {
        sim::SmpConfig cfg = base;
        cfg.snoopBuses = buses;

        BusRow row;
        row.buses = buses;
        std::unique_ptr<sim::SmpSystem> kept;
        std::vector<double> batched_times;
        for (unsigned r = 0; r < repeats; ++r) {
            auto sys = std::make_unique<sim::SmpSystem>(cfg);
            batched_times.push_back(runBatched(*sys, traces));
            kept = std::move(sys);
        }
        row.seconds = medianInPlace(batched_times);

        const auto contention =
            sim::evaluateBusContention(kept->stats());
        row.busiestUtilization = contention.busiestUtilization;
        row.busiestWaitBusCycles = contention.busiestWaitBusCycles;
        for (const auto &bus : kept->stats().perBus)
            row.perBusTxns.push_back(bus.transactions);

        // Correctness gates (DESIGN.md: split-bus determinism contract).
        if (buses == 1) {
            requireIdentical(scalar_sys, *kept,
                             profile.abbrev + " scalar vs batched(1 bus)");
            one_bus = std::move(kept);
        } else if (one_bus) {
            requireIdentical(*one_bus, *kept,
                             profile.abbrev + " 1 bus vs " +
                                 std::to_string(buses) + " buses");
        }
        m.rows.push_back(std::move(row));
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out;
    unsigned repeats = 3;
    double scale = 0.5;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            repeats = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            scale = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_snoopbus [--smoke] [--out FILE] "
                         "[--repeat N] [--scale F]\n");
            return 1;
        }
    }
    if (repeats < 1)
        repeats = 1;
    if (smoke)
        scale = std::min(scale, 0.05);
    if (out.empty() && !smoke)
        out = "BENCH_snoopbus.json";

    const std::vector<unsigned> bus_counts = {1, 2, 4};

    struct App
    {
        std::string name;
        Measurement m;
    };
    std::vector<App> apps;
    for (const char *name : {"lu", "fm"}) {
        apps.push_back(
            {name, measure(trace::appByName(name), scale, repeats,
                           bus_counts)});
    }

    TextTable table;
    table.header({"workload", "refs", "buses", "batched Mrefs/s",
                  "speedup", "busiest util", "wait (bus cyc)"});
    for (const auto &app : apps) {
        for (const auto &row : app.m.rows) {
            table.row({
                app.name,
                TextTable::count(app.m.refs),
                std::to_string(row.buses),
                TextTable::num(app.m.refs / row.seconds / 1e6, 1),
                TextTable::num(app.m.scalarSeconds / row.seconds, 2) + "x",
                TextTable::num(100.0 * row.busiestUtilization, 1) + "%",
                TextTable::num(row.busiestWaitBusCycles, 2),
            });
        }
        std::printf("%s scalar pipeline: %.1f Mrefs/s synthesized "
                    "(%.1f Mrefs/s replaying the capture; capture took "
                    "%.2f s)\n",
                    app.name.c_str(),
                    app.m.refs / app.m.scalarSeconds / 1e6,
                    app.m.refs / app.m.scalarReplaySeconds / 1e6,
                    app.m.captureSeconds);
    }
    table.print();

    const double headline = apps.front().m.speedupAt(4);
    std::printf("\nheadline (lu, 4 buses) batched-vs-scalar: %.2fx %s\n",
                headline,
                headline >= 1.8 ? "(>= 1.8x target met)"
                                : "(below the 1.8x target)");

    if (!out.empty()) {
        // One api::Report (DESIGN.md schema): the pre-Report emitter's
        // fields preserved under the versioned envelope, with the
        // machine/filters/bus axis echoed as an ExperimentSpec.
        api::ExperimentSpec spec;
        spec.filters = kFilters;
        spec.scale = scale;
        spec.benchRepeat = repeats;
        spec.sweepBuses = bus_counts;
        for (const auto &app : apps)
            spec.apps.push_back(app.name);

        api::Report report("snoopbus");
        report.echoSpec(spec);
        auto &root = report.root();
        root.set("bench", "snoopbus");
        root.set("smoke", smoke);
        root.set("procs", 4);
        root.set("filters",
                 static_cast<std::uint64_t>(kFilters.size()));
        root.set("repeats", repeats);
        root.set("scale", scale);
        root.set("bit_identity", true);
        root.set("headline_lu_speedup_4buses", headline);
        json::Value workloads = json::Value::array();
        for (const auto &app : apps) {
            const double refs = static_cast<double>(app.m.refs);
            json::Value w = json::Value::object();
            w.set("name", app.name);
            w.set("refs", app.m.refs);
            w.set("scalar_refs_per_sec",
                  api::Report::ratio(refs, app.m.scalarSeconds));
            w.set("scalar_replay_refs_per_sec",
                  api::Report::ratio(refs, app.m.scalarReplaySeconds));
            w.set("capture_seconds", app.m.captureSeconds);
            json::Value bus_rows = json::Value::array();
            for (const auto &row : app.m.rows) {
                json::Value r = json::Value::object();
                r.set("buses", row.buses);
                r.set("batched_refs_per_sec",
                      api::Report::ratio(refs, row.seconds));
                r.set("speedup_vs_scalar",
                      api::Report::ratio(app.m.scalarSeconds,
                                         row.seconds));
                r.set("busiest_utilization", row.busiestUtilization);
                r.set("busiest_wait_bus_cycles",
                      row.busiestWaitBusCycles);
                json::Value txns = json::Value::array();
                for (const std::uint64_t t : row.perBusTxns)
                    txns.push(t);
                r.set("per_bus_transactions", std::move(txns));
                bus_rows.push(std::move(r));
            }
            w.set("bus_rows", std::move(bus_rows));
            workloads.push(std::move(w));
        }
        root.set("workloads", std::move(workloads));
        report.writeFile(out);
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
