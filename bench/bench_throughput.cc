/**
 * @file
 * Throughput trajectory bench: sustained refs/sec of the reference
 * delivery pipeline, scalar vs batched.
 *
 * The scalar baseline reproduces the pre-refactor delivery loop exactly
 * as `SmpSystem::run()` shipped it before the streaming pipeline: one
 * virtual TraceSource::next() call and one processorAccess() call per
 * reference, round-robin. The batched side is today's SmpSystem::run()
 * — nextBatch() delivery plus the inlined L1-hit fast path. Both drive
 * identical reference streams and the bench asserts their statistics are
 * bit-identical before reporting any number.
 *
 * Workloads (all 4-processor, paper base system, the paper filter trio
 * unless --filters names another bank):
 *  - delivery-bound: a cache-friendly synthetic profile whose references
 *    almost always hit the L1, isolating the delivery pipeline itself —
 *    the headline speedup number;
 *  - fm / lu: the best- and mid-locality paper apps, for context on how
 *    much of a real run the delivery path is.
 *
 * Writes BENCH_throughput.json (override with --out). --smoke shrinks
 * the run for CI and skips the file unless --out is given explicitly.
 * --filters SPEC[,...] swaps the bank (BENCH_throughput_fig4bank.json is
 * the figure-4 bank of six EJs and four VEJs).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/report.hh"
#include "core/filter_spec.hh"
#include "experiments/experiments.hh"
#include "sim/smp_system.hh"
#include "util/stats.hh"
#include "trace/apps.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace jetty;
using Clock = std::chrono::steady_clock;

namespace
{

/** The paper's standard filter trio (run/replay default). */
const std::vector<std::string> kDefaultFilters = {"EJ-32x4", "IJ-10x4x7",
                                                  "HJ(IJ-10x4x7,EJ-32x4)"};

/**
 * A profile built to be delivery-bound: a hot resident set far smaller
 * than the L1 plus heavy temporal reuse pushes the L1 hit rate past
 * 99.8%, so nearly every reference's cost *is* the delivery path.
 */
trace::AppProfile
deliveryBoundProfile(std::uint64_t accessesPerProc)
{
    trace::AppProfile p;
    p.name = "DeliveryBound";
    p.abbrev = "db";
    p.accessesPerProc = accessesPerProc;
    p.reuseProb = 0.97;
    p.wordBytes = 4;
    p.seed = 4242;
    trace::StreamSpec s;
    s.kind = trace::StreamKind::Private;
    s.weight = 1.0;
    s.bytes = 512 * 1024;
    s.residentBytes = 48 * 1024;
    s.residentFraction = 0.97;
    s.residentHotBias = 0.6;
    s.writeFraction = 0.3;
    p.streams = {s};
    return p;
}

/**
 * The pre-refactor scalar delivery loop, verbatim in behaviour: pull one
 * reference per live processor per sweep through the virtual next(),
 * hand each to processorAccess(). (The seed's SmpSystem::run() did
 * exactly this; it is reproduced here so the baseline stays measurable
 * now that the library path is batched.)
 */
void
runScalarReference(sim::SmpSystem &sys,
                   std::vector<trace::TraceSourcePtr> &sources)
{
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
}

struct Measurement
{
    std::uint64_t refs = 0;
    double scalarSeconds = 0;
    double batchedSeconds = 0;

    double scalarRate() const { return refs / scalarSeconds; }
    double batchedRate() const { return refs / batchedSeconds; }
    double speedup() const { return scalarSeconds / batchedSeconds; }
};

/** Compare the counters the two paths must agree on bit-for-bit. */
void
requireIdentical(const sim::SimStats &a, const sim::SimStats &b,
                 const std::string &workload)
{
    const auto x = a.aggregate();
    const auto y = b.aggregate();
    if (x.accesses != y.accesses || x.l1Hits != y.l1Hits ||
        x.l2LocalHits != y.l2LocalHits ||
        x.snoopTagProbes != y.snoopTagProbes ||
        x.snoopMisses != y.snoopMisses || x.busReads != y.busReads ||
        x.busUpgrades != y.busUpgrades ||
        x.wbInsertions != y.wbInsertions) {
        fatal("bench_throughput: scalar and batched runs diverged on '" +
              workload + "' — the delivery refactor broke determinism");
    }
}

/** Median-of-@p repeats measurement of one workload under both paths.
 *  Scalar and batched runs alternate so slow background phases on a
 *  shared box hit both sides alike. */
Measurement
measure(const trace::AppProfile &profile, unsigned repeats,
        unsigned buses, const std::vector<std::string> &filters)
{
    experiments::SystemVariant variant;
    sim::SmpConfig cfg = variant.smpConfig();
    cfg.filterSpecs = filters;
    cfg.snoopBuses = buses;

    const trace::Workload workload(profile, cfg.nprocs, 1.0);

    Measurement m;
    sim::SimStats scalarStats{0}, batchedStats{0};
    std::vector<double> scalarTimes, batchedTimes;
    for (unsigned r = 0; r < repeats; ++r) {
        {
            sim::SmpSystem sys(cfg);
            std::vector<trace::TraceSourcePtr> sources;
            for (unsigned p = 0; p < cfg.nprocs; ++p)
                sources.push_back(workload.makeSource(p));
            const auto t0 = Clock::now();
            runScalarReference(sys, sources);
            scalarTimes.push_back(
                std::chrono::duration<double>(Clock::now() - t0).count());
            scalarStats = sys.stats();
            m.refs = scalarStats.aggregate().accesses;
        }
        {
            sim::SmpSystem sys(cfg);
            std::vector<trace::TraceSourcePtr> sources;
            for (unsigned p = 0; p < cfg.nprocs; ++p)
                sources.push_back(workload.makeSource(p));
            sys.attachSources(std::move(sources));
            const auto t0 = Clock::now();
            sys.run();
            batchedTimes.push_back(
                std::chrono::duration<double>(Clock::now() - t0).count());
            batchedStats = sys.stats();
        }
    }
    m.scalarSeconds = medianInPlace(scalarTimes);
    m.batchedSeconds = medianInPlace(batchedTimes);
    requireIdentical(scalarStats, batchedStats, profile.name);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out;
    unsigned repeats = 3;
    unsigned buses = 1;
    double scale = 1.0;
    std::vector<std::string> filters = kDefaultFilters;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            repeats = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--buses") == 0 && i + 1 < argc) {
            buses = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            scale = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--filters") == 0 && i + 1 < argc) {
            filters = splitFilterList(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_throughput [--smoke] [--out FILE] "
                         "[--repeat N] [--buses N] [--scale F] "
                         "[--filters SPEC[,...]]\n");
            return 1;
        }
    }
    for (const auto &f : filters) {
        if (!filter::isValidFilterSpec(f)) {
            std::fprintf(stderr, "bench_throughput: bad filter spec '%s'\n",
                         f.c_str());
            return 1;
        }
    }
    if (repeats < 1)
        repeats = 1;
    if (buses < 1 || (buses & (buses - 1)) != 0) {
        std::fprintf(stderr,
                     "bench_throughput: --buses must be a power of two\n");
        return 1;
    }
    if (scale <= 0.0 || scale > 1.0) {
        std::fprintf(stderr, "bench_throughput: --scale must be in (0, 1]\n");
        return 1;
    }
    if (out.empty() && !smoke)
        out = "BENCH_throughput.json";

    // --scale shrinks only the reference counts; the working-set
    // geometry stays full-size so a reduced run (e.g. CI's perf gate)
    // still exercises the same hit/miss mix as the committed baseline.
    const std::uint64_t refsPerProc = static_cast<std::uint64_t>(
        static_cast<double>(smoke ? 400'000 : 8'000'000) * scale);
    const double appScale = (smoke ? 0.05 : 1.0) * scale;

    struct Row
    {
        std::string name;
        Measurement m;
    };
    std::vector<Row> rows;

    rows.push_back(
        {"delivery-bound",
         measure(deliveryBoundProfile(refsPerProc), repeats, buses,
                 filters)});
    for (const char *app : {"fm", "lu"}) {
        trace::AppProfile p = trace::appByName(app);
        p.accessesPerProc = static_cast<std::uint64_t>(
            static_cast<double>(p.accessesPerProc) * appScale);
        rows.push_back({app, measure(p, repeats, buses, filters)});
    }

    TextTable table;
    table.header({"workload", "refs", "scalar Mrefs/s", "batched Mrefs/s",
                  "speedup"});
    for (const auto &row : rows) {
        table.row({row.name, TextTable::count(row.m.refs),
                   TextTable::num(row.m.scalarRate() / 1e6, 1),
                   TextTable::num(row.m.batchedRate() / 1e6, 1),
                   TextTable::num(row.m.speedup(), 2) + "x"});
    }
    table.print();
    const double headline = rows.front().m.speedup();
    std::printf("\nheadline (delivery-bound) speedup: %.2fx %s\n", headline,
                headline >= 2.0 ? "(>= 2x target met)"
                                : "(below the 2x target)");

    if (!out.empty()) {
        // One api::Report (DESIGN.md schema): the pre-Report emitter's
        // fields preserved under the versioned envelope, with the
        // machine/filters echoed as an ExperimentSpec.
        api::ExperimentSpec spec;
        spec.filters = filters;
        spec.scale = scale;
        spec.benchRepeat = repeats;
        spec.machine.buses = buses;

        api::Report report("throughput");
        report.echoSpec(spec);
        auto &root = report.root();
        root.set("bench", "throughput");
        root.set("smoke", smoke);
        root.set("procs", 4);
        root.set("buses", buses);
        root.set("filters",
                 static_cast<std::uint64_t>(filters.size()));
        root.set("repeats", repeats);
        root.set("headline_speedup",
                 api::Report::ratio(rows.front().m.scalarSeconds,
                                    rows.front().m.batchedSeconds));
        json::Value workloads = json::Value::array();
        for (const auto &row : rows) {
            json::Value w = json::Value::object();
            w.set("name", row.name);
            w.set("refs", row.m.refs);
            w.set("scalar_refs_per_sec",
                  api::Report::ratio(static_cast<double>(row.m.refs),
                                     row.m.scalarSeconds));
            w.set("batched_refs_per_sec",
                  api::Report::ratio(static_cast<double>(row.m.refs),
                                     row.m.batchedSeconds));
            w.set("speedup", api::Report::ratio(row.m.scalarSeconds,
                                                row.m.batchedSeconds));
            workloads.push(std::move(w));
        }
        root.set("workloads", std::move(workloads));
        report.writeFile(out);
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
