#include "sim/sweep.hh"

#include <chrono>
#include <cstdlib>
#include <limits>

#include "energy/technology.hh"
#include "trace/file_stream_source.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace jetty::sim
{

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("JETTY_JOBS")) {
        const std::uint64_t v = parseU64(env).value_or(0);
        if (v >= 1 && v <= std::numeric_limits<unsigned>::max())
            return static_cast<unsigned>(v);
        warn(std::string("ignoring JETTY_JOBS='") + env +
             "': needs a count >= 1");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs >= 1 ? jobs : defaultJobs()), pool_(jobs_)
{
    // The pool spawns jobs_ - 1 workers and the calling thread
    // participates in every batch, so total parallelism is jobs_;
    // jobs_ == 1 runs inline, keeping the serial reference path
    // trivially schedule-free.
}

SweepRunner::~SweepRunner() = default;

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobList)
{
    const auto batch_start = std::chrono::steady_clock::now();
    std::vector<SweepResult> results(jobList.size());

    // Each task writes its own slot, so the result vector is identical
    // whatever order the pool executes jobs.
    pool_.parallelFor(jobList.size(), [&results, &jobList](std::size_t i) {
        results[i] = runOne(jobList[i]);
    });

    lastBatchSeconds_ = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - batch_start)
                            .count();
    return results;
}

double
SweepRunner::aggregateRefsPerSecond(const std::vector<SweepResult> &results)
{
    std::uint64_t refs = 0;
    double seconds = 0;
    for (const auto &r : results) {
        refs += r.totalRefs;
        seconds += r.elapsedSeconds;
    }
    return seconds > 0 ? static_cast<double>(refs) / seconds : 0.0;
}

SweepResult
SweepRunner::runOne(const SweepJob &job)
{
    SweepResult res;
    SmpSystem system(job.cfg);

    // The workload must outlive the run: synthetic sources read its
    // layout and page table for every reference they generate.
    std::unique_ptr<trace::Workload> workload;
    if (!job.traceFiles.empty()) {
        // File-backed replay: stream the captured sections; nothing is
        // materialized, so the trace may exceed memory.
        system.attachSources(
            trace::makeFileSources(job.traceFiles, job.cfg.nprocs));
    } else {
        workload = std::make_unique<trace::Workload>(
            job.app, job.cfg.nprocs, job.accessScale);
        res.memoryAllocated = workload->memoryAllocated();

        std::vector<trace::TraceSourcePtr> sources;
        sources.reserve(job.cfg.nprocs);
        for (unsigned p = 0; p < job.cfg.nprocs; ++p)
            sources.push_back(workload->makeSource(p));
        system.attachSources(std::move(sources));
    }

    const auto sim_start = std::chrono::steady_clock::now();
    system.run();
    res.elapsedSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sim_start)
                             .count();

    res.stats = system.stats();
    res.totalRefs = res.stats.aggregate().accesses;
    res.traffic = system.mergedTraffic();

    // A sub-batch trace finishes inside the timer's resolution, so a
    // rate derived from it is noise (historically inf when the elapsed
    // time rounded to exactly zero). Flag it; refsPerSecond() reports 0.
    // The documented threshold is one delivery batch *per processor*.
    const std::uint64_t batch =
        job.cfg.batchRefs >= 1 ? job.cfg.batchRefs : 1;
    res.refsTooFewForRate = res.elapsedSeconds <= 0.0 ||
                            res.totalRefs < batch * job.cfg.nprocs;

    const energy::Technology tech = energy::Technology::micron180();
    const auto &bank = system.bank(0);
    res.filterNames.reserve(bank.size());
    res.filterStats.reserve(bank.size());
    res.filterCosts.reserve(bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i) {
        res.filterNames.push_back(bank.filterAt(i).name());
        res.filterStats.push_back(system.mergedFilterStats(i));
        res.filterCosts.push_back(bank.filterAt(i).energyCosts(tech));
    }
    return res;
}

} // namespace jetty::sim
