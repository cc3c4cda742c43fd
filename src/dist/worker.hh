/**
 * @file
 * The worker half of the distributed sweep subsystem: the service
 * request loop (service::serveStream) run over an fd pair instead of a
 * socket. A worker speaks the whole service protocol — the coordinator
 * sends it "cells" requests, and "ping", "stats", "shutdown" and
 * ok=false answers to malformed input come with the loop.
 *
 * The loop is transport-agnostic — `jetty_cli worker` runs it over
 * stdin/stdout of a forked process, the tests run it on pipe pairs
 * inside worker threads, and any stream a caller can express as two
 * fds (an ssh channel, a socket) works unchanged.
 *
 * Execution path: a shard is a one-cell sweep spec executed through
 * service::executeSpec (resolved and expand()ed exactly like a
 * single-process sweep cell), so the AppRunResults a worker produces
 * are value-identical to what the coordinator's own process would have
 * computed — the cross-process half of the determinism contract. Each
 * answered cell carries its canonical cache key, which the coordinator
 * checks against its own derivation.
 */

#ifndef JETTY_DIST_WORKER_HH
#define JETTY_DIST_WORKER_HH

#include <cstdint>
#include <functional>

namespace jetty::dist
{

struct WorkerOptions
{
    unsigned jobs = 0;  //!< SweepRunner override (0 = shared default)

    /** Fault-injection hook, called with the 1-based count of request
     *  lines read, after the read and before the request is handled;
     *  returning true abandons the loop without responding (a
     *  mid-shard worker death, as the coordinator observes it). */
    std::function<bool(std::uint64_t)> faultHook;
};

/** Serve requests from @p inFd, answering on @p outFd, until EOF or a
 *  "shutdown" request.
 *  @return 0 on a clean end, 1 on a transport error, 2 when the fault
 *  hook abandoned a request. */
int runWorkerLoop(int inFd, int outFd, const WorkerOptions &opts);

} // namespace jetty::dist

#endif // JETTY_DIST_WORKER_HH
