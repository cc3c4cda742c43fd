#include "dist/worker.hh"

#include "service/server.hh"

namespace jetty::dist
{

int
runWorkerLoop(int inFd, int outFd, const WorkerOptions &opts)
{
    return service::serveStream(inFd, outFd, opts.jobs, nullptr,
                                opts.faultHook);
}

} // namespace jetty::dist
