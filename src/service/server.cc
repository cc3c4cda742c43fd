#include "service/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "api/experiment_spec.hh"
#include "experiments/run_result_json.hh"
#include "service/executor.hh"
#include "service/protocol.hh"
#include "util/logging.hh"

namespace jetty::service
{

namespace
{

/** Answer one parsed request; never throws, never fatal()s on bad
 *  input — the response carries the failure instead. */
json::Value
handleRequest(const json::Value &req, unsigned jobs, bool &shutdown)
{
    if (!req.isObject())
        return makeErrorResponse("request is not a JSON object");
    const json::Value *ver = req.find("jetty_request");
    if (!ver || !ver->isNumber() || !ver->fitsU64())
        return makeErrorResponse("missing jetty_request version");
    if (ver->asU64() != kProtocolVersion) {
        return makeErrorResponse(
            "protocol version " + std::to_string(ver->asU64()) +
            " not supported (this server speaks " +
            std::to_string(kProtocolVersion) + ")");
    }
    const json::Value *verb = req.find("verb");
    if (!verb || !verb->isString())
        return makeErrorResponse("missing verb");

    json::Value resp = json::Value::object();
    resp.set("jetty_response", kProtocolVersion);

    if (verb->asString() == "ping") {
        resp.set("ok", true);
        resp.set("pong", true);
        return resp;
    }
    if (verb->asString() == "stats") {
        auto &cache = experiments::RunCache::instance();
        resp.set("ok", true);
        resp.set("simulations", cache.simulations());
        resp.set("hits", cache.hits());
        resp.set("disk_hits", cache.diskHits());
        resp.set("disk_root", cache.diskRoot());
        return resp;
    }
    if (verb->asString() == "shutdown") {
        shutdown = true;
        resp.set("ok", true);
        resp.set("stopping", true);
        return resp;
    }
    const bool run = verb->asString() == "run";
    if (!run && verb->asString() != "cells") {
        return makeErrorResponse("unknown verb '" + verb->asString() +
                                 "'");
    }

    const json::Value *specNode = req.find("spec");
    if (!specNode)
        return makeErrorResponse(verb->asString() +
                                 " request carries no spec");
    std::string err;
    api::ExperimentSpec spec = api::ExperimentSpec::fromJson(*specNode,
                                                            &err);
    if (!err.empty())
        return makeErrorResponse(err);

    ExecuteResult result;
    err = executeSpec(std::move(spec), jobs, result);
    if (!err.empty())
        return makeErrorResponse(err);

    resp.set("ok", true);
    if (run)
        resp.set("kind", result.kind);
    resp.set("simulated", result.simulated);
    resp.set("disk_hits", result.diskHits);
    resp.set("mem_hits", result.memHits);
    if (run) {
        resp.set("report", std::move(result.report));
        return resp;
    }
    // "cells": the per-cell results themselves, each labelled with the
    // canonical key it was computed under.
    resp.set("sweep_seconds", result.sweepSeconds);
    json::Value cells = json::Value::array();
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        json::Value cell = json::Value::object();
        cell.set("key", cellCacheKey(result.requests[i]));
        cell.set("result", experiments::runResultToJson(result.runs[i]));
        cells.push(std::move(cell));
    }
    resp.set("cells", std::move(cells));
    return resp;
}

} // namespace

int
serveStream(int inFd, int outFd, unsigned jobs, std::atomic<bool> *stop,
            const std::function<bool(std::uint64_t)> &beforeHandle)
{
    LineReader reader(inFd);
    std::string line;
    std::string err;
    std::uint64_t received = 0;
    for (;;) {
        // With a stop flag the read is bounded, so an idle (or wedged)
        // peer cannot pin the loop open across a stop request: a
        // request already being executed always finishes and gets its
        // response, but between requests the stop flag wins.
        const int got = stop ? reader.readLineTimeout(line, 200, &err)
                             : reader.readLine(line, &err);
        if (got == kReadTimedOut) {
            if (stop->load())
                return 0;
            continue;
        }
        if (got == 0)
            return 0;
        if (got < 0)
            return 1;  // a framing error: the peer is gone
        if (beforeHandle && beforeHandle(++received))
            return 2;
        json::Value req = json::parse(line, &err);
        json::Value resp;
        bool shutdown = false;
        if (!err.empty())
            resp = makeErrorResponse("request parse error: " + err);
        else
            resp = handleRequest(req, jobs, shutdown);
        if (!sendValue(outFd, resp, &err))
            return 1;
        if (shutdown) {
            if (stop)
                stop->store(true);
            return 0;
        }
    }
}

ExperimentServer::ExperimentServer(ServerConfig cfg) : cfg_(std::move(cfg))
{
}

ExperimentServer::~ExperimentServer()
{
    requestStop();
    joinAll();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
    }
}

std::string
ExperimentServer::start()
{
    std::string err;
    listenFd_ = listenUnix(cfg_.socketPath, &err);
    return listenFd_ >= 0 ? "" : err;
}

void
ExperimentServer::run()
{
    if (listenFd_ < 0)
        panic("ExperimentServer::run() before a successful start()");
    while (!stop_.load()) {
        reapFinished();
        // A short poll timeout bounds how long a stop request (signal
        // or shutdown verb) waits for the accept loop to notice.
        struct pollfd pfd = {listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll failed; stopping");
            break;
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(mu_);
        Connection &c = connections_.emplace_back();
        c.thread = std::thread([this, fd, &c]() {
            serveClient(fd);
            c.done.store(true);
        });
    }
    // Drain: refuse new connections immediately (close and unlink the
    // listening socket), then let every connection thread finish its
    // in-flight request — serveClient() notices stop_ between requests
    // via its read timeout, so the join below is bounded by one job.
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
        listenFd_ = -1;
    }
    joinAll();
}

void
ExperimentServer::reapFinished()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->done.load()) {
            it->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ExperimentServer::joinAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &c : connections_) {
        if (c.thread.joinable())
            c.thread.join();
    }
    connections_.clear();
}

void
ExperimentServer::serveClient(int fd)
{
    serveStream(fd, fd, cfg_.jobs, &stop_, nullptr);
    ::close(fd);
}

} // namespace jetty::service
