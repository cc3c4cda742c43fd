/**
 * @file
 * The experiment service daemon behind `jetty_cli serve`: a unix-socket
 * server answering ExperimentSpec jobs (service/protocol.hh framing)
 * through the shared spec executor, so every client of one daemon
 * shares one two-tier RunCache and one SweepRunner pool — N clients
 * asking for overlapping sweeps simulate each distinct cell once.
 *
 * Concurrency model: one accept loop (poll with a short timeout so
 * requestStop() is honoured promptly), one thread per connection, each
 * connection serving any number of newline-delimited requests in order.
 * runMany() is safe to call from many threads at once — concurrent
 * jobs interleave on the shared cache exactly like the multi-threaded
 * bench harness does.
 *
 * Verbs: "run" (execute a spec, stream the report back), "cells"
 * (execute a spec, answer its per-cell results under their canonical
 * keys), "ping", "stats" (cache counters), "shutdown" (acknowledge,
 * then stop the daemon). Any malformed request gets ok=false; nothing
 * a client sends can take the daemon down.
 *
 * Every connection runs serveStream(), the one request loop of the
 * protocol — a distributed-sweep worker is the same loop over a pipe
 * pair (dist::runWorkerLoop).
 *
 * Graceful drain: requestStop() (SIGTERM/SIGINT path) first closes and
 * unlinks the listening socket — new connections are refused — then
 * every connection thread finishes its in-flight request, sends the
 * response, and exits at its next bounded read; run() returns once all
 * of them have joined.
 */

#ifndef JETTY_SERVICE_SERVER_HH
#define JETTY_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace jetty::service
{

/**
 * The request loop: read one request line from @p inFd, answer it on
 * @p outFd, repeat — until EOF, a transport error, a "shutdown"
 * request (which also raises @p stop when given), or @p stop itself.
 * @param jobs SweepRunner override for executed specs (0 = shared pool).
 * @param stop optional; when set, reads are bounded so the flag is
 *        noticed between requests.
 * @param beforeHandle optional; called with the 1-based count of
 *        request lines read, after the read and before handling —
 *        returning true abandons the stream without answering (a
 *        fault-injection hook).
 * @return 0 on a clean end, 1 on a transport error, 2 when
 *         @p beforeHandle abandoned the stream.
 */
int serveStream(int inFd, int outFd, unsigned jobs, std::atomic<bool> *stop,
                const std::function<bool(std::uint64_t)> &beforeHandle);

struct ServerConfig
{
    std::string socketPath = "jetty.sock";
    unsigned jobs = 0;  //!< SweepRunner override (0 = shared default)
};

class ExperimentServer
{
  public:
    explicit ExperimentServer(ServerConfig cfg);
    ~ExperimentServer();

    ExperimentServer(const ExperimentServer &) = delete;
    ExperimentServer &operator=(const ExperimentServer &) = delete;

    /** Bind and listen. @return "" on success, else the diagnostic. */
    std::string start();

    /** Serve until requestStop(); joins every connection thread and
     *  removes the socket file before returning. */
    void run();

    /** Ask run() to wind down (safe from any thread or a signal
     *  handler — only an atomic store). */
    void requestStop() { stop_.store(true); }

    const std::string &socketPath() const { return cfg_.socketPath; }

  private:
    /** One connection thread. done is its last store, so the accept
     *  loop can join a finished one without waiting. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void serveClient(int fd);
    /** Join and drop every finished connection thread. A joinable
     *  thread that has exited still holds its stack pages until joined,
     *  so without this a long-lived daemon grows with every client. */
    void reapFinished();
    void joinAll();

    ServerConfig cfg_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    std::mutex mu_;
    std::list<Connection> connections_;  //!< guarded by mu_
};

} // namespace jetty::service

#endif // JETTY_SERVICE_SERVER_HH
