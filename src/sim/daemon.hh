/**
 * @file
 * casimd: a persistent experiment service over the request/queue API.
 *
 * The daemon keeps the expensive shared state of experiment execution —
 * the CaptureCache resident store with its captured streams, memoized
 * next-use indices and oracle label planes — alive across requests, so
 * a warm repeat request costs only the replay itself (zero capture
 * deserialization; verified by the `capture_cache.memo_hits` and
 * `label_plane.memo_hits` counters in the stats document).
 *
 * Wire protocol (see docs/casimd_protocol.md): newline-delimited JSON,
 * one request per line, one casim-stats-1 response document per request
 * on one line.  A bare object is an experiment request; an object with
 * an "op" key selects "hello", "experiment", "batch", "sweep", "stats",
 * "ping" or "shutdown".  Errors (parse, unknown field, invalid
 * combination) are answered with a document carrying a top-level
 * "error" key — the same message ExperimentRequest::validate()
 * produces locally — plus, since protocol v2, a stable machine-readable
 * "error_code".  "hello" negotiates the protocol version; clients that
 * never send it (v1) keep working, since every v1 request and response
 * form is unchanged.  "sweep" expands a (workloads x policies x
 * llc_bytes) cross product server-side into one batch.
 *
 * Transports: a Unix domain socket (serveSocket, thread per
 * connection) or stdin/stdout (serveStdio).  On SIGTERM/SIGINT the
 * daemon stops accepting work, drains requests already read (every
 * response line is written complete — no torn documents), joins its
 * connection threads and flushes a final stats document to --stats-out.
 *
 * DaemonClient is the thin client: an ExperimentService that forwards
 * batches over the socket, so a bench under --daemon=PATH runs the
 * same code path as a local ExperimentQueue and produces byte-identical
 * output.
 */

#ifndef CASIM_SIM_DAEMON_HH
#define CASIM_SIM_DAEMON_HH

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "sim/capture_cache.hh"
#include "sim/parallel.hh"
#include "sim/queue.hh"
#include "sim/result_sink.hh"

namespace casim {

/** Protocol versions this daemon speaks (negotiated by "hello"). */
inline constexpr unsigned kProtocolVersionMin = 1;
inline constexpr unsigned kProtocolVersion = 2;

/**
 * Hard cap on the cells one "sweep" op may expand to — a sweep beyond
 * this is answered with a "capacity" error instead of being queued.
 */
inline constexpr std::size_t kSweepExpansionCap = 1024;

/**
 * Hard cap on one request line's bytes (before its newline).  A longer
 * line is answered with a "bad_request" error and skipped through its
 * newline, so a client can never grow the daemon's line buffer without
 * bound.  8 MiB is ~25x the largest line any bench sends.
 */
inline constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

/** The persistent experiment service process. */
class ExperimentDaemon
{
  public:
    /**
     * @param config Daemon-side study configuration; only captureDir is
     *               taken from it per request (requests carry their own
     *               configuration, the daemon substitutes its capture
     *               store).
     * @param jobs   Worker-pool width for the shared ParallelRunner.
     */
    ExperimentDaemon(const StudyConfig &config, unsigned jobs);

    ExperimentDaemon(const ExperimentDaemon &) = delete;
    ExperimentDaemon &operator=(const ExperimentDaemon &) = delete;

    /** Write a final stats document to `path` when shutting down. */
    void setStatsOutPath(const std::string &path)
    {
        statsOutPath_ = path;
    }

    /**
     * Listen on a Unix domain socket at `path` (replacing any stale
     * socket file) and serve until SIGTERM/SIGINT or a "shutdown" op.
     * Returns the process exit code.
     */
    int serveSocket(const std::string &path);

    /** Serve one session on stdin/stdout until EOF or shutdown. */
    int serveStdio();

    /**
     * Serve one established connection: read request lines from `fd`
     * and write response lines to `out_fd` (the same fd for sockets)
     * until EOF, shutdown, or a stop request drains it.  Public so
     * tests can drive the daemon over a socketpair.
     */
    void serveConnection(int fd, int out_fd);

    /**
     * Ask the daemon to stop: in-flight requests finish, their
     * responses are written, connection loops exit at the next line
     * boundary.  Called from the signal path and the "shutdown" op.
     */
    void requestStop() { stopping_.store(true); }

    /** Whether a stop has been requested. */
    bool stopping() const { return stopping_.load(); }

    /** The daemon's resident capture store (for tests). */
    CaptureCache &cache() { return cache_; }

    /** The daemon's queue (for tests). */
    ExperimentQueue &queue() { return queue_; }

    /**
     * Render the daemon's stats document (capture cache, label planes,
     * queue, runner and daemon counters) — the reply to the "stats" op
     * and the document flushed to --stats-out on shutdown.  Safe to
     * call while batches are executing: every rendered group is either
     * atomic or guarded, so the "stats" op never waits on in-flight
     * work (the runner group is a snapshot, copied under the runner
     * mutex that workers take only between tasks).
     */
    std::string statsDocument();

  private:
    /** Handle one request line; appends >=1 response lines to `out`. */
    void handleLine(const std::string &line, std::string &out);

    /** Run parsed experiment requests and append one line each. */
    void handleRequests(const std::vector<ExperimentRequest> &requests,
                        const std::vector<std::string> &parseErrors,
                        std::string &out);

    /** Answer the "hello" op (protocol negotiation). */
    void handleHello(const json::Value &value, std::string &out);

    /** Answer the "sweep" op (server-side cross-product expansion). */
    void handleSweep(const json::Value &value, std::string &out);

    /**
     * One-line error document with the given message and, when
     * non-empty, the protocol-v2 "error_code" classification.
     */
    std::string errorDocument(const std::string &message,
                              const std::string &code = "") const;

    /**
     * The sink behind statsDocument() and flushStats(); `runner` is a
     * snapshot of the runner group (ParallelRunner::statsSnapshot()).
     */
    ResultSink makeStatsSink(const stats::StatGroup &runner);

    /** Flush the stats document to --stats-out when configured. */
    void flushStats();

    /** Counter bumps under statsMutex_ (connection threads race). */
    void countConnection();
    void countRequests(std::size_t n);
    void countError();

    StudyConfig config_;
    std::string statsOutPath_;
    CaptureCache cache_;
    ParallelRunner runner_;
    ExperimentQueue queue_;
    std::atomic<bool> stopping_{false};

    /**
     * Guards the daemon's own counter group: connection threads bump
     * connections_/requests_/errors_ concurrently, and the stats op
     * renders the group.  Never held across queue_.runBatch().
     */
    std::mutex statsMutex_;
    stats::StatGroup group_;
    stats::Counter &connections_;
    stats::Counter &requests_;
    stats::Counter &errors_;

    /**
     * serveSocket()'s connection threads not yet joined (the
     * `live_handlers` gauge): it returns to 0 once every finished
     * connection has been reaped.
     */
    std::atomic<std::size_t> liveHandlers_{0};
};

/**
 * ExperimentService over a casimd Unix-domain socket: validates
 * locally (fatal, like the queue), ships the batch as one "batch" op,
 * and decodes the response documents back into ExperimentResults.
 * Any daemon-side error reply is fatal with the daemon's message.
 */
class DaemonClient : public ExperimentService
{
  public:
    /** Connect to the daemon at `socket_path`; fatal on failure. */
    explicit DaemonClient(const std::string &socket_path);
    ~DaemonClient() override;

    DaemonClient(const DaemonClient &) = delete;
    DaemonClient &operator=(const DaemonClient &) = delete;

    std::vector<ExperimentResult>
    runBatch(const std::vector<ExperimentRequest> &requests) override;

    /** Client counters: batches shipped, requests resolved remotely. */
    const stats::StatGroup &stats() const { return group_; }

  private:
    int fd_ = -1;
    std::string pending_; // read-buffer carry between lines

    stats::StatGroup group_;
    stats::Counter &batches_;
    stats::Counter &remoteRequests_;
};

/**
 * Decode one casimd response document: fatal on an "error" reply,
 * otherwise reconstructs the ExperimentResult from the "result" table.
 * Shared by DaemonClient and the tests.
 */
ExperimentResult decodeResponseDocument(const std::string &line);

} // namespace casim

#endif // CASIM_SIM_DAEMON_HH
