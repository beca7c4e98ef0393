/**
 * @file
 * Implementation of the casimd daemon and its thin client.
 */

#include "sim/daemon.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <list>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/result_sink.hh"
#include "sim/sharded_sim.hh"
#include "trace/next_use.hh"

namespace casim {

namespace {

// Set by the SIGTERM/SIGINT handler; the serve loops poll it and turn
// it into a daemon-level stop request (poll() is interrupted with
// EINTR, so shutdown latency is bounded by one loop iteration).
volatile std::sig_atomic_t g_stopSignal = 0;

void
onStopSignal(int)
{
    g_stopSignal = 1;
}

void
installStopHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: blocking poll() must wake
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

bool
signalPending()
{
    return g_stopSignal != 0;
}

/** Write the whole buffer, riding out EINTR and short writes. */
bool
writeAll(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Fill a sockaddr_un; false when the path does not fit. */
bool
makeSocketAddress(const std::string &path, sockaddr_un &addr)
{
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/** One successful response line: the result flattened into a table. */
std::string
responseDocument(const ExperimentRequest &request,
                 const ExperimentResult &result)
{
    // The sink echoes the *request's* configuration (captureDir as
    // received, i.e. empty), not the daemon's substituted one.
    ResultSink sink("casimd", request.config);
    TablePrinter table("result", {"field", "value"});
    for (const auto &row : result.toRows())
        table.addRow(row);
    sink.addTable(table);
    std::ostringstream os;
    sink.writeJsonLine(os);
    return os.str();
}

} // namespace

ExperimentDaemon::ExperimentDaemon(const StudyConfig &config,
                                   unsigned jobs)
    : config_(config), cache_(), runner_(jobs),
      queue_(cache_, runner_), group_("casimd"),
      connections_(group_.addCounter("connections",
                                     "client connections served")),
      requests_(group_.addCounter("requests",
                                  "experiment requests received")),
      errors_(group_.addCounter("errors", "error replies sent"))
{
    group_.addFormula("live_handlers",
                      "connection threads started and not yet joined",
                      [this] {
                          return static_cast<double>(liveHandlers_.load());
                      });
}

std::string
ExperimentDaemon::errorDocument(const std::string &message,
                                const std::string &code) const
{
    ResultSink sink("casimd", config_);
    sink.setError(message, code);
    std::ostringstream os;
    sink.writeJsonLine(os);
    return os.str();
}

void
ExperimentDaemon::countConnection()
{
    std::scoped_lock lock(statsMutex_);
    ++connections_;
}

void
ExperimentDaemon::countRequests(std::size_t n)
{
    std::scoped_lock lock(statsMutex_);
    requests_ += n;
}

void
ExperimentDaemon::countError()
{
    std::scoped_lock lock(statsMutex_);
    ++errors_;
}

std::string
ExperimentDaemon::statsDocument()
{
    // No quiesce: the queue/cache/label-plane/sharded-replay groups
    // are atomic (or internally synchronized), so the stats op answers
    // instantly even while batches are executing.  The daemon's own
    // counters need their mutex; the runner group is copied under the
    // runner's, so workers wait for the copy, not for the rendering.
    const stats::StatGroup runner = runner_.statsSnapshot();
    std::scoped_lock lock(statsMutex_);
    std::ostringstream os;
    makeStatsSink(runner).writeJsonLine(os);
    return os.str();
}

ResultSink
ExperimentDaemon::makeStatsSink(const stats::StatGroup &runner)
{
    ResultSink sink("casimd", config_);
    sink.addGroup(group_);
    sink.addGroup(queue_.stats());
    sink.addGroup(runner);
    sink.addGroup(cache_.stats());
    sink.addGroup(cache_.residentStats());
    sink.addGroup(labelPlaneStats());
    sink.addGroup(shardedReplayStats());
    return sink;
}

void
ExperimentDaemon::flushStats()
{
    if (statsOutPath_.empty())
        return;
    // Unlike the stats op, the final flush quiesces: the document
    // written at shutdown reflects fully retired batches.
    const auto queue_lock = queue_.quiesce();
    const stats::StatGroup runner = runner_.statsSnapshot();
    std::scoped_lock lock(statsMutex_);
    makeStatsSink(runner).writeJsonFile(statsOutPath_);
}

void
ExperimentDaemon::handleRequests(
    const std::vector<ExperimentRequest> &requests,
    const std::vector<std::string> &parseErrors, std::string &out)
{
    countRequests(requests.size());

    std::vector<std::string> replies(requests.size());
    std::vector<ExperimentRequest> to_run;
    std::vector<std::size_t> run_slot;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!parseErrors[i].empty()) {
            countError();
            replies[i] = errorDocument(parseErrors[i], "bad_request");
            continue;
        }
        std::string code;
        const std::string why = requests[i].validate(&code);
        if (!why.empty()) {
            countError();
            replies[i] = errorDocument(
                "invalid experiment request: " + why, code);
            continue;
        }
        // Valid: execute with the daemon's capture store substituted.
        ExperimentRequest run = requests[i];
        run.config.captureDir = config_.captureDir;
        run_slot.push_back(i);
        to_run.push_back(std::move(run));
    }

    if (!to_run.empty()) {
        const auto results = queue_.runBatch(to_run);
        for (std::size_t j = 0; j < to_run.size(); ++j)
            replies[run_slot[j]] =
                responseDocument(requests[run_slot[j]], results[j]);
    }

    for (const std::string &reply : replies)
        out += reply;
}

void
ExperimentDaemon::handleLine(const std::string &line, std::string &out)
{
    json::Value value;
    std::string error;
    if (!json::parse(line, value, &error)) {
        countError();
        out += errorDocument("request parse error: " + error,
                             "bad_request");
        return;
    }
    if (!value.isObject()) {
        countError();
        out += errorDocument("request must be a JSON object",
                             "bad_request");
        return;
    }

    const json::Value *op = value.find("op");
    if (op != nullptr && !op->isString()) {
        countError();
        out += errorDocument("request field 'op' must be a string",
                             "bad_request");
        return;
    }
    const std::string op_name = op ? op->str() : "experiment";

    if (op_name == "experiment") {
        const json::Value *body = &value;
        if (op != nullptr) {
            body = value.find("request");
            if (body == nullptr) {
                countError();
                out += errorDocument(
                    "op 'experiment' needs a 'request' object",
                    "bad_request");
                return;
            }
        }
        std::vector<ExperimentRequest> requests(1);
        std::vector<std::string> parse_errors(1);
        ExperimentRequest::fromJson(*body, requests[0],
                                    &parse_errors[0]);
        handleRequests(requests, parse_errors, out);
        return;
    }

    if (op_name == "batch") {
        const json::Value *list = value.find("requests");
        if (list == nullptr || !list->isArray()) {
            countError();
            out += errorDocument("op 'batch' needs a 'requests' array",
                                 "bad_request");
            return;
        }
        const json::Array &items = list->array();
        std::vector<ExperimentRequest> requests(items.size());
        std::vector<std::string> parse_errors(items.size());
        for (std::size_t i = 0; i < items.size(); ++i)
            ExperimentRequest::fromJson(items[i], requests[i],
                                        &parse_errors[i]);
        handleRequests(requests, parse_errors, out);
        return;
    }

    if (op_name == "hello") {
        handleHello(value, out);
        return;
    }

    if (op_name == "sweep") {
        handleSweep(value, out);
        return;
    }

    if (op_name == "stats") {
        out += statsDocument();
        return;
    }

    if (op_name == "ping") {
        ResultSink sink("casimd", config_);
        sink.addNote("pong");
        std::ostringstream os;
        sink.writeJsonLine(os);
        out += os.str();
        return;
    }

    if (op_name == "shutdown") {
        ResultSink sink("casimd", config_);
        sink.addNote("shutting down");
        std::ostringstream os;
        sink.writeJsonLine(os);
        out += os.str();
        requestStop();
        return;
    }

    countError();
    out += errorDocument("unknown op '" + op_name +
                             "' (known: hello, experiment, batch, "
                             "sweep, stats, ping, shutdown)",
                         "unknown_op");
}

void
ExperimentDaemon::handleHello(const json::Value &value, std::string &out)
{
    // Without an explicit "protocol" the client gets the newest; v1
    // clients never send hello at all, so this path only ever
    // negotiates, never breaks.
    unsigned negotiated = kProtocolVersion;
    if (const json::Value *protocol = value.find("protocol")) {
        const double raw = protocol->isNumber() ? protocol->number() : -1;
        if (raw < 0 ||
            raw != static_cast<double>(static_cast<std::uint64_t>(raw))) {
            countError();
            out += errorDocument(
                "hello field 'protocol' must be a non-negative integer",
                "bad_request");
            return;
        }
        const std::uint64_t v = static_cast<std::uint64_t>(raw);
        if (v < kProtocolVersionMin || v > kProtocolVersion) {
            countError();
            out += errorDocument(
                "unsupported protocol " + std::to_string(v) +
                    " (supported: " +
                    std::to_string(kProtocolVersionMin) + ".." +
                    std::to_string(kProtocolVersion) + ")",
                "protocol_mismatch");
            return;
        }
        negotiated = static_cast<unsigned>(v);
    }

    ResultSink sink("casimd", config_);
    TablePrinter table("hello", {"field", "value"});
    table.addRow({"protocol", std::to_string(negotiated)});
    table.addRow({"min_protocol", std::to_string(kProtocolVersionMin)});
    table.addRow({"max_protocol", std::to_string(kProtocolVersion)});
    table.addRow({"server", "casimd"});
    table.addRow({"ops", "hello, experiment, batch, sweep, stats, "
                         "ping, shutdown"});
    sink.addTable(table);
    std::ostringstream os;
    sink.writeJsonLine(os);
    out += os.str();
}

void
ExperimentDaemon::handleSweep(const json::Value &value, std::string &out)
{
    static constexpr const char *kSweepFields[] = {
        "op", "base", "workloads", "policies", "llc_bytes"};
    for (const auto &[key, member] : value.object()) {
        (void)member;
        bool known = false;
        for (const char *field : kSweepFields)
            known = known || key == field;
        if (!known) {
            countError();
            out += errorDocument(
                "unknown sweep field '" + key +
                    "' (known: op, base, workloads, policies, "
                    "llc_bytes)",
                "bad_request");
            return;
        }
    }

    const json::Value *base_value = value.find("base");
    if (base_value == nullptr || !base_value->isObject()) {
        countError();
        out += errorDocument("op 'sweep' needs a 'base' request object",
                             "bad_request");
        return;
    }
    ExperimentRequest base;
    std::string parse_error;
    if (!ExperimentRequest::fromJson(*base_value, base, &parse_error)) {
        countError();
        out += errorDocument("sweep base: " + parse_error,
                             "bad_request");
        return;
    }

    // Axis readers with per-axis, per-element diagnostics — the
    // requirePolicyFactory style, naming the axis, the index and the
    // known values, so a bad sweep fails before any cell is expanded.
    const auto stringAxis =
        [&](const char *axis, std::string (*check)(const std::string &),
            const char *code,
            std::vector<std::string> &items) -> bool {
        const json::Value *list = value.find(axis);
        if (list == nullptr)
            return true;
        if (!list->isArray() || list->array().empty()) {
            countError();
            out += errorDocument("sweep axis '" + std::string(axis) +
                                     "' must be a non-empty array",
                                 "bad_request");
            return false;
        }
        const json::Array &array = list->array();
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (!array[i].isString()) {
                countError();
                out += errorDocument("sweep axis '" +
                                         std::string(axis) + "'[" +
                                         std::to_string(i) +
                                         "] must be a string",
                                     "bad_request");
                return false;
            }
            if (const std::string why = check(array[i].str());
                !why.empty()) {
                countError();
                out += errorDocument("sweep axis '" +
                                         std::string(axis) + "'[" +
                                         std::to_string(i) +
                                         "]: " + why,
                                     code);
                return false;
            }
            items.push_back(array[i].str());
        }
        return true;
    };

    std::vector<std::string> workloads, policies;
    std::vector<std::uint64_t> llc_bytes;
    if (!stringAxis("workloads", checkWorkloadName, "unknown_workload",
                    workloads))
        return;
    if (!stringAxis("policies", checkPolicyName, "unknown_policy",
                    policies))
        return;

    if (const json::Value *list = value.find("llc_bytes")) {
        if (!list->isArray() || list->array().empty()) {
            countError();
            out += errorDocument(
                "sweep axis 'llc_bytes' must be a non-empty array",
                "bad_request");
            return;
        }
        const json::Array &array = list->array();
        for (std::size_t i = 0; i < array.size(); ++i) {
            const double raw =
                array[i].isNumber() ? array[i].number() : -1;
            if (raw < 0 ||
                raw != static_cast<double>(
                           static_cast<std::uint64_t>(raw))) {
                countError();
                out += errorDocument(
                    "sweep axis 'llc_bytes'[" + std::to_string(i) +
                        "] must be a non-negative integer",
                    "bad_request");
                return;
            }
            llc_bytes.push_back(static_cast<std::uint64_t>(raw));
        }
    }

    // An absent axis sweeps nothing: the base's own value stands in.
    if (workloads.empty())
        workloads.push_back(base.workload);
    if (policies.empty())
        policies.push_back(base.policy);
    if (llc_bytes.empty())
        llc_bytes.push_back(base.llcBytes);

    // Overflow-safe cross-product size against the hard expansion cap.
    std::size_t cells = 1;
    for (const std::size_t n :
         {workloads.size(), policies.size(), llc_bytes.size()}) {
        if (n > kSweepExpansionCap / cells) {
            cells = kSweepExpansionCap + 1;
            break;
        }
        cells *= n;
    }
    if (cells > kSweepExpansionCap) {
        countError();
        out += errorDocument(
            "sweep expands to " + std::to_string(workloads.size()) +
                " x " + std::to_string(policies.size()) + " x " +
                std::to_string(llc_bytes.size()) + " cells (cap " +
                std::to_string(kSweepExpansionCap) + ")",
            "capacity");
        return;
    }

    // A leading header document announces how many result lines follow
    // and the expansion order, so a client can stream the sweep.
    {
        ResultSink sink("casimd", base.config);
        TablePrinter table("sweep", {"field", "value"});
        table.addRow({"cells", std::to_string(cells)});
        table.addRow({"order", "workloads, policies, llc_bytes"});
        sink.addTable(table);
        std::ostringstream os;
        sink.writeJsonLine(os);
        out += os.str();
    }

    std::vector<ExperimentRequest> requests;
    requests.reserve(cells);
    for (const std::string &workload : workloads)
        for (const std::string &policy : policies)
            for (const std::uint64_t bytes : llc_bytes) {
                ExperimentRequest request = base;
                request.workload = workload;
                request.policy = policy;
                request.llcBytes = bytes;
                requests.push_back(std::move(request));
            }
    const std::vector<std::string> no_parse_errors(requests.size());
    handleRequests(requests, no_parse_errors, out);
}

void
ExperimentDaemon::serveConnection(int fd, int out_fd)
{
    countConnection();
    const auto overlong = [this] {
        countError();
        return errorDocument("request line exceeds " +
                                 std::to_string(kMaxLineBytes) + " bytes",
                             "bad_request");
    };
    std::string buffer;
    // buffer[0, scanned) holds no newline, so each byte is searched
    // once however slowly a long line arrives.
    std::size_t scanned = 0;
    // Set once an overlong line is answered: its bytes up to the next
    // newline are dropped as they arrive.
    bool skipping = false;
    char chunk[4096];
    bool open = true;
    while (open) {
        // Drain every complete line already buffered: requests that
        // were read are always answered, even during shutdown.
        std::string::size_type pos;
        while ((pos = buffer.find('\n', scanned)) != std::string::npos) {
            std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            scanned = 0;
            if (skipping) {
                skipping = false;
                continue;
            }
            std::string out;
            if (line.size() > kMaxLineBytes) {
                out = overlong();
            } else {
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (line.find_first_not_of(" \t") == std::string::npos)
                    continue;
                handleLine(line, out);
            }
            if (!writeAll(out_fd, out)) {
                open = false;
                break;
            }
        }
        if (!open)
            break;
        scanned = buffer.size();
        if (buffer.size() > kMaxLineBytes) {
            if (!skipping && !writeAll(out_fd, overlong()))
                break;
            skipping = true;
            buffer.clear();
            scanned = 0;
        }
        if (signalPending())
            requestStop();
        if (stopping())
            break;

        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // EOF
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

int
ExperimentDaemon::serveSocket(const std::string &path)
{
    installStopHandlers();

    sockaddr_un addr;
    if (!makeSocketAddress(path, addr)) {
        casim_warn("casimd: socket path '", path,
                   "' is empty or too long");
        return 1;
    }
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        casim_warn("casimd: socket: ", std::strerror(errno));
        return 1;
    }
    ::unlink(path.c_str()); // replace a stale socket file
    if (::bind(listen_fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        casim_warn("casimd: bind '", path, "': ",
                   std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }
    if (::listen(listen_fd, 16) < 0) {
        casim_warn("casimd: listen: ", std::strerror(errno));
        ::close(listen_fd);
        return 1;
    }

    // One thread per connection.  A list keeps each handler's done
    // flag at a stable address while finished handlers are erased.
    struct Handler
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };
    std::list<Handler> handlers;
    while (true) {
        // Reap finished connections now rather than at shutdown, so a
        // long-lived daemon does not keep one thread and its stack
        // reserved per connection it ever served.
        handlers.remove_if([](Handler &handler) {
            if (!handler.done)
                return false;
            handler.thread.join();
            return true;
        });
        liveHandlers_ = handlers.size();
        if (signalPending())
            requestStop();
        if (stopping())
            break;
        struct pollfd pfd = {};
        pfd.fd = listen_fd;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, 200);
        if (rc <= 0)
            continue; // timeout or EINTR: recheck the stop flags
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0)
            continue;
        Handler &handler = handlers.emplace_back();
        liveHandlers_ = handlers.size();
        handler.thread = std::thread([this, conn, &done = handler.done] {
            serveConnection(conn, conn);
            ::close(conn);
            done = true;
        });
    }

    // Drain: every connection finishes its in-flight work and writes
    // complete response lines before we tear anything down.
    for (Handler &handler : handlers)
        handler.thread.join();
    liveHandlers_ = 0;
    ::close(listen_fd);
    ::unlink(path.c_str());
    flushStats();
    return 0;
}

int
ExperimentDaemon::serveStdio()
{
    installStopHandlers();
    serveConnection(STDIN_FILENO, STDOUT_FILENO);
    flushStats();
    return 0;
}

// ---------------------------------------------------------------------
// DaemonClient

DaemonClient::DaemonClient(const std::string &socket_path)
    : group_("client"),
      batches_(group_.addCounter("batches",
                                 "request batches shipped to casimd")),
      remoteRequests_(group_.addCounter(
          "remote_requests",
          "experiment requests resolved by casimd"))
{
    sockaddr_un addr;
    if (!makeSocketAddress(socket_path, addr))
        casim_fatal("casimd client: socket path '", socket_path,
                    "' is empty or too long");
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        casim_fatal("casimd client: socket: ", std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0)
        casim_fatal("casimd client: cannot connect to '", socket_path,
                    "': ", std::strerror(errno));
}

DaemonClient::~DaemonClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

ExperimentResult
decodeResponseDocument(const std::string &line)
{
    json::Value doc;
    std::string error;
    if (!json::parse(line, doc, &error))
        casim_fatal("casimd client: malformed response: ", error);
    if (!doc.isObject())
        casim_fatal("casimd client: response is not an object");
    if (const json::Value *err = doc.find("error");
        err != nullptr && err->isString())
        casim_fatal("casimd: ", err->str());

    const json::Value *tables = doc.find("tables");
    if (tables == nullptr || !tables->isArray() ||
        tables->array().empty())
        casim_fatal("casimd client: response has no result table");
    const json::Value *rows = tables->array().front().find("rows");
    if (rows == nullptr || !rows->isArray())
        casim_fatal("casimd client: result table has no rows");

    std::vector<std::vector<std::string>> cells;
    for (const json::Value &row : rows->array()) {
        if (!row.isArray())
            casim_fatal("casimd client: result row is not an array");
        std::vector<std::string> cell_row;
        for (const json::Value &cell : row.array()) {
            if (!cell.isString())
                casim_fatal(
                    "casimd client: result cell is not a string");
            cell_row.push_back(cell.str());
        }
        cells.push_back(std::move(cell_row));
    }

    ExperimentResult result;
    std::string why;
    if (!ExperimentResult::fromRows(cells, result, &why))
        casim_fatal("casimd client: ", why);
    return result;
}

std::vector<ExperimentResult>
DaemonClient::runBatch(const std::vector<ExperimentRequest> &requests)
{
    if (requests.empty())
        return {};
    // Same discipline as the local queue: a bad request from a bench
    // is a programming error, fatal before anything hits the wire.
    for (const ExperimentRequest &request : requests)
        request.requireValid();

    std::string line = "{\"op\": \"batch\", \"requests\": [";
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (i)
            line += ", ";
        line += requests[i].toJson();
    }
    line += "]}\n";
    if (!writeAll(fd_, line))
        casim_fatal("casimd client: write failed: ",
                    std::strerror(errno));
    ++batches_;
    remoteRequests_ += requests.size();

    std::vector<ExperimentResult> results;
    results.reserve(requests.size());
    char chunk[4096];
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string::size_type pos;
        while ((pos = pending_.find('\n')) == std::string::npos) {
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                casim_fatal("casimd client: read failed: ",
                            std::strerror(errno));
            }
            if (n == 0)
                casim_fatal("casimd client: daemon closed the "
                            "connection mid-batch");
            pending_.append(chunk, static_cast<std::size_t>(n));
        }
        const std::string reply = pending_.substr(0, pos);
        pending_.erase(0, pos + 1);
        results.push_back(decodeResponseDocument(reply));
    }
    return results;
}

} // namespace casim
