/**
 * @file
 * daemon-mixed: a casimd child warm-started from the bundle directory,
 * driven by three closed-loop connections from this one client process
 * (casimd callers wait for each reply).  Two clients send small batch
 * requests, one workload x {lru, srrip, opt, lru+oracle} in a
 * seed-shuffled workload order, with a stats op every 10th request; the
 * third sends back-to-back sweep ops over every workload x {lru, drrip}
 * x both capacities.  Protocol, request encoding, queue and lease
 * scheduling matter here and are invisible in-process, and the large
 * sweeps beside the small batches use the same queue and worker pool
 * two ways, so a change that helps big batches but hurts small-request
 * tail latency shows.
 */

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "bench.hh"
#include "casimd_client.hh"
#include "common/json.hh"
#include "stats_math.hh"
#include "util.hh"
#include "warm.hh"

namespace perfbench {

using casim::ExperimentRequest;
using casim::ExperimentResult;
using casim::StudyConfig;
namespace json = casim::json;

namespace {

/** No reply may take longer than this before the connection counts
 * as dropped. */
constexpr double kReplyTimeout = 60.0;

/**
 * Upper end of a small client's seeded uniform think time between
 * requests.  Without it both small clients are released together at
 * the end of every sweep and race the next sweep, so each request lands
 * either just before it (fast) or just behind it (slow) and the median
 * flips between the two modes from run to run; a random pause spreads
 * the arrivals across the sweep cycle.
 */
constexpr double kThinkMaxMs = 60.0;

const json::Value *
member(const json::Value *value, const std::string &key)
{
    return value != nullptr && value->isObject() ? value->find(key)
                                                 : nullptr;
}

/** Parse a reply line; false (with *why) on bad JSON or an error doc. */
bool
parseReply(const std::string &line, json::Value &doc, std::string *why)
{
    if (!json::parse(line, doc, why))
        return false;
    if (const json::Value *error = member(&doc, "error")) {
        *why = "error reply: " +
               (error->isString() ? error->str() : std::string("?"));
        return false;
    }
    return true;
}

/** The rows of the reply's first table titled `title`. */
bool
tableRows(const json::Value &doc, const std::string &title,
          std::vector<std::vector<std::string>> &rows)
{
    const json::Value *tables = member(&doc, "tables");
    if (tables == nullptr || !tables->isArray())
        return false;
    for (const json::Value &table : tables->array()) {
        const json::Value *name = member(&table, "title");
        const json::Value *body = member(&table, "rows");
        if (name == nullptr || !name->isString() || name->str() != title ||
            body == nullptr || !body->isArray())
            continue;
        rows.clear();
        for (const json::Value &row : body->array()) {
            if (!row.isArray())
                return false;
            std::vector<std::string> fields;
            for (const json::Value &field : row.array()) {
                if (!field.isString())
                    return false;
                fields.push_back(field.str());
            }
            rows.push_back(std::move(fields));
        }
        return true;
    }
    return false;
}

/** A counter or formula value from a stats reply (0 when absent). */
double
statValue(const json::Value &doc, const std::string &group,
          const std::string &name)
{
    const json::Value *value = member(
        member(member(member(&doc, "stats"), group), group + "." + name),
        "value");
    return value != nullptr && value->isNumber() ? value->number() : 0.0;
}

/** One connection's request/response exchange, with spans. */
class Session
{
  public:
    Session(SpanRecorder *recorder, Checks &checks)
        : recorder_(recorder), checks_(checks)
    {
    }

    bool
    connect(const std::string &socket, double timeout_s)
    {
        return conn_.connect(socket, timeout_s);
    }

    void setRecorder(SpanRecorder *recorder) { recorder_ = recorder; }

    /** hello op; false (a failure is counted) unless protocol 2. */
    bool
    hello()
    {
        checks_.attempt();
        json::Value doc;
        std::vector<std::vector<std::string>> rows;
        std::string why;
        Span span(recorder_, "sim.daemon.hello");
        if (!exchange("{\"op\": \"hello\", \"protocol\": 2}", doc, &why) ||
            !tableRows(doc, "hello", rows)) {
            checks_.fail("hello: " + why);
            return false;
        }
        return true;
    }

    /**
     * Send `cells` as one batch op and decode every reply; returns the
     * round trip in ms, or a negative value on a failure (counted).
     */
    double
    batch(const std::vector<ExperimentRequest> &cells,
          std::vector<ExperimentResult> &results, const std::string &label)
    {
        checks_.attempt();
        const double t0 = monoSeconds();
        Span span(recorder_, "sim.daemon.batch", label);
        std::string line;
        {
            Span encode(recorder_, "sim.request.encode", label);
            line = "{\"op\": \"batch\", \"requests\": [";
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (i != 0)
                    line += ", ";
                line += cells[i].toJson();
            }
            line += "]}";
            encode.count("bytes", static_cast<double>(line.size()));
        }
        if (!conn_.sendLine(line))
            return failed("batch send: connection dropped");
        results.assign(cells.size(), ExperimentResult{});
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (!readResult(results[i]))
                return -1.0;
        return (monoSeconds() - t0) * 1e3;
    }

    /** As batch(), for a sweep op expanding to `expected` in order. */
    double
    sweep(const ExperimentRequest &base,
          const std::vector<std::string> &workloads,
          const std::vector<std::string> &policies,
          const std::vector<std::uint64_t> &caps,
          const std::vector<ExperimentRequest> &expected,
          std::vector<ExperimentResult> &results)
    {
        checks_.attempt();
        const double t0 = monoSeconds();
        Span span(recorder_, "sim.daemon.sweep");
        std::string line;
        {
            Span encode(recorder_, "sim.request.encode");
            const auto list = [](const auto &items, const auto &encode_item) {
                std::string out = "[";
                for (std::size_t i = 0; i < items.size(); ++i)
                    out += (i != 0 ? ", " : "") + encode_item(items[i]);
                return out + "]";
            };
            const auto quoted = [](const std::string &s) {
                return jsonString(s);
            };
            const auto number = [](std::uint64_t n) {
                return std::to_string(n);
            };
            line = "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                   ", \"workloads\": " + list(workloads, quoted) +
                   ", \"policies\": " + list(policies, quoted) +
                   ", \"llc_bytes\": " + list(caps, number) + "}";
            encode.count("bytes", static_cast<double>(line.size()));
        }
        if (!conn_.sendLine(line))
            return failed("sweep send: connection dropped");
        std::string reply;
        json::Value doc;
        std::vector<std::vector<std::string>> rows;
        std::string why;
        if (!conn_.readLine(reply, kReplyTimeout))
            return failed("sweep: connection dropped");
        if (!parseReply(reply, doc, &why) || !tableRows(doc, "sweep", rows))
            return failed("sweep header: " + why);
        results.assign(expected.size(), ExperimentResult{});
        for (std::size_t i = 0; i < expected.size(); ++i)
            if (!readResult(results[i]))
                return -1.0;
        return (monoSeconds() - t0) * 1e3;
    }

    /** stats op; returns the round trip in ms (negative on failure). */
    double
    stats(json::Value &doc)
    {
        checks_.attempt();
        const double t0 = monoSeconds();
        Span span(recorder_, "sim.daemon.stats");
        std::string why;
        if (!exchange("{\"op\": \"stats\"}", doc, &why))
            return failed("stats: " + why);
        return (monoSeconds() - t0) * 1e3;
    }

    /** shutdown op; the reply is a note document. */
    bool
    shutdown()
    {
        checks_.attempt();
        json::Value doc;
        std::string why;
        if (!exchange("{\"op\": \"shutdown\"}", doc, &why)) {
            checks_.fail("shutdown: " + why);
            return false;
        }
        return true;
    }

  private:
    double
    failed(const std::string &why)
    {
        checks_.fail(why);
        return -1.0;
    }

    bool
    exchange(const std::string &request, json::Value &doc, std::string *why)
    {
        std::string reply;
        if (!conn_.sendLine(request) ||
            !conn_.readLine(reply, kReplyTimeout)) {
            *why = "connection dropped";
            return false;
        }
        return parseReply(reply, doc, why);
    }

    bool
    readResult(ExperimentResult &result)
    {
        std::string reply;
        if (!conn_.readLine(reply, kReplyTimeout)) {
            failed("result: connection dropped");
            return false;
        }
        Span decode(recorder_, "sim.request.decode");
        json::Value doc;
        std::vector<std::vector<std::string>> rows;
        std::string why;
        if (!parseReply(reply, doc, &why) || !tableRows(doc, "result", rows) ||
            !ExperimentResult::fromRows(rows, result, &why)) {
            failed("result: " + why);
            return false;
        }
        return true;
    }

    SpanRecorder *recorder_;
    Checks &checks_;
    CasimdConnection conn_;
};

/** A running casimd and the connection that booted it. */
struct Daemon
{
    CasimdProcess process;
    std::unique_ptr<Session> control;
    double demandRefs = 0.0;
};

/**
 * Start casimd on config.captureDir, connect, hello, and warm every
 * capture with a batch of capture-kind cells (which also reports the
 * suite's demand references).  Returns the seconds from spawn to warm,
 * or a negative value on failure.
 */
double
bootDaemon(const Settings &settings, SpanRecorder *recorder,
           const StudyConfig &config, const std::string &socket,
           Daemon &daemon, Checks &checks)
{
    const double t0 = monoSeconds();
    Span boot(recorder, "sim.daemon.boot");
    std::string why;
    checks.attempt();
    if (!daemon.process.start(settings.casimd, socket, config.captureDir,
                              settings.jobs, &why)) {
        checks.fail("casimd start: " + why);
        return -1.0;
    }
    daemon.control = std::make_unique<Session>(recorder, checks);
    if (!daemon.control->connect(socket, 30.0)) {
        checks.fail("casimd did not accept a connection");
        daemon.process.kill();
        return -1.0;
    }
    if (!daemon.control->hello()) {
        daemon.process.kill();
        return -1.0;
    }
    std::vector<ExperimentRequest> warm;
    for (const std::string &name : workloadNames())
        warm.push_back(makeCell("capture", name, "", 0, config));
    std::vector<ExperimentResult> results;
    if (daemon.control->batch(warm, results, "warm start") < 0.0) {
        daemon.process.kill();
        return -1.0;
    }
    daemon.demandRefs = 0.0;
    for (const ExperimentResult &result : results)
        daemon.demandRefs += static_cast<double>(result.demandAccesses);
    return monoSeconds() - t0;
}

/** Shut a daemon down through the protocol and check its exit code. */
void
stopDaemon(Daemon &daemon, Checks &checks)
{
    if (daemon.process.pid() < 0)
        return;
    if (daemon.control != nullptr)
        daemon.control->shutdown();
    checks.attempt();
    const int code = daemon.process.waitExit(30.0);
    if (code != 0)
        checks.fail("casimd exited with code " + std::to_string(code));
    daemon.control.reset();
}

/** Fastest in-process executeCell time of each cell, by cell label. */
std::map<std::string, double>
cellSeconds(const std::vector<SpanRecord> &spans)
{
    std::map<std::string, double> best;
    for (const SpanRecord &span : spans) {
        if (span.end < 0.0 || span.name.rfind("sim.replay.", 0) != 0)
            continue;
        const double seconds = span.end - span.begin;
        const auto [it, inserted] = best.emplace(span.cell, seconds);
        if (!inserted)
            it->second = std::min(it->second, seconds);
    }
    return best;
}

/**
 * Round trip minus the in-process critical path of the same cells
 * (they run in parallel on the daemon's pool); negative when a cell's
 * in-process time is unknown.
 */
double
overheadMs(double rtt_ms, const std::vector<ExperimentRequest> &cells,
           const std::map<std::string, double> &cell_seconds)
{
    double critical = 0.0;
    for (const ExperimentRequest &cell : cells) {
        const auto it = cell_seconds.find(cellLabel(cell));
        if (it == cell_seconds.end())
            return -1.0;
        critical = std::max(critical, it->second);
    }
    return rtt_ms - critical * 1e3;
}

void
recordReplies(const std::vector<ExperimentRequest> &cells,
              const std::vector<ExperimentResult> &results,
              ResultBook &book, Checks &checks)
{
    for (std::size_t i = 0; i < cells.size() && i < results.size(); ++i)
        book.record(cells[i], results[i], "casimd", checks);
}

/** Results the traffic of one timed window collected. */
struct Window
{
    std::mutex mutex;
    std::vector<double> smallMs;
    std::vector<double> sweepMs;
    std::vector<double> statsMs;
    std::vector<double> overheadMs;
    double replayRefs = 0.0;
    double demandRefs = 0.0;
    double wall = 0.0;
};

struct Traffic
{
    const Settings &settings;
    const StudyConfig &config;
    const Sizes &sizes;
    const std::string &socket;
    ResultBook &book;
    Checks &checks;
    double suiteDemandRefs;
    std::map<std::string, double> demandOf;
    std::map<std::string, double> cellSeconds;
};

std::vector<ExperimentRequest>
smallCells(const std::string &name, std::uint64_t cap,
           const StudyConfig &config)
{
    std::vector<ExperimentRequest> cells;
    for (const char *policy : {"lru", "srrip", "opt", "lru+oracle"})
        cells.push_back(makeCell("replay", name, policy, cap, config));
    return cells;
}

std::vector<ExperimentRequest>
sweepExpansion(const StudyConfig &config, const Sizes &sizes)
{
    std::vector<ExperimentRequest> cells;
    for (const std::string &name : workloadNames())
        for (const char *policy : {"lru", "drrip"})
            for (const std::uint64_t cap : {sizes.evictBytes, sizes.fitBytes})
                cells.push_back(makeCell("replay", name, policy, cap, config));
    return cells;
}

/**
 * Run the three closed-loop clients for `seconds`, recording spans
 * when `recorder` is set.
 */
void
runWindow(Traffic &traffic, SpanRecorder *recorder, double seconds,
          std::uint64_t window_index, Window &window)
{
    std::atomic<bool> stop{false};
    const std::vector<std::string> names = workloadNames();
    const auto small_client = [&](int client) {
        if (recorder != nullptr)
            recorder->nameTrack("client small-" + std::to_string(client));
        Session session(nullptr, traffic.checks);
        if (!session.connect(traffic.socket, 10.0)) {
            traffic.checks.fail("small client cannot connect");
            return;
        }
        if (!session.hello())
            return;
        session.setRecorder(recorder);
        std::vector<std::string> order = names;
        std::mt19937_64 rng(traffic.settings.seed * 1000003u +
                            window_index * 101u +
                            static_cast<std::uint64_t>(client));
        std::shuffle(order.begin(), order.end(), rng);
        std::uniform_real_distribution<double> think_ms(0.0, kThinkMaxMs);
        std::size_t sent = 0;
        for (std::size_t k = 0; !stop.load(); ++k) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(think_ms(rng)));
            if (k % 10 == 9) {
                json::Value doc;
                const double ms = session.stats(doc);
                if (ms < 0.0)
                    return;
                std::lock_guard<std::mutex> lock(window.mutex);
                window.statsMs.push_back(ms);
                continue;
            }
            const std::string &name = order[sent % order.size()];
            const std::uint64_t cap = (sent / order.size()) % 2 == 0
                                          ? traffic.sizes.evictBytes
                                          : traffic.sizes.fitBytes;
            ++sent;
            const auto cells = smallCells(name, cap, traffic.config);
            std::vector<ExperimentResult> results;
            const double ms = session.batch(cells, results, name);
            if (ms < 0.0)
                return;
            recordReplies(cells, results, traffic.book, traffic.checks);
            double replayed = 0.0;
            for (const ExperimentResult &result : results)
                replayed += static_cast<double>(result.streamRefs);
            std::lock_guard<std::mutex> lock(window.mutex);
            window.smallMs.push_back(ms);
            window.replayRefs += replayed;
            window.demandRefs += traffic.demandOf.at(name);
            const double overhead =
                overheadMs(ms, cells, traffic.cellSeconds);
            if (overhead >= 0.0 && recorder != nullptr)
                window.overheadMs.push_back(overhead);
        }
    };
    const auto sweep_client = [&] {
        if (recorder != nullptr)
            recorder->nameTrack("client sweep");
        Session session(nullptr, traffic.checks);
        if (!session.connect(traffic.socket, 10.0)) {
            traffic.checks.fail("sweep client cannot connect");
            return;
        }
        if (!session.hello())
            return;
        session.setRecorder(recorder);
        const auto expected = sweepExpansion(traffic.config, traffic.sizes);
        const ExperimentRequest base =
            makeCell("replay", names.front(), "lru", traffic.sizes.evictBytes,
                     traffic.config);
        while (!stop.load()) {
            std::vector<ExperimentResult> results;
            const double ms = session.sweep(
                base, names, {"lru", "drrip"},
                {traffic.sizes.evictBytes, traffic.sizes.fitBytes}, expected,
                results);
            if (ms < 0.0)
                return;
            recordReplies(expected, results, traffic.book, traffic.checks);
            double replayed = 0.0;
            for (const ExperimentResult &result : results)
                replayed += static_cast<double>(result.streamRefs);
            std::lock_guard<std::mutex> lock(window.mutex);
            window.sweepMs.push_back(ms);
            window.replayRefs += replayed;
            window.demandRefs += traffic.suiteDemandRefs;
        }
    };
    const double t0 = monoSeconds();
    std::vector<std::thread> clients;
    clients.emplace_back(small_client, 1);
    clients.emplace_back(small_client, 2);
    clients.emplace_back(sweep_client);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread &client : clients)
        client.join();
    window.wall = monoSeconds() - t0;
}

} // namespace

void
daemonCrossCheck(const Settings &settings, SpanRecorder *recorder,
                 const StudyConfig &config,
                 const std::vector<ExperimentRequest> &cells,
                 ResultBook &book, Checks &checks, LayerCounts &counts)
{
    const std::string socket = settings.runDir + "/check.sock";
    Daemon daemon;
    if (bootDaemon(settings, recorder, config, socket, daemon, checks) < 0.0)
        return;
    const auto cell_seconds =
        cellSeconds(recorder != nullptr ? recorder->spans()
                                        : std::vector<SpanRecord>{});
    std::vector<std::string> names;
    for (const ExperimentRequest &cell : cells)
        if (std::find(names.begin(), names.end(), cell.workload) ==
            names.end())
            names.push_back(cell.workload);
    names.resize(std::min<std::size_t>(names.size(), 3));

    std::vector<std::uint64_t> caps;
    for (const std::string &name : names) {
        std::vector<ExperimentRequest> mine;
        for (const ExperimentRequest &cell : cells) {
            if (cell.workload != name)
                continue;
            mine.push_back(cell);
            if (cell.kind == "replay" &&
                std::find(caps.begin(), caps.end(),
                          cell.effectiveLlcBytes()) == caps.end())
                caps.push_back(cell.effectiveLlcBytes());
        }
        std::vector<ExperimentResult> results;
        const double ms = daemon.control->batch(mine, results, name);
        if (ms < 0.0)
            return;
        recordReplies(mine, results, book, checks);
        counts.batchRttMs.push_back(ms);
        std::vector<ExperimentRequest> replay_cells;
        for (const ExperimentRequest &cell : mine)
            if (cell.kind == "replay")
                replay_cells.push_back(cell);
        const double overhead = overheadMs(ms, replay_cells, cell_seconds);
        if (overhead >= 0.0)
            counts.overheadMs.push_back(overhead);
    }

    std::vector<ExperimentRequest> expected;
    for (const std::string &name : names)
        for (const std::uint64_t cap : caps)
            expected.push_back(makeCell("replay", name, "lru", cap, config));
    std::vector<ExperimentResult> results;
    const double ms = daemon.control->sweep(
        makeCell("replay", names.front(), "lru", caps.front(), config), names,
        {"lru"}, caps, expected, results);
    if (ms >= 0.0) {
        recordReplies(expected, results, book, checks);
        counts.sweepRttMs.push_back(ms);
    }
    for (int i = 0; i < 5; ++i) {
        json::Value doc;
        const double stats_ms = daemon.control->stats(doc);
        if (stats_ms >= 0.0)
            counts.statsRttMs.push_back(stats_ms);
    }
    counts.daemonFrom = "cross-path check against a casimd on the bundles";
    stopDaemon(daemon, checks);
}

void
runDaemonMixed(const Settings &settings, Report &report, Checks &checks)
{
    const Sizes sizes = sizesFor(settings);
    const StudyConfig config = warmConfig(settings);
    const std::string socket = settings.runDir + "/casimd.sock";
    report.line("daemon-mixed: casimd --jobs=" +
                std::to_string(settings.jobs) + ", scale " +
                std::to_string(sizes.warmScale) + ", capacities " +
                bytesLabel(sizes.evictBytes) + " and " +
                bytesLabel(sizes.fitBytes) +
                "; 2 small-batch clients + 1 sweep client, closed loop");

    std::unique_ptr<SpanRecorder> recorder;
    if (settings.trace) {
        recorder = std::make_unique<SpanRecorder>();
        recorder->nameTrack("main");
    }
    writeBundles(settings, recorder.get(), config, checks);

    // Reference results of every cell the clients can send, computed
    // in-process from the same bundles; every reply must match them.
    std::vector<ExperimentRequest> cells;
    for (const std::string &name : workloadNames())
        for (const std::uint64_t cap : {sizes.evictBytes, sizes.fitBytes})
            for (const ExperimentRequest &cell : smallCells(name, cap, config))
                cells.push_back(cell);
    for (const ExperimentRequest &cell : sweepExpansion(config, sizes))
        cells.push_back(cell);
    ResultBook book;
    Traffic traffic{settings, config, sizes, socket, book, checks, 0.0, {},
                    {}};
    LayerCounts counts;
    counts.jobs = settings.jobs;
    counts.minCap = sizes.evictBytes;
    counts.maxCap = sizes.fitBytes;
    {
        if (recorder != nullptr)
            recorder->setPhase("setup");
        casim::CaptureCache cache;
        CaptureSet captures =
            loadAll(settings, recorder.get(), config, cache, checks);
        casim::ParallelRunner runner(settings.jobs);
        const auto results =
            pipelineBatch(recorder.get(), runner, cells, captures);
        book.recordBatch(cells, results, "in-process", checks);
        for (const auto &[name, workload] : captures) {
            traffic.demandOf[name] =
                static_cast<double>(workload->demandAccesses);
            traffic.suiteDemandRefs +=
                static_cast<double>(workload->demandAccesses);
        }
        counts.bytesMapped = static_cast<double>(cache.counter("bytes_mapped"));
    }
    book.checkOptBound(cells, checks);
    if (recorder != nullptr)
        traffic.cellSeconds = cellSeconds(recorder->spans());

    // Set-up: boot to hello plus the warm start, several boots; the
    // last daemon serves the timed traffic.
    std::vector<double> setups;
    Daemon daemon;
    const int boots = settings.trace ? 1 : 11;
    for (int boot = 0; boot < boots; ++boot) {
        if (boot != 0)
            stopDaemon(daemon, checks);
        const double seconds =
            bootDaemon(settings, recorder.get(), config, socket, daemon,
                       checks);
        if (seconds < 0.0) {
            reportFailures(report, checks);
            return;
        }
        setups.push_back(seconds);
    }

    json::Value before;
    daemon.control->stats(before);
    Window untraced;
    Window traced;
    if (!settings.trace) {
        runWindow(traffic, nullptr, settings.seconds, 0, untraced);
    } else {
        // Half untraced, half traced: the difference is the overhead.
        runWindow(traffic, nullptr, settings.seconds / 2, 0, untraced);
        recorder->setPhase("timed");
        runWindow(traffic, recorder.get(), settings.seconds / 2, 1, traced);
    }
    json::Value after;
    daemon.control->stats(after);
    const double rss_mb =
        static_cast<double>(peakRssBytes(daemon.process.pid())) /
        (1024.0 * 1024.0);
    stopDaemon(daemon, checks);
    reportCapacityChecks(cells, book, sizes, report, checks);

    if (untraced.smallMs.empty() ||
        (settings.trace && traced.smallMs.empty())) {
        checks.fail("no small batch request completed");
        reportFailures(report, checks);
        return;
    }
    report.timing("small batch round trip", untraced.smallMs, "ms", 1.0);
    report.timing("sweep round trip", untraced.sweepMs, "ms", 1.0);
    report.timing("stats round trip", untraced.statsMs, "ms", 1.0);

    if (!settings.trace) {
        report.timing("set-up (boot to hello + warm start)", setups, "ms",
                      1e3);
        const Tail tail = tailLatency(untraced.smallMs);
        report.metric("setup_s", median(setups), "s",
                      "median of " + std::to_string(setups.size()) +
                          " boots");
        report.metric("sim_refs_per_s",
                      untraced.demandRefs / untraced.wall, "1/s",
                      "simulated demand refs of the workloads the completed "
                      "ops covered / timed wall");
        report.metric("replay_refs_per_s",
                      untraced.replayRefs / untraced.wall, "1/s",
                      "LLC refs replayed by every op / timed wall");
        report.metric("req_p50_ms", median(untraced.smallMs), "ms",
                      "small batch requests, n=" +
                          std::to_string(untraced.smallMs.size()));
        char note[64];
        std::snprintf(note, sizeof(note), "p%.3g of %zu small requests",
                      tail.percentile, untraced.smallMs.size());
        report.metric("req_tail_ms", tail.value, "ms", note);
        report.metric("req_per_s",
                      static_cast<double>(untraced.smallMs.size()) /
                          untraced.wall,
                      "1/s", "small batch requests / timed wall");
        report.metric("max_rss_mb", rss_mb, "MB", "VmHWM of casimd");
        reportOkRatio(report, checks);
        return;
    }

    counts.batchRttMs = traced.smallMs;
    counts.sweepRttMs = traced.sweepMs;
    counts.statsRttMs = traced.statsMs;
    counts.overheadMs = traced.overheadMs;
    counts.daemonFrom = "client spans of the traced window";
    counts.traceOverhead =
        median(traced.smallMs) / median(untraced.smallMs) - 1.0;
    const auto delta = [&](const std::string &group, const std::string &name) {
        return statValue(after, group, name) - statValue(before, group, name);
    };
    counts.planeBuilds = delta("label_plane", "builds");
    counts.planeMemoHits = delta("label_plane", "memo_hits");
    counts.planesFrom = "casimd stats deltas over the timed windows";
    const double hits =
        delta("capture_cache", "hits") + delta("capture_cache", "memo_hits");
    const double lookups = hits + delta("capture_cache", "cold_misses") +
                           delta("capture_cache", "stale_misses") +
                           delta("capture_cache", "corrupt_misses");
    counts.captureHitRatio = lookups > 0.0 ? hits / lookups : 0.0;
    counts.residentBytes = statValue(after, "resident_store", "bytes");
    counts.cacheFrom = "casimd stats over the timed windows";
    counts.leaseWaits = delta("queue", "lease_waits");
    counts.concurrentBatches = delta("queue", "concurrent_batches");
    counts.queueFrom = "casimd stats deltas over the timed windows";
    counts.timedIterations = 1;
    reportLayers(recorder->spans(), counts, report);
    writeTrace(settings, *recorder, report);
    reportFailures(report, checks);
}

} // namespace perfbench
