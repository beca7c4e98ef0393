/**
 * @file
 * End-to-end tests for the casimd daemon over socketpairs: the wire
 * protocol ops (including the v2 hello negotiation and server-side
 * sweep expansion), error replies with stable error codes, result
 * decoding (byte-exact against a local queue), concurrent clients
 * against one daemon, and the drain guarantee — buffered request lines
 * and in-flight concurrent batches are still answered after a stop —
 * and that the socket server reaps finished connection threads.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/stats.hh"
#include "sim/daemon.hh"

namespace casim {
namespace {

/** A fast study configuration for daemon tests. */
StudyConfig
testConfig()
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.01;
    config.hierarchy.numCores = 4;
    return config;
}

/** Blocking full write of `text` to `fd`. */
void
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + done, text.size() - done);
        ASSERT_GT(n, 0);
        done += static_cast<std::size_t>(n);
    }
}

/** Read one newline-terminated line from `fd` (buffered in `pending`). */
std::string
readLine(int fd, std::string &pending)
{
    for (;;) {
        const auto nl = pending.find('\n');
        if (nl != std::string::npos) {
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            return line;
        }
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return "";
        pending.append(buf, static_cast<std::size_t>(n));
    }
}

/** A numeric statistic of a daemon's stats document (NaN if absent). */
double
statValue(ExperimentDaemon &daemon, const std::string &group,
          const std::string &name)
{
    json::Value doc;
    std::string error;
    if (!json::parse(daemon.statsDocument(), doc, &error))
        return std::nan("");
    const json::Value *stats = doc.find("stats");
    const json::Value *in_group = stats ? stats->find(group) : nullptr;
    const json::Value *stat =
        in_group ? in_group->find(group + "." + name) : nullptr;
    const json::Value *value = stat ? stat->find("value") : nullptr;
    return value ? value->number() : std::nan("");
}

/** One daemon served over a socketpair; joins on destruction. */
class DaemonHarness
{
  public:
    DaemonHarness() : daemon_(testConfig(), 2)
    {
        int sv[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_ = sv[0];
        server_ = sv[1];
        thread_ = std::thread([this] {
            daemon_.serveConnection(server_, server_);
            // Signal EOF to the client once the connection loop exits
            // (e.g. after a shutdown op) so reads never block forever.
            ::shutdown(server_, SHUT_RDWR);
        });
    }

    ~DaemonHarness()
    {
        ::shutdown(client_, SHUT_WR); // EOF ends the connection loop
        thread_.join();
        ::close(client_);
        ::close(server_);
    }

    ExperimentDaemon &daemon() { return daemon_; }
    int fd() const { return client_; }
    std::string readResponse() { return readLine(client_, pending_); }

  private:
    ExperimentDaemon daemon_;
    int client_ = -1;
    int server_ = -1;
    std::string pending_;
    std::thread thread_;
};

TEST(Daemon, PingStatsAndUnknownOp)
{
    DaemonHarness harness;
    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("pong"), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos);

    writeAll(harness.fd(), "{\"op\": \"stats\"}\n");
    line = harness.readResponse();
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(line, doc, &error)) << error;
    EXPECT_NE(line.find("casimd.requests"), std::string::npos);
    EXPECT_NE(line.find("capture_cache.memo_hits"), std::string::npos);
    EXPECT_NE(line.find("queue.batches"), std::string::npos);
    EXPECT_NE(line.find("runner.queue_wait_seconds"), std::string::npos);
    EXPECT_NE(line.find("casimd.live_handlers"), std::string::npos);

    writeAll(harness.fd(), "{\"op\": \"flush\"}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("unknown op 'flush'"), std::string::npos)
        << line;
}

TEST(Daemon, ExperimentMatchesLocalQueueByteForByte)
{
    ExperimentRequest request;
    request.workload = "canneal";
    request.config = testConfig();
    request.labeler = "oracle";

    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue local(cache, runner);
    const ExperimentResult direct = local.run(request);

    DaemonHarness harness;
    writeAll(harness.fd(),
             "{\"op\": \"experiment\", \"request\": " +
                 request.toJson() + "}\n");
    const ExperimentResult remote =
        decodeResponseDocument(harness.readResponse());
    EXPECT_EQ(remote.toRows(), direct.toRows());

    // A bare object (no "op") is the same experiment.
    writeAll(harness.fd(), request.toJson() + "\n");
    const ExperimentResult bare =
        decodeResponseDocument(harness.readResponse());
    EXPECT_EQ(bare.toRows(), direct.toRows());

    // The second round was served from the resident capture store.
    EXPECT_GE(harness.daemon().cache().counter("memo_hits"), 1u);
}

TEST(Daemon, BatchKeepsRequestOrderAndPerSlotErrors)
{
    ExperimentRequest good;
    good.workload = "canneal";
    good.config = testConfig();
    ExperimentRequest bad = good;
    bad.policy = "lru2";

    DaemonHarness harness;
    writeAll(harness.fd(),
             "{\"op\": \"batch\", \"requests\": [" + good.toJson() +
                 ", " + bad.toJson() + ", " + good.toJson() + "]}\n");

    // One response line per slot, in request order.
    const std::string first = harness.readResponse();
    const std::string second = harness.readResponse();
    const std::string third = harness.readResponse();
    EXPECT_EQ(first.find("\"error\""), std::string::npos) << first;
    EXPECT_NE(second.find("invalid experiment request: unknown policy "
                          "'lru2'"),
              std::string::npos)
        << second;
    EXPECT_EQ(first, third);
    const ExperimentResult result = decodeResponseDocument(first);
    EXPECT_GT(result.misses, 0u);
}

TEST(Daemon, MalformedLinesGetErrorDocuments)
{
    DaemonHarness harness;
    writeAll(harness.fd(), "{nope\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("request parse error"), std::string::npos)
        << line;

    writeAll(harness.fd(), "42\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("must be a JSON object"), std::string::npos)
        << line;

    // Error documents are still valid casim-stats-1 JSON.
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(line, doc, &error)) << error;

    // And the connection survives for a real request afterwards.
    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    EXPECT_NE(harness.readResponse().find("pong"), std::string::npos);
}

TEST(Daemon, DeeplyNestedLineIsABadRequest)
{
    // One line of 200 000 '[' used to overflow the recursive JSON
    // parser's stack and kill the daemon; it must now be an ordinary
    // bad_request that leaves the connection usable.
    DaemonHarness harness;
    writeAll(harness.fd(), std::string(200000, '[') + "\n");
    const std::string line = harness.readResponse();
    EXPECT_NE(line.find("\"bad_request\""), std::string::npos) << line;
    EXPECT_NE(line.find("nesting deeper"), std::string::npos) << line;

    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    EXPECT_NE(harness.readResponse().find("pong"), std::string::npos);
}

TEST(Daemon, OverlongLineIsABadRequest)
{
    // A line one byte over the cap is answered with bad_request naming
    // the cap, skipped through its newline, and leaves the connection
    // usable.  The longer line overflows the buffer well before its
    // newline arrives, and still gets exactly one reply.
    const std::string cap_error =
        "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes";
    DaemonHarness harness;
    for (const std::size_t bytes :
         {kMaxLineBytes + 1, kMaxLineBytes + 10000}) {
        writeAll(harness.fd(), std::string(bytes, 'x') + "\n");
        const std::string line = harness.readResponse();
        EXPECT_NE(line.find("\"bad_request\""), std::string::npos)
            << line;
        EXPECT_NE(line.find(cap_error), std::string::npos) << line;
    }

    // A line of exactly the cap is parsed (and fails as JSON).
    writeAll(harness.fd(), std::string(kMaxLineBytes, 'x') + "\n");
    const std::string line = harness.readResponse();
    EXPECT_NE(line.find("request parse error"), std::string::npos)
        << line.substr(0, 200);

    writeAll(harness.fd(), "{\"op\": \"ping\"}\n");
    EXPECT_NE(harness.readResponse().find("pong"), std::string::npos);
}

TEST(Daemon, HelloNegotiatesProtocol)
{
    DaemonHarness harness;

    // A bare hello negotiates the newest protocol.
    writeAll(harness.fd(), "{\"op\": \"hello\"}\n");
    std::string line = harness.readResponse();
    EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"hello\""), std::string::npos) << line;
    EXPECT_NE(line.find("[\"protocol\", \"2\"]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("[\"min_protocol\", \"1\"]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("[\"max_protocol\", \"2\"]"), std::string::npos)
        << line;
    EXPECT_NE(line.find("[\"server\", \"casimd\"]"), std::string::npos)
        << line;

    // An explicit supported version is echoed back.
    writeAll(harness.fd(), "{\"op\": \"hello\", \"protocol\": 1}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("[\"protocol\", \"1\"]"), std::string::npos)
        << line;

    // Out-of-range versions get the stable protocol_mismatch code.
    writeAll(harness.fd(), "{\"op\": \"hello\", \"protocol\": 99}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("unsupported protocol 99 (supported: 1..2)"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"protocol_mismatch\""),
              std::string::npos)
        << line;

    // A non-integer version is a malformed request, not a mismatch.
    writeAll(harness.fd(), "{\"op\": \"hello\", \"protocol\": 1.5}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"bad_request\""),
              std::string::npos)
        << line;
}

TEST(Daemon, ErrorRepliesCarryStableCodes)
{
    DaemonHarness harness;

    writeAll(harness.fd(), "{nope\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"bad_request\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(), "{\"op\": \"flush\"}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"unknown_op\""),
              std::string::npos)
        << line;

    // Per-slot validation errors keep the validate() message and add
    // the field-specific code.
    ExperimentRequest bad;
    bad.workload = "canneal";
    bad.config = testConfig();
    bad.policy = "lru2";
    writeAll(harness.fd(),
             "{\"op\": \"batch\", \"requests\": [" + bad.toJson() +
                 "]}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("invalid experiment request: unknown policy "
                        "'lru2'"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"unknown_policy\""),
              std::string::npos)
        << line;

    bad.policy = "lru";
    bad.workload = "cannealx";
    writeAll(harness.fd(), bad.toJson() + "\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("\"error_code\": \"unknown_workload\""),
              std::string::npos)
        << line;
}

TEST(Daemon, SweepExpandsCrossProductInOrder)
{
    ExperimentRequest base;
    base.workload = "canneal";
    base.config = testConfig();

    DaemonHarness harness;
    // The equivalent explicit batch, for byte-exact comparison.
    ExperimentRequest lru = base;
    ExperimentRequest srrip = base;
    srrip.policy = "srrip";
    writeAll(harness.fd(),
             "{\"op\": \"batch\", \"requests\": [" + lru.toJson() +
                 ", " + srrip.toJson() + "]}\n");
    const std::string batch_first = harness.readResponse();
    const std::string batch_second = harness.readResponse();

    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"policies\": [\"lru\", \"srrip\"]}\n");
    const std::string header = harness.readResponse();
    EXPECT_EQ(header.find("\"error\""), std::string::npos) << header;
    EXPECT_NE(header.find("[\"cells\", \"2\"]"), std::string::npos)
        << header;
    EXPECT_NE(header.find(
                  "[\"order\", \"workloads, policies, llc_bytes\"]"),
              std::string::npos)
        << header;
    // One result line per cell, policies in request order, identical
    // to the explicit batch byte for byte.
    EXPECT_EQ(harness.readResponse(), batch_first);
    EXPECT_EQ(harness.readResponse(), batch_second);
}

TEST(Daemon, SweepRejectsBadAxesAndOverCapExpansions)
{
    DaemonHarness harness;
    ExperimentRequest base;
    base.workload = "canneal";
    base.config = testConfig();

    writeAll(harness.fd(), "{\"op\": \"sweep\"}\n");
    std::string line = harness.readResponse();
    EXPECT_NE(line.find("op 'sweep' needs a 'base' request object"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"bad_request\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"polices\": [\"lru\"]}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("unknown sweep field 'polices'"),
              std::string::npos)
        << line;

    // Axis diagnostics name the axis, the index and the known values.
    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"policies\": [\"lru\", \"lru2\"]}\n");
    line = harness.readResponse();
    EXPECT_NE(line.find("sweep axis 'policies'[1]: unknown policy "
                        "'lru2'"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"unknown_policy\""),
              std::string::npos)
        << line;

    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"workloads\": []}\n");
    line = harness.readResponse();
    EXPECT_NE(
        line.find("sweep axis 'workloads' must be a non-empty array"),
        std::string::npos)
        << line;

    // An expansion beyond the cap is refused before any cell runs.
    std::string llc_bytes = "[";
    for (int i = 0; i < 1025; ++i)
        llc_bytes += (i ? ", " : "") + std::to_string(65536 + i * 64);
    llc_bytes += "]";
    writeAll(harness.fd(),
             "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                 ", \"llc_bytes\": " + llc_bytes + "}\n");
    line = harness.readResponse();
    EXPECT_NE(
        line.find("sweep expands to 1 x 1 x 1025 cells (cap 1024)"),
        std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error_code\": \"capacity\""),
              std::string::npos)
        << line;
}

TEST(Daemon, ConcurrentClientsShareTheResidentCache)
{
    ExperimentRequest request;
    request.workload = "streamcluster";
    request.config = testConfig();

    CaptureCache cache;
    ParallelRunner runner(2);
    ExperimentQueue local(cache, runner);
    const auto expected = local.run(request).toRows();

    ExperimentDaemon daemon(testConfig(), 2);
    constexpr int kClients = 3;
    int client_fds[kClients];
    std::vector<std::thread> servers;
    for (int c = 0; c < kClients; ++c) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_fds[c] = sv[0];
        const int server = sv[1];
        servers.emplace_back([&daemon, server] {
            daemon.serveConnection(server, server);
            ::close(server);
        });
    }

    std::vector<std::thread> clients;
    std::vector<std::string> replies(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const int fd = client_fds[c];
            std::string pending;
            std::string payload = request.toJson() + "\n";
            std::size_t done = 0;
            while (done < payload.size()) {
                const ssize_t n = ::write(fd, payload.data() + done,
                                          payload.size() - done);
                if (n <= 0)
                    break;
                done += static_cast<std::size_t>(n);
            }
            replies[c] = readLine(fd, pending);
            ::shutdown(fd, SHUT_WR);
        });
    }
    for (auto &t : clients)
        t.join();
    for (auto &t : servers)
        t.join();
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(decodeResponseDocument(replies[c]).toRows(),
                  expected);
        ::close(client_fds[c]);
    }

    // One capture identity: every client after the first resolved it
    // from the resident store.
    EXPECT_EQ(daemon.cache().counter("memo_hits"), kClients - 1u);
}

TEST(Daemon, ShutdownOpDrainsBufferedRequests)
{
    ExperimentRequest request;
    request.workload = "canneal";
    request.config = testConfig();

    DaemonHarness harness;
    // One write carrying a request, the shutdown op, and another
    // request behind it: all three lines were read before the stop
    // takes effect, so all three must be answered (no torn or dropped
    // documents) before the connection closes.
    writeAll(harness.fd(), request.toJson() + "\n" +
                               "{\"op\": \"shutdown\"}\n" +
                               request.toJson() + "\n");
    const std::string first = harness.readResponse();
    const std::string second = harness.readResponse();
    const std::string third = harness.readResponse();
    EXPECT_GT(decodeResponseDocument(first).misses, 0u);
    EXPECT_NE(second.find("shutting down"), std::string::npos);
    EXPECT_EQ(third, first);
    EXPECT_TRUE(harness.daemon().stopping());
    // EOF follows the drained responses.
    EXPECT_EQ(harness.readResponse(), "");
}

TEST(Daemon, ShutdownDrainsConcurrentBatches)
{
    ExperimentRequest canneal;
    canneal.workload = "canneal";
    canneal.config = testConfig();
    ExperimentRequest dedup;
    dedup.workload = "dedup";
    dedup.config = testConfig();

    ExperimentDaemon daemon(testConfig(), 2);
    constexpr int kClients = 3;
    int client_fds[kClients];
    std::vector<std::thread> servers;
    for (int c = 0; c < kClients; ++c) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        client_fds[c] = sv[0];
        const int server = sv[1];
        servers.emplace_back([&daemon, server] {
            daemon.serveConnection(server, server);
            ::shutdown(server, SHUT_RDWR);
        });
    }

    // Clients 1 and 2 submit two-cell batches with overlapping and
    // disjoint capture identities.
    writeAll(client_fds[1],
             "{\"op\": \"batch\", \"requests\": [" + canneal.toJson() +
                 ", " + dedup.toJson() + "]}\n");
    writeAll(client_fds[2],
             "{\"op\": \"batch\", \"requests\": [" + dedup.toJson() +
                 ", " + canneal.toJson() + "]}\n");

    // Wait until both batches are actually in the queue — the atomic
    // counters are readable mid-batch — so the shutdown below lands
    // while work is in flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto submitted = stats::counterValue(
            daemon.queue().stats().find("queue.submitted"));
        if (submitted.value_or(0) >= 4)
            break;
        std::this_thread::yield();
    }
    // The stats op renders the runner group mid-batch, under the
    // runner mutex its workers retire tasks under (TSan runs this).
    EXPECT_GE(statValue(daemon, "runner", "jobs"), 2.0);

    // Client 0 buffers a request and the shutdown in one write: its
    // request and both in-flight batches must all be answered with
    // complete documents before the connections close.
    writeAll(client_fds[0],
             canneal.toJson() + "\n{\"op\": \"shutdown\"}\n");

    std::string pending0, pending1, pending2;
    const std::string own = readLine(client_fds[0], pending0);
    EXPECT_GT(decodeResponseDocument(own).misses, 0u);
    EXPECT_NE(readLine(client_fds[0], pending0).find("shutting down"),
              std::string::npos);

    const std::string one_a = readLine(client_fds[1], pending1);
    const std::string one_b = readLine(client_fds[1], pending1);
    const std::string two_a = readLine(client_fds[2], pending2);
    const std::string two_b = readLine(client_fds[2], pending2);
    EXPECT_GT(decodeResponseDocument(one_a).misses, 0u);
    EXPECT_GT(decodeResponseDocument(two_b).misses, 0u);
    // The mirrored batches resolve to the same cells.
    EXPECT_EQ(decodeResponseDocument(one_a).toRows(),
              decodeResponseDocument(two_b).toRows());
    EXPECT_EQ(decodeResponseDocument(one_b).toRows(),
              decodeResponseDocument(two_a).toRows());

    EXPECT_TRUE(daemon.stopping());
    for (auto &thread : servers)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        ::close(client_fds[c]);
}

/** Threads of this process, counted from /proc/self/task. */
std::size_t
taskCount()
{
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator()));
}

/** Virtual memory size of this process in KiB, from /proc/self/status. */
std::uint64_t
vmSizeKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmSize:") {
            std::uint64_t kb = 0;
            status >> kb;
            return kb;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

TEST(Daemon, FinishedConnectionThreadsAreReaped)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("casimd_reap_" + std::to_string(::getpid()) + ".sock"))
            .string();
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::copy(path.begin(), path.end(), addr.sun_path);

    ExperimentDaemon daemon(testConfig(), 2);
    // The pool's workers plus the accept loop started below.
    const std::size_t tasks_serving = taskCount() + 1;
    std::thread server([&] { EXPECT_EQ(daemon.serveSocket(path), 0); });

    const auto settle = [](auto done) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!done() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return done();
    };
    const auto ping = [&] {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        bool pong = false;
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            writeAll(fd, "{\"op\": \"ping\"}\n");
            std::string pending;
            pong = readLine(fd, pending).find("pong") != std::string::npos;
        }
        if (fd >= 0)
            ::close(fd);
        return pong;
    };
    const auto live_handlers = [&] {
        return statValue(daemon, "casimd", "live_handlers");
    };
    // Runs the checks; the server is stopped and joined whatever they do.
    const auto check = [&] {
        // The first ping waits for the listener.
        ASSERT_TRUE(settle(ping));
        // Then kBurst handlers live at once.  A handler that overlaps
        // others gets its own glibc malloc arena (64 MiB of reserved
        // address space) and thread stack, and glibc keeps both for
        // reuse after the join.  Taking the baseline after the burst
        // puts those pools in it, so the bound below does not depend
        // on how many handlers the scheduler overlaps during the 64
        // pings.
        constexpr int kBurst = 8;
        std::vector<int> burst;
        for (int c = 0; c < kBurst; ++c) {
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            ASSERT_GE(fd, 0);
            burst.push_back(fd);
            ASSERT_EQ(::connect(fd,
                                reinterpret_cast<const sockaddr *>(&addr),
                                sizeof(addr)),
                      0);
            writeAll(fd, "{\"op\": \"ping\"}\n");
            std::string pending;
            ASSERT_NE(readLine(fd, pending).find("pong"), std::string::npos);
        }
        for (const int fd : burst)
            ::close(fd);
        // Once every handler is joined, the address space is the
        // baseline.
        ASSERT_TRUE(settle([&] { return live_handlers() == 0; }))
            << live_handlers() << " connection threads not joined";
        ASSERT_TRUE(settle([&] { return taskCount() <= tasks_serving; }));
        const std::uint64_t vm_before = vmSizeKb();

        constexpr int kConnections = 64;
        for (int c = 0; c < kConnections; ++c)
            ASSERT_TRUE(ping()) << "connection " << c;

        // Each handler is joined on the accept loop's next poll
        // iteration, and the gauge counts the handlers not yet joined:
        // it must return exactly to 0.
        EXPECT_TRUE(settle([&] { return live_handlers() == 0; }))
            << live_handlers() << " connection threads not joined";
        // The same from outside the daemon.  An exited but unjoined
        // thread has already left /proc/self/task, yet its 8 MiB stack
        // stays mapped until the join: the address-space bound catches
        // a server that never reaps (64 x 8 MiB).
        constexpr std::size_t kSlackTasks = 2;
        EXPECT_TRUE(settle([&] {
            return taskCount() <= tasks_serving + kSlackTasks;
        })) << taskCount() << " tasks, " << tasks_serving << " serving";
        constexpr std::uint64_t kSlackKb = 128 << 10;
        EXPECT_LE(vmSizeKb(), vm_before + kSlackKb);
    };
    check();
    daemon.requestStop();
    server.join();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Daemon, DecodeResponseDocumentIsFatalOnErrorReply)
{
    std::string line;
    {
        // Scoped so the connection thread is joined before the death
        // test forks.
        DaemonHarness harness;
        writeAll(harness.fd(), "{\"op\": \"nope\"}\n");
        line = harness.readResponse();
    }
    EXPECT_DEATH(decodeResponseDocument(line), "casimd: unknown op");
}

} // namespace
} // namespace casim
