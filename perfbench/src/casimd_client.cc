/**
 * @file
 * casimd child-process lifecycle and the raw protocol connection.
 */

#include "casimd_client.hh"

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util.hh"

namespace perfbench {

namespace {

/**
 * Pids of running daemons, read by the exit hook and the signal
 * handler; lock-free so the handler may scan it.
 */
std::array<std::atomic<pid_t>, 16> liveChildren{};

void
killLiveChildren()
{
    for (std::atomic<pid_t> &slot : liveChildren) {
        const pid_t pid = slot.exchange(-1);
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
}

extern "C" void
onFatalSignal(int sig)
{
    killLiveChildren();
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

/** Install the exit hook and signal handlers once. */
void
installReaper()
{
    static const bool installed = [] {
        for (std::atomic<pid_t> &slot : liveChildren)
            slot.store(-1);
        std::atexit(killLiveChildren);
        std::signal(SIGINT, onFatalSignal);
        std::signal(SIGTERM, onFatalSignal);
        // A daemon that closes its socket must not kill the client.
        std::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)installed;
}

void
trackChild(pid_t pid)
{
    for (std::atomic<pid_t> &slot : liveChildren) {
        pid_t expected = -1;
        if (slot.compare_exchange_strong(expected, pid))
            return;
    }
}

void
untrackChild(pid_t pid)
{
    for (std::atomic<pid_t> &slot : liveChildren) {
        pid_t expected = pid;
        if (slot.compare_exchange_strong(expected, -1))
            return;
    }
}

} // namespace

CasimdProcess::~CasimdProcess()
{
    kill();
}

bool
CasimdProcess::start(const std::string &binary, const std::string &socket,
                     const std::string &capture_dir, unsigned jobs,
                     std::string *why)
{
    installReaper();
    const std::string socket_arg = "--socket=" + socket;
    const std::string dir_arg = "--capture-dir=" + capture_dir;
    const std::string jobs_arg = "--jobs=" + std::to_string(jobs);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        *why = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        // Die with the benchmark, whatever kills it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        ::execl(binary.c_str(), binary.c_str(), socket_arg.c_str(),
                dir_arg.c_str(), jobs_arg.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    pid_ = pid;
    trackChild(pid);
    return true;
}

int
CasimdProcess::waitExit(double timeout_s)
{
    if (pid_ < 0)
        return -1;
    const double deadline = monoSeconds() + timeout_s;
    int status = 0;
    while (true) {
        const pid_t done = ::waitpid(pid_, &status, WNOHANG);
        if (done == pid_)
            break;
        if (done < 0 || monoSeconds() > deadline) {
            kill();
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    untrackChild(pid_);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
CasimdProcess::kill()
{
    if (pid_ < 0)
        return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    untrackChild(pid_);
    pid_ = -1;
}

CasimdConnection::~CasimdConnection()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
CasimdConnection::connect(const std::string &path, double timeout_s)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const double deadline = monoSeconds() + timeout_s;
    while (true) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            return false;
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return true;
        ::close(fd_);
        fd_ = -1;
        if (monoSeconds() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

bool
CasimdConnection::sendLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
CasimdConnection::readLine(std::string &line, double timeout_s)
{
    if (fd_ < 0)
        return false;
    const double deadline = monoSeconds() + timeout_s;
    while (true) {
        const std::size_t newline = pending_.find('\n');
        if (newline != std::string::npos) {
            line.assign(pending_, 0, newline);
            pending_.erase(0, newline + 1);
            return true;
        }
        const double left = deadline - monoSeconds();
        if (left <= 0.0)
            return false;
        pollfd pfd{fd_, POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return false;
        char buffer[1 << 16];
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        pending_.append(buffer, static_cast<std::size_t>(n));
    }
}

} // namespace perfbench
