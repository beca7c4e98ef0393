/**
 * @file
 * A casimd child process and raw newline-JSON connections to it.
 *
 * The benchmark talks the wire protocol itself instead of going through
 * casim::DaemonClient, because DaemonClient is fatal on an error reply
 * and the benchmark must count a failure and carry on.  Every daemon
 * this file starts is killed when its owner goes out of scope, when the
 * process exits through exit() (casim_fatal), on SIGINT/SIGTERM, and by
 * the kernel if the benchmark dies outright (PR_SET_PDEATHSIG), so no
 * daemon outlives a run.
 */

#ifndef CASIM_PERFBENCH_CASIMD_CLIENT_HH
#define CASIM_PERFBENCH_CASIMD_CLIENT_HH

#include <string>

#include <sys/types.h>

namespace perfbench {

/** One casimd child process. */
class CasimdProcess
{
  public:
    CasimdProcess() = default;
    ~CasimdProcess();

    CasimdProcess(const CasimdProcess &) = delete;
    CasimdProcess &operator=(const CasimdProcess &) = delete;

    /**
     * Start `binary --socket=SOCKET --capture-dir=DIR --jobs=N`, with
     * its stdout sent to this process's stderr.  False (with *why) when
     * the fork or exec fails.
     */
    bool start(const std::string &binary, const std::string &socket,
               const std::string &capture_dir, unsigned jobs,
               std::string *why);

    /** Child pid, or -1 when none is running. */
    pid_t pid() const { return pid_; }

    /**
     * Wait up to `timeout_s` for the child to exit and reap it.
     * Returns its exit code; -1 when it was killed by a signal or did
     * not exit in time (it is then killed).
     */
    int waitExit(double timeout_s);

    /** SIGKILL the child (if running) and reap it. */
    void kill();

  private:
    pid_t pid_ = -1;
};

/** One client connection speaking newline-delimited JSON. */
class CasimdConnection
{
  public:
    CasimdConnection() = default;
    ~CasimdConnection();

    CasimdConnection(const CasimdConnection &) = delete;
    CasimdConnection &operator=(const CasimdConnection &) = delete;

    /**
     * Connect to the Unix socket at `path`, retrying until `timeout_s`
     * passes (the daemon may still be booting).
     */
    bool connect(const std::string &path, double timeout_s);

    /** Send one line (a newline is appended). */
    bool sendLine(const std::string &line);

    /**
     * Read one response line into `line`; false on EOF, error or when
     * nothing arrives within `timeout_s`.
     */
    bool readLine(std::string &line, double timeout_s);

  private:
    int fd_ = -1;
    std::string pending_;
};

} // namespace perfbench

#endif // CASIM_PERFBENCH_CASIMD_CLIENT_HH
