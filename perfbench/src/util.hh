/**
 * @file
 * Small helpers shared by the benchmark's sources: JSON string quoting,
 * a monotonic clock and /proc readings.
 */

#ifndef CASIM_PERFBENCH_UTIL_HH
#define CASIM_PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>

#include <sys/types.h>

namespace perfbench {

/** `text` as a quoted JSON string. */
std::string jsonString(const std::string &text);

/** A JSON number with every significant digit (%.17g). */
std::string jsonNumber(double value);

/** Seconds on the monotonic clock. */
inline double
monoSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Peak resident set (VmHWM) of process `pid` (0 = this process) in
 * bytes, or 0 when /proc cannot be read.
 */
std::uint64_t peakRssBytes(pid_t pid = 0);

/**
 * Reset this process's VmHWM to its current RSS (clear_refs "5"), so a
 * peak reached while preparing inputs is not charged to the timed work.
 * Returns false where the kernel refuses.
 */
bool resetPeakRss();

/** Whole contents of a text file, empty when unreadable. */
std::string readTextFile(const std::string &path);

} // namespace perfbench

#endif // CASIM_PERFBENCH_UTIL_HH
