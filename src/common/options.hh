/**
 * @file
 * Minimal command-line option parsing for bench and example binaries.
 *
 * Accepts `--key=value` and bare `--flag` arguments.  Unrecognised keys
 * are tolerated at parse time (binaries run under generic harnesses) but
 * can be checked with unknownKeys().
 */

#ifndef CASIM_COMMON_OPTIONS_HH
#define CASIM_COMMON_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace casim {

/** Parsed `--key=value` command line. */
class Options
{
  public:
    /** Parse argv; arguments not starting with "--" are positional. */
    Options(int argc, const char *const *argv);

    /** True iff --key (with or without a value) was given. */
    bool has(const std::string &key) const;

    /** String value of --key, or fallback when absent. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Unsigned value of --key, or fallback; fatal on parse failure. */
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;

    /** Double value of --key, or fallback; fatal on parse failure. */
    double getDouble(const std::string &key, double fallback) const;

    /** Boolean: bare --key, or --key=true/false/1/0. */
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * Worker count for parallel experiment phases: --jobs=N if given,
     * else the hardware concurrency.  Always >= 1; --jobs=1 selects the
     * exact serial code path.
     */
    unsigned jobs() const;

    /** Positional (non --) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace casim

#endif // CASIM_COMMON_OPTIONS_HH
