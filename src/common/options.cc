/**
 * @file
 * Implementation of command-line option parsing.
 */

#include "common/options.hh"

#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace casim {

Options::Options(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq == std::string::npos)
            values_[body] = "";
        else
            values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
}

bool
Options::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Options::getString(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
Options::getUint(const std::string &key, std::uint64_t fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        casim_fatal("option --", key, " expects an integer, got '",
                    it->second, "'");
    return v;
}

double
Options::getDouble(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        casim_fatal("option --", key, " expects a number, got '",
                    it->second, "'");
    return v;
}

unsigned
Options::jobs() const
{
    const std::uint64_t jobs =
        getUint("jobs", std::thread::hardware_concurrency());
    return jobs == 0 ? 1 : static_cast<unsigned>(jobs);
}

bool
Options::getBool(const std::string &key, bool fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    if (v.empty() || v == "1" || v == "true" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "no")
        return false;
    casim_fatal("option --", key, " expects a boolean, got '", v, "'");
}

} // namespace casim
