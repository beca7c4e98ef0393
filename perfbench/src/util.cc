/**
 * @file
 * Implementation of the shared helpers.
 */

#include "util.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char escaped[8];
                std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                              static_cast<unsigned>(c));
                out += escaped;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

std::uint64_t
peakRssBytes(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::istringstream status(readTextFile(path));
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    }
    return 0;
}

bool
resetPeakRss()
{
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace perfbench
