/**
 * @file
 * Span recorder implementation and the Chrome trace-event writer.
 */

#include "spans.hh"

#include <cstdio>
#include <fstream>

#include "stats_math.hh"
#include "util.hh"

namespace perfbench {

namespace {

/** Innermost open span of each thread, for kInherit parents. */
thread_local std::vector<int> tlsOpen;

} // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::trackOfLocked(std::thread::id thread)
{
    const auto [it, inserted] =
        tracks_.emplace(thread, static_cast<int>(trackNames_.size()));
    if (inserted)
        trackNames_.push_back("worker " + std::to_string(it->second));
    return it->second;
}

int
SpanRecorder::open(const std::string &name, const std::string &cell,
                   int parent)
{
    if (parent == kInherit)
        parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    const double begin = now();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord record;
    record.name = name;
    record.begin = begin;
    record.parent = parent;
    record.track = trackOfLocked(std::this_thread::get_id());
    record.cell = cell;
    record.phase = phase_;
    spans_.push_back(std::move(record));
    const int id = static_cast<int>(spans_.size()) - 1;
    tlsOpen.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    const double end = now();
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end = end;
}

void
SpanRecorder::count(int id, const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).counts[key] += value;
}

void
SpanRecorder::nameTrack(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int track = trackOfLocked(std::this_thread::get_id());
    trackNames_[static_cast<std::size_t>(track)] = label;
}

void
SpanRecorder::setPhase(const std::string &phase)
{
    std::lock_guard<std::mutex> lock(mutex_);
    phase_ = phase;
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanRecorder::writeChromeTrace(
    const std::string &path,
    const std::map<std::string, std::string> &metadata) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        sep();
        os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
              "\"tid\": "
           << t << ", \"args\": {\"name\": " << jsonString(trackNames_[t])
           << "}}";
    }
    char number[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &span = spans_[i];
        if (span.end < 0.0)
            continue;
        sep();
        std::snprintf(number, sizeof(number),
                      "\"ts\": %.3f, \"dur\": %.3f", span.begin * 1e6,
                      (span.end - span.begin) * 1e6);
        os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << span.track
           << ", \"name\": " << jsonString(span.name)
           << ", \"cat\": " << jsonString(span.phase) << ", " << number
           << ", \"args\": {\"id\": " << i << ", \"parent\": "
           << span.parent << ", \"cell\": " << jsonString(span.cell)
           << "}}";
    }
    os << "\n], \"otherData\": {";
    first = true;
    for (const auto &[key, value] : metadata) {
        sep();
        os << jsonString(key) << ": " << jsonString(value);
    }
    os << "}}\n";
    return static_cast<bool>(os.flush());
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<SpanRecord> &spans, const std::string &phase)
{
    std::vector<std::vector<Interval>> children(spans.size());
    for (const SpanRecord &span : spans) {
        if (span.parent >= 0 && span.end >= 0.0)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.begin, span.end});
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        if (span.end < 0.0 || (!phase.empty() && span.phase != phase))
            continue;
        LayerTime &layer = out[span.name];
        ++layer.count;
        layer.busy += span.end - span.begin;
        layer.self += selfTime({span.begin, span.end}, children[i]);
        for (const auto &[key, value] : span.counts)
            layer.counts[key] += value;
    }
    return out;
}

} // namespace perfbench
