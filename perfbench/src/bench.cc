/**
 * @file
 * Shared implementation: cells, digests, checks, the report and the
 * traced layer-by-layer pipeline.
 */

#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/hash.hh"
#include "mem/repl/factory.hh"
#include "sim/experiment.hh"
#include "stats_math.hh"
#include "util.hh"
#include "wgen/registry.hh"

namespace perfbench {

using casim::CapturedWorkload;
using casim::ExperimentRequest;
using casim::ExperimentResult;
using casim::StudyConfig;

Sizes
sizesFor(const Settings &settings)
{
    // Warm sizes: at scale 0.05 the captures span 0.4-1.2 MB, so a
    // 256 KiB LLC evicts on every workload while 4 MiB holds them all.
    if (settings.smoke)
        return {0.01, 0.01, 32 * 1024, 4 * 1024 * 1024};
    return {0.1, 0.05, 256 * 1024, 4 * 1024 * 1024};
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const casim::WorkloadInfo &info : casim::allWorkloads())
        names.push_back(info.name);
    return names;
}

StudyConfig
studyConfig(double scale, std::uint64_t seed, std::uint64_t small_bytes,
            std::uint64_t large_bytes)
{
    StudyConfig config;
    config.workload.scale = scale;
    config.workload.seed = seed;
    config.llcSmallBytes = small_bytes;
    config.llcLargeBytes = large_bytes;
    return config;
}

ExperimentRequest
makeCell(const std::string &kind, const std::string &workload,
         const std::string &policy, std::uint64_t llc_bytes,
         const StudyConfig &config)
{
    ExperimentRequest cell;
    cell.kind = kind;
    cell.workload = workload;
    cell.config = config;
    if (kind == "capture")
        return cell;
    cell.llcBytes = llc_bytes;
    const std::size_t plus = policy.find("+oracle");
    cell.policy = policy.substr(0, plus);
    if (plus != std::string::npos)
        cell.labeler = "oracle";
    return cell;
}

std::string
bytesLabel(std::uint64_t bytes)
{
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        return std::to_string(bytes / (1024 * 1024)) + "MiB";
    return std::to_string(bytes / 1024) + "KiB";
}

std::string
cellLabel(const ExperimentRequest &cell)
{
    if (cell.kind == "capture")
        return cell.workload + " capture";
    const std::string policy =
        cell.labeler.empty() ? cell.policy : cell.policy + "+" + cell.labeler;
    return cell.workload + " " + policy + " @" +
           bytesLabel(cell.effectiveLlcBytes());
}

std::uint64_t
resultDigest(const ExperimentResult &result)
{
    casim::Fnv1a64 hasher;
    for (const std::vector<std::string> &row : result.toRows())
        for (const std::string &field : row)
            hasher.update(std::string_view(field));
    return hasher.digest();
}

void
Checks::fail(const std::string &why)
{
    ++failed_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (messages_.size() < 20)
        messages_.push_back(why);
}

std::vector<std::string>
Checks::messages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
}

void
ResultBook::record(const ExperimentRequest &cell,
                   const ExperimentResult &result, const std::string &path,
                   Checks &checks)
{
    const std::string key = cell.toJson();
    const std::uint64_t digest = resultDigest(result);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = digests_.emplace(key, digest);
    if (inserted) {
        results_.emplace(key, result);
    } else if (it->second != digest) {
        checks.fail("result of " + cellLabel(cell) + " via " + path +
                    " differs from its first result");
    }
}

void
ResultBook::recordBatch(const std::vector<ExperimentRequest> &cells,
                        const std::vector<ExperimentResult> &results,
                        const std::string &path, Checks &checks)
{
    checks.attempt();
    if (results.size() != cells.size()) {
        checks.fail(path + " returned " + std::to_string(results.size()) +
                    " results for " + std::to_string(cells.size()) +
                    " cells");
        return;
    }
    for (std::size_t i = 0; i < cells.size(); ++i)
        record(cells[i], results[i], path, checks);
}

const ExperimentResult *
ResultBook::find(const ExperimentRequest &cell) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = results_.find(cell.toJson());
    return it == results_.end() ? nullptr : &it->second;
}

void
ResultBook::checkOptBound(const std::vector<ExperimentRequest> &cells,
                          Checks &checks) const
{
    // (workload, capacity) -> OPT misses and the other policies' misses.
    std::map<std::pair<std::string, std::uint64_t>,
             std::pair<const ExperimentRequest *,
                       std::vector<const ExperimentRequest *>>>
        groups;
    for (const ExperimentRequest &cell : cells) {
        if (cell.kind != "replay")
            continue;
        auto &group = groups[{cell.workload, cell.effectiveLlcBytes()}];
        if (cell.policy == "opt" && cell.labeler.empty())
            group.first = &cell;
        else
            group.second.push_back(&cell);
    }
    for (const auto &[key, group] : groups) {
        if (group.first == nullptr || group.second.empty())
            continue;
        checks.attempt();
        const ExperimentResult *opt = find(*group.first);
        if (opt == nullptr) {
            checks.fail("no OPT result for " + cellLabel(*group.first));
            continue;
        }
        for (const ExperimentRequest *other : group.second) {
            const ExperimentResult *result = find(*other);
            if (result != nullptr && result->misses < opt->misses) {
                checks.fail(cellLabel(*other) + " misses " +
                            std::to_string(result->misses) +
                            " < OPT's " + std::to_string(opt->misses));
                break;
            }
        }
    }
}

double
meanOracleReduction(const std::vector<ExperimentRequest> &cells,
                    const ResultBook &book, std::uint64_t llc_bytes)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const ExperimentRequest &cell : cells) {
        if (cell.kind != "replay" || cell.policy != "lru" ||
            cell.labeler != "oracle" ||
            cell.effectiveLlcBytes() != llc_bytes)
            continue;
        ExperimentRequest lru = cell;
        lru.labeler.clear();
        const ExperimentResult *with = book.find(cell);
        const ExperimentResult *without = book.find(lru);
        if (with == nullptr || without == nullptr || without->misses == 0)
            continue;
        sum += 1.0 - static_cast<double>(with->misses) /
                         static_cast<double>(without->misses);
        ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::pair<std::size_t, std::size_t>
workloadsWherePoliciesDiffer(const std::vector<ExperimentRequest> &cells,
                             const ResultBook &book,
                             std::uint64_t llc_bytes)
{
    std::map<std::string, std::pair<std::uint64_t, bool>> lru_and_differ;
    for (const ExperimentRequest &cell : cells) {
        if (cell.kind == "replay" && cell.policy == "lru" &&
            cell.labeler.empty() && cell.effectiveLlcBytes() == llc_bytes)
            if (const ExperimentResult *result = book.find(cell))
                lru_and_differ[cell.workload] = {result->misses, false};
    }
    for (const ExperimentRequest &cell : cells) {
        if (cell.kind != "replay" || cell.effectiveLlcBytes() != llc_bytes)
            continue;
        const auto it = lru_and_differ.find(cell.workload);
        const ExperimentResult *result = book.find(cell);
        if (it != lru_and_differ.end() && result != nullptr &&
            result->misses != it->second.first)
            it->second.second = true;
    }
    std::size_t differ = 0;
    for (const auto &[name, entry] : lru_and_differ)
        differ += entry.second ? 1 : 0;
    return {differ, lru_and_differ.size()};
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    metrics_.push_back({name, value, unit});
    char text[64];
    std::snprintf(text, sizeof(text), "%.6g", value);
    std::cout << "metric " << name << " = " << text << " " << unit;
    if (!note.empty())
        std::cout << "  (" << note << ")";
    std::cout << "\n";
}

void
Report::line(const std::string &text)
{
    std::cout << text << "\n";
}

void
Report::timing(const std::string &what, const std::vector<double> &values,
               const std::string &unit, double scale)
{
    if (values.empty()) {
        line(what + ": no samples");
        return;
    }
    std::vector<double> scaled;
    for (const double v : values)
        scaled.push_back(v * scale);
    char text[200];
    if (scaled.size() >= 2) {
        const std::vector<double> q = quartiles(scaled);
        std::snprintf(text, sizeof(text),
                      "%s: median %.4g %s, quartiles %.4g..%.4g, n=%zu",
                      what.c_str(), median(scaled), unit.c_str(), q[0],
                      q[2], scaled.size());
    } else {
        std::snprintf(text, sizeof(text), "%s: %.4g %s, n=1",
                      what.c_str(), scaled[0], unit.c_str());
    }
    line(text);
}

void
Report::finish(const Checks &checks) const
{
    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " +
           std::to_string(std::max<std::uint64_t>(1, checks.attempted()));
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += jsonString(metrics_[i].name) + ": {\"value\": " +
               jsonNumber(metrics_[i].value) +
               ", \"unit\": " + jsonString(metrics_[i].unit) + "}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

std::shared_ptr<const CapturedWorkload>
captureCold(SpanRecorder *recorder, const std::string &name,
            const StudyConfig &config)
{
    auto captured = std::make_shared<CapturedWorkload>();
    captured->info = casim::workloadInfo(name);
    casim::Trace trace{"", 1};
    {
        Span span(recorder, "wgen.generate", name);
        trace = casim::makeWorkloadTrace(name, config.workload);
        captured->demandAccesses = trace.size();
        captured->footprintBlocks = trace.footprintBlocks();
        span.count("refs", static_cast<double>(trace.size()));
    }
    {
        Span span(recorder, "mem.hierarchy", name);
        captured->stream =
            casim::Trace(name + ".llc", config.workload.threads);
        captured->hierarchy = casim::runHierarchy(
            trace, casim::captureHierarchyConfig(config),
            casim::requirePolicyFactory("lru"), &captured->stream);
        span.count("refs", static_cast<double>(trace.size()));
        span.count("llc_refs",
                   static_cast<double>(captured->stream.size()));
    }
    return captured;
}

PlanePairs
planesFor(const ExperimentRequest &cell)
{
    if (cell.labeler != "oracle" && !cell.evaluate)
        return {};
    const std::uint64_t bytes = cell.effectiveLlcBytes();
    const casim::SeqNo window = cell.config.oracleWindow(bytes);
    const casim::SeqNo near = cell.config.oracleNearWindow(bytes);
    return {{window, near == 0 ? window : near}};
}

void
warmIndex(SpanRecorder *recorder, const CapturedWorkload &workload,
          const PlanePairs &planes)
{
    const std::string &name = workload.info.name;
    const casim::NextUseIndex *index = nullptr;
    {
        Span span(recorder, "trace.next_use", name);
        index = &workload.nextUse();
        span.count("refs", static_cast<double>(workload.stream.size()));
    }
    for (const auto &[window, near] : planes) {
        Span span(recorder, "core.label_plane", name);
        index->labelPlane(window, near);
        span.count("refs", static_cast<double>(workload.stream.size()));
    }
}

namespace {

/** A workload's capture fingerprint and its bundle path. */
std::pair<std::uint64_t, std::string>
bundleOf(const std::string &name, const StudyConfig &config)
{
    const std::uint64_t hash = casim::captureConfigHash(
        name, config.workload, casim::captureHierarchyConfig(config));
    return {hash, casim::captureCachePath(config.captureDir, name, hash)};
}

} // namespace

bool
saveBundle(SpanRecorder *recorder, casim::CaptureCache &cache,
           const std::string &name, const StudyConfig &config,
           const CapturedWorkload &workload)
{
    // The same aux captureWorkload persists: the next-use chain plus
    // one label plane per study oracle window.
    casim::CaptureAux aux;
    const casim::NextUseIndex &index = workload.nextUse();
    aux.nextUse.assign(index.chainData(), index.chainData() + index.size());
    for (const auto &[window, near] : casim::studyOracleWindows(config)) {
        const auto &plane = index.labelPlane(window, near);
        aux.planes.push_back(
            {window, near,
             std::vector<std::uint8_t>(plane.codes.begin(),
                                       plane.codes.end())});
    }
    Span span(recorder, "trace.bundle.save", name);
    const auto [hash, path] = bundleOf(name, config);
    return cache.save(path, hash, workload, &aux);
}

std::shared_ptr<const CapturedWorkload>
loadBundle(SpanRecorder *recorder, casim::CaptureCache &cache,
           const std::string &name, const StudyConfig &config,
           std::string *why)
{
    auto loaded = std::make_shared<CapturedWorkload>();
    Span span(recorder, "trace.bundle.load", name);
    const auto [hash, path] = bundleOf(name, config);
    if (!cache.load(path, hash, *loaded, why))
        return nullptr;
    loaded->info = casim::workloadInfo(name);
    span.count("refs", static_cast<double>(loaded->stream.size()));
    return loaded;
}

namespace {

/** Span name of a cell's execution: its replay class, or capture. */
std::string
cellSpanName(const ExperimentRequest &cell)
{
    if (cell.kind == "capture")
        return "sim.capture_cell";
    if (cell.policy == "opt")
        return "sim.replay.opt";
    return cell.labeler.empty() ? "sim.replay.plain" : "sim.replay.oracle";
}

} // namespace

std::vector<ExperimentResult>
pipelineBatch(SpanRecorder *recorder, casim::ParallelRunner &runner,
              const std::vector<ExperimentRequest> &requests,
              CaptureSet &captures)
{
    Span batch(recorder, "sim.queue.batch");
    for (const ExperimentRequest &request : requests)
        request.requireValid();

    // Dedupe on the canonical JSON, as the queue does.
    std::vector<std::size_t> slot_of;
    std::vector<const ExperimentRequest *> unique;
    {
        Span encode(recorder, "sim.request.encode");
        std::map<std::string, std::size_t> by_key;
        double bytes = 0.0;
        for (const ExperimentRequest &request : requests) {
            std::string key = request.toJson();
            bytes += static_cast<double>(key.size());
            const auto [it, inserted] =
                by_key.emplace(std::move(key), unique.size());
            if (inserted)
                unique.push_back(&request);
            slot_of.push_back(it->second);
        }
        encode.count("bytes", bytes);
    }

    // One warm task per workload: cold capture when it is not yet
    // held, then the index and planes (memo hits when adopted).
    struct WarmPlan
    {
        const StudyConfig *config = nullptr;
        bool index = false;
        PlanePairs planes;
    };
    std::vector<std::string> names;
    std::map<std::string, WarmPlan> plan_of;
    for (const ExperimentRequest *request : unique) {
        WarmPlan &plan = plan_of[request->workload];
        if (plan.config == nullptr) {
            plan.config = &request->config;
            names.push_back(request->workload);
        }
        plan.index = plan.index || request->policy == "opt" ||
                     request->kind == "awareness" ||
                     request->labeler == "oracle" || request->evaluate;
        for (const auto &pair : planesFor(*request))
            if (std::find(plan.planes.begin(), plan.planes.end(), pair) ==
                plan.planes.end())
                plan.planes.push_back(pair);
    }
    std::vector<std::shared_ptr<const CapturedWorkload>> warmed(
        names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto it = captures.find(names[i]);
        if (it != captures.end())
            warmed[i] = it->second;
    }
    const int batch_id = batch.id();
    runner.run(names.size(), [&](std::size_t i) {
        Span warm(recorder, "sim.queue.warm", names[i], batch_id);
        const WarmPlan &plan = plan_of.at(names[i]);
        if (warmed[i] == nullptr)
            warmed[i] = captureCold(recorder, names[i], *plan.config);
        if (plan.index)
            warmIndex(recorder, *warmed[i], plan.planes);
    });
    std::map<std::string, const CapturedWorkload *> by_name;
    for (std::size_t i = 0; i < names.size(); ++i) {
        captures[names[i]] = warmed[i];
        by_name[names[i]] = warmed[i].get();
    }

    const auto unique_results = runner.map<ExperimentResult>(
        unique.size(), [&](std::size_t u) {
            const ExperimentRequest &cell = *unique[u];
            Span span(recorder, cellSpanName(cell), cellLabel(cell),
                      batch_id);
            ExperimentResult result =
                casim::executeCell(cell, *by_name.at(cell.workload),
                                   &runner);
            const std::string cap = bytesLabel(cell.effectiveLlcBytes());
            span.count("refs", static_cast<double>(result.streamRefs));
            span.count("refs@" + cap,
                       static_cast<double>(result.streamRefs));
            span.count("misses@" + cap, static_cast<double>(result.misses));
            return result;
        });

    std::vector<ExperimentResult> results;
    results.reserve(requests.size());
    for (const std::size_t u : slot_of)
        results.push_back(unique_results[u]);
    return results;
}

} // namespace perfbench
