/**
 * @file
 * Per-layer report of the traced run and the end-to-end report of the
 * in-process workloads.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "stats_math.hh"
#include "util.hh"

namespace perfbench {

namespace {

/** Totals of a group of span names, from one phase selection. */
struct Group
{
    LayerTime total;
    std::map<std::string, LayerTime> byName;
    double divisor = 1.0;
    std::string note;
};

/**
 * The named spans from the timed phase (per traced batch) when the
 * timed phase has any, else from the whole run.
 */
Group
pick(const std::map<std::string, LayerTime> &timed,
     const std::map<std::string, LayerTime> &all,
     const std::vector<std::string> &names, unsigned iterations)
{
    bool in_timed = false;
    for (const std::string &name : names)
        in_timed = in_timed || timed.count(name) != 0;
    const auto &source = in_timed ? timed : all;
    Group group;
    group.divisor = in_timed ? std::max(1u, iterations) : 1.0;
    group.note = in_timed ? "timed phase, per batch"
                          : "bypassed in the timed phase; measured over "
                            "prep/setup/check";
    for (const std::string &name : names) {
        const auto it = source.find(name);
        if (it == source.end())
            continue;
        group.byName[name] = it->second;
        group.total.count += it->second.count;
        group.total.busy += it->second.busy;
        group.total.self += it->second.self;
        for (const auto &[key, value] : it->second.counts)
            group.total.counts[key] += value;
    }
    return group;
}

double
rate(double work, double seconds)
{
    return seconds > 0.0 ? work / seconds : 0.0;
}

double
countOf(const LayerTime &layer, const std::string &key)
{
    const auto it = layer.counts.find(key);
    return it == layer.counts.end() ? 0.0 : it->second;
}

double
medianOr0(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : median(values);
}

} // namespace

void
reportLayers(const std::vector<SpanRecord> &spans,
             const LayerCounts &counts, Report &report)
{
    // Self-time table: every span name in every phase.
    report.line("-- layer self time (busy = summed span time; self = busy "
                "minus child-span coverage) --");
    for (const char *phase : {"prep", "setup", "timed", "check"}) {
        for (const auto &[name, layer] : layerTimes(spans, phase)) {
            char text[200];
            std::snprintf(text, sizeof(text),
                          "  %-6s %-22s n=%-6zu busy %9.4f s  self %9.4f s",
                          phase, name.c_str(), layer.count, layer.busy,
                          layer.self);
            report.line(text);
        }
    }

    const auto timed = layerTimes(spans, "timed");
    const auto all = layerTimes(spans);
    const unsigned iters = counts.timedIterations;
    const auto group = [&](std::vector<std::string> names) {
        return pick(timed, all, names, iters);
    };

    const Group wgen = group({"wgen.generate"});
    report.metric("wgen.busy_s", wgen.total.busy / wgen.divisor, "s",
                  wgen.note);
    report.metric("wgen.refs_per_s",
                  rate(countOf(wgen.total, "refs"), wgen.total.busy), "1/s");

    const Group mem = group({"mem.hierarchy"});
    report.metric("mem.hierarchy.busy_s", mem.total.busy / mem.divisor, "s",
                  mem.note);
    report.metric("mem.hierarchy.refs_per_s",
                  rate(countOf(mem.total, "refs"), mem.total.busy), "1/s");
    report.metric("mem.hierarchy.llc_refs",
                  countOf(mem.total, "llc_refs") / mem.divisor, "count");

    const Group next = group({"trace.next_use"});
    report.metric("trace.next_use.busy_s", next.total.busy / next.divisor,
                  "s", next.note);
    report.metric("trace.next_use.refs_per_s",
                  rate(countOf(next.total, "refs"), next.total.busy), "1/s");

    const Group planes = group({"core.label_plane"});
    report.metric("core.label_plane.busy_s",
                  planes.total.busy / planes.divisor, "s", planes.note);
    report.metric("core.label_plane.builds", counts.planeBuilds, "count",
                  counts.planesFrom);
    const double lookups = counts.planeBuilds + counts.planeMemoHits;
    report.metric("core.label_plane.reuse_ratio",
                  lookups > 0.0 ? counts.planeMemoHits / lookups : 0.0,
                  "ratio", counts.planesFrom);

    const Group save = group({"trace.bundle.save"});
    report.metric("trace.bundle.save_s", save.total.busy / save.divisor, "s",
                  save.note);
    const Group load = group({"trace.bundle.load"});
    report.metric("trace.bundle.load_s", load.total.busy / load.divisor, "s",
                  load.note);
    report.metric("trace.bundle.bytes_mapped", counts.bytesMapped, "bytes",
                  "capture_cache.bytes_mapped of the traced bundle loads");

    const Group replay = group(
        {"sim.replay.plain", "sim.replay.opt", "sim.replay.oracle"});
    report.metric("sim.replay.busy_s", replay.total.busy / replay.divisor,
                  "s", replay.note);
    for (const char *kind : {"plain", "opt", "oracle"}) {
        const auto it = replay.byName.find(std::string("sim.replay.") + kind);
        const LayerTime layer =
            it == replay.byName.end() ? LayerTime{} : it->second;
        report.metric(std::string("sim.replay.") + kind + ".refs_per_s",
                      rate(countOf(layer, "refs"), layer.busy), "1/s");
    }
    for (const auto &[suffix, cap] :
         {std::pair<const char *, std::uint64_t>{"min_cap", counts.minCap},
          {"max_cap", counts.maxCap}}) {
        const std::string label = bytesLabel(cap);
        const double refs = countOf(replay.total, "refs@" + label);
        report.metric(std::string("sim.replay.miss_ratio.") + suffix,
                      refs > 0.0
                          ? countOf(replay.total, "misses@" + label) / refs
                          : 0.0,
                      "ratio", "simulated, at " + label);
    }

    // Runner busy time under each traced batch: its warm and cell spans.
    const Group batch = group({"sim.queue.batch"});
    const bool batch_timed = timed.count("sim.queue.batch") != 0;
    double batch_wall = 0.0;
    double task_busy = 0.0;
    for (const SpanRecord &span : spans) {
        if (span.end < 0.0 || span.name != "sim.queue.batch" ||
            (batch_timed && span.phase != "timed"))
            continue;
        batch_wall += span.end - span.begin;
    }
    for (const SpanRecord &span : spans) {
        if (span.end < 0.0 || span.parent < 0)
            continue;
        const SpanRecord &parent =
            spans[static_cast<std::size_t>(span.parent)];
        if (parent.name == "sim.queue.batch" &&
            (!batch_timed || parent.phase == "timed") &&
            span.name != "sim.request.encode")
            task_busy += span.end - span.begin;
    }
    report.metric("sim.parallel.utilization",
                  rate(task_busy, batch_wall * counts.jobs), "ratio",
                  batch.note);
    report.metric("sim.queue.overhead_s", batch.total.self / batch.divisor,
                  "s", batch.note);
    report.metric("sim.queue.lease_waits", counts.leaseWaits, "count",
                  counts.queueFrom);
    report.metric("sim.queue.concurrent_batches", counts.concurrentBatches,
                  "count", counts.queueFrom);

    report.metric("sim.capture_cache.hit_ratio", counts.captureHitRatio,
                  "ratio", counts.cacheFrom);
    report.metric("sim.resident_store.bytes", counts.residentBytes, "bytes",
                  counts.cacheFrom);

    const Group encode = group({"sim.request.encode"});
    report.metric("sim.request.encode_s", encode.total.busy / encode.divisor,
                  "s", encode.note);
    report.metric("sim.request.bytes",
                  countOf(encode.total, "bytes") / encode.divisor, "bytes");

    report.metric("sim.daemon.batch_rtt_p50_ms", medianOr0(counts.batchRttMs),
                  "ms", counts.daemonFrom);
    report.metric("sim.daemon.sweep_rtt_p50_ms", medianOr0(counts.sweepRttMs),
                  "ms", counts.daemonFrom);
    report.metric("sim.daemon.stats_rtt_p50_ms", medianOr0(counts.statsRttMs),
                  "ms", counts.daemonFrom);
    report.metric("sim.daemon.overhead_ms", medianOr0(counts.overheadMs),
                  "ms",
                  "batch round trip minus the in-process executeCell "
                  "critical path of the same cells");

    report.metric("bench.trace_overhead_ratio", counts.traceOverhead,
                  "ratio", "traced / untraced time of the same work - 1");
}

void
readQueueCounters(const casim::ExperimentQueue &queue,
                  const casim::CaptureCache &cache, LayerCounts &counts)
{
    const auto counter = [&](const std::string &name) {
        const auto value =
            casim::stats::counterValue(queue.stats().find("queue." + name));
        return value.has_value() ? static_cast<double>(*value) : 0.0;
    };
    counts.leaseWaits = counter("lease_waits");
    counts.concurrentBatches = counter("concurrent_batches");
    counts.queueFrom = "the untraced queue's counters";

    const double hits =
        static_cast<double>(cache.counter("hits") + cache.counter("memo_hits"));
    const double lookups =
        hits + static_cast<double>(cache.counter("cold_misses") +
                                   cache.counter("stale_misses") +
                                   cache.counter("corrupt_misses"));
    counts.captureHitRatio = lookups > 0.0 ? hits / lookups : 0.0;
    counts.residentBytes = static_cast<double>(cache.residentCounter("bytes"));
    counts.cacheFrom = "the untraced queue's CaptureCache";
}

void
reportFailures(Report &report, const Checks &checks)
{
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(1, checks.attempted()));
    const double failed = static_cast<double>(checks.failed());
    char text[160];
    std::snprintf(text, sizeof(text),
                  "failed_ratio = %.6g (%llu failed of %llu attempted "
                  "ops and output checks)",
                  failed / attempted,
                  static_cast<unsigned long long>(checks.failed()),
                  static_cast<unsigned long long>(checks.attempted()));
    report.line(text);
    for (const std::string &message : checks.messages())
        report.line("FAILED: " + message);
}

void
reportOkRatio(Report &report, const Checks &checks)
{
    reportFailures(report, checks);
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(1, checks.attempted()));
    report.metric("ok_ratio",
                  1.0 - static_cast<double>(checks.failed()) / attempted,
                  "ratio", "1 - failed_ratio");
}

void
reportInProcess(Report &report, const std::vector<double> &setups,
                const std::vector<double> &batches, double demand_refs,
                double replay_refs, double timed_wall, const Checks &checks)
{
    report.timing("set-up", setups, "ms", 1e3);
    report.timing("batch wall", batches, "ms", 1e3);
    const double batch = median(batches);
    const Tail tail = tailLatency(batches);
    report.metric("setup_s", median(setups), "s",
                  "median of " + std::to_string(setups.size()));
    report.metric("sim_refs_per_s", demand_refs / batch, "1/s",
                  "simulated demand refs one batch covers / median batch "
                  "wall");
    report.metric("replay_refs_per_s", replay_refs / batch, "1/s",
                  "LLC refs replayed per batch / median batch wall");
    report.metric("req_p50_ms", batch * 1e3, "ms",
                  "the batch is the request; n=" +
                      std::to_string(batches.size()));
    char note[96];
    std::snprintf(note, sizeof(note), "p%.3g of %zu batches%s",
                  tail.percentile, batches.size(),
                  batches.size() < 20 ? " (the median: fewer than 20)" : "");
    report.metric("req_tail_ms", tail.value * 1e3, "ms", note);
    report.metric("req_per_s",
                  static_cast<double>(batches.size()) / timed_wall, "1/s");
    report.metric("max_rss_mb",
                  static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0),
                  "MB", "VmHWM of the benchmark process");
    reportOkRatio(report, checks);
}

void
writeTrace(const Settings &settings, const SpanRecorder &recorder,
           Report &report)
{
    const std::string &path = settings.traceOut;
    if (recorder.writeChromeTrace(path, settings.provenance))
        report.line("chrome trace written to " + path);
    else
        report.line("cannot write chrome trace " + path);
}

} // namespace perfbench
