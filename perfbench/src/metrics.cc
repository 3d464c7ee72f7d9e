/**
 * @file
 * Metric derivation.
 */

#include "metrics.hh"

#include <algorithm>

#include "probe.hh"

namespace perfbench {

namespace {

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

bool
CheckTally::note(bool ok)
{
    ++attempted;
    if (!ok)
        ++failed;
    return ok;
}

double
CheckTally::failedRatio() const
{
    return ratio(static_cast<double>(failed),
                 static_cast<double>(attempted));
}

void
SimTotals::add(const dewrite::RunResult &run)
{
    events += run.events;
    instructions += run.instructions;
    cycles += run.cycles;
    writes += run.writes;
    reads += run.reads;
    writesEliminated += run.writesEliminated;
    nvmLineWrites += run.nvmLineWrites;
    bitsProgrammed += run.bitsProgrammed;
    energyPj += static_cast<double>(run.totalEnergy);
    writeLatencyNsSum +=
        run.avgWriteLatencyNs * static_cast<double>(run.writes);
    readLatencyNsSum += run.avgReadLatencyNs * static_cast<double>(run.reads);
}

void
HostPasses::addPass(double events, double run_seconds, double probe_rate,
                    double setup_seconds, double peak_rss_mb)
{
    rawEventsPerSecond.push_back(events / run_seconds);
    probeRate.push_back(probe_rate);
    setupSeconds.push_back(setup_seconds);
    peakRssMb.push_back(peak_rss_mb);
}

std::vector<double>
HostPasses::eventsPerSecond() const
{
    std::vector<double> rates;
    for (std::size_t i = 0; i < rawEventsPerSecond.size(); ++i)
        rates.push_back(rawEventsPerSecond[i] * hostFactor(probeRate[i]));
    return rates;
}

std::vector<double>
HostPasses::setupOnReference() const
{
    std::vector<double> seconds;
    for (std::size_t i = 0; i < setupSeconds.size(); ++i)
        seconds.push_back(setupSeconds[i] / hostFactor(probeRate[i]));
    return seconds;
}

MetricList
endToEndMetrics(const SimTotals &sim, const HostPasses &host)
{
    const double events = static_cast<double>(sim.events);
    const double writes = static_cast<double>(sim.writes);
    return {
        { "events_per_s", median(host.eventsPerSecond()), "1/s" },
        { "setup_s", median(host.setupOnReference()), "s" },
        { "peak_rss_mb", median(host.peakRssMb), "MB" },
        { "sim_ipc",
          ratio(static_cast<double>(sim.instructions),
                static_cast<double>(sim.cycles)),
          "inst/cycle" },
        { "sim_write_latency_ns", ratio(sim.writeLatencyNsSum, writes),
          "ns" },
        { "sim_read_latency_ns",
          ratio(sim.readLatencyNsSum, static_cast<double>(sim.reads)),
          "ns" },
        { "sim_energy_nj_per_event", ratio(sim.energyPj / 1000.0, events),
          "nJ" },
        { "write_ratio",
          ratio(writes - static_cast<double>(sim.writesEliminated), writes),
          "ratio" },
        { "nvm_writes_per_kevent",
          ratio(1000.0 * static_cast<double>(sim.nvmLineWrites), events),
          "count" },
        { "bits_programmed_per_event",
          ratio(static_cast<double>(sim.bitsProgrammed), events), "count" },
    };
}

void
SampleSums::add(const std::vector<dewrite::obs::MetricSample> &samples)
{
    for (const dewrite::obs::MetricSample &sample : samples)
        add(sample.path, sample.value);
}

void
SampleSums::add(const std::string &path, double value)
{
    Entry &entry = entries_[path];
    entry.sum += value;
    entry.max = entry.count ? std::max(entry.max, value) : value;
    ++entry.count;
}

double
SampleSums::sum(const std::string &path) const
{
    const auto it = entries_.find(path);
    return it == entries_.end() ? 0.0 : it->second.sum;
}

double
SampleSums::max(const std::string &path) const
{
    const auto it = entries_.find(path);
    return it == entries_.end() ? 0.0 : it->second.max;
}

double
SampleSums::mean(const std::string &path) const
{
    const auto it = entries_.find(path);
    return it == entries_.end()
        ? 0.0
        : it->second.sum / static_cast<double>(it->second.count);
}

MetricList
layerMetrics(const LayerTimes &t, const SampleSums &c, const SimTotals &sim,
             const ServiceLayers &svc, const HostPasses &host,
             const CheckTally &checks)
{
    const double kevents = static_cast<double>(sim.events) / 1000.0;
    const double writes = static_cast<double>(sim.writes);
    const double flushes = c.sum("core.batch.flush_read") +
        c.sum("core.batch.flush_queue_full") +
        c.sum("core.batch.flush_batch_full") +
        c.sum("core.batch.flush_trace_end");
    const double detects = c.sum("controller.dedup.detect.detects");
    const double accesses =
        c.sum("device.num_reads") + c.sum("device.num_writes");
    const double pad_hits = c.sum("controller.dedup.pad_cache.hits") +
        c.sum("controller.pad_cache.hits");
    const double pad_lookups = pad_hits +
        c.sum("controller.dedup.pad_cache.misses") +
        c.sum("controller.pad_cache.misses");

    MetricList out = {
        { "host.raw_events_per_s", median(host.rawEventsPerSecond), "1/s" },
        { "host.probe_ops_per_s", median(host.probeRate), "1/s" },
        { "sim.construct_s", t.construct, "s" },
        { "sim.run_s", t.simRun, "s" },
        { "residual_s", t.residual(), "s" },
        { "trace.next_s", t.traceNext, "s" },
        { "trace.next_share", ratio(t.traceNext, t.simRun), "ratio" },
        { "cpu.self_s", t.simRun > 0.0 ? t.cpuSelf() : 0.0, "s" },
        { "cpu.write_batch_mean", ratio(c.sum("core.batch.writes_staged"),
                                        flushes),
          "count" },
        { "cpu.flush_queue_full_ratio",
          ratio(c.sum("core.batch.flush_queue_full"), flushes), "ratio" },
        { "controller.write_s", t.ctlWrite, "s" },
        { "controller.write_calls", t.writeCalls, "count" },
        { "controller.read_s", t.ctlRead, "s" },
        { "controller.read_calls", t.readCalls, "count" },
        { "controller.writes_eliminated_ratio",
          ratio(static_cast<double>(sim.writesEliminated), writes),
          "ratio" },
        { "dedup.detects", detects, "count" },
        { "dedup.confirm_reads",
          c.sum("controller.dedup.detect.confirm_reads"), "count" },
        { "dedup.confirm_reads_avoided",
          c.sum("controller.dedup.detect.confirm_reads_avoided"), "count" },
        { "dedup.dup_hit_ratio",
          ratio(c.sum("controller.dedup.duplicate_commits"), detects),
          "ratio" },
        { "dedup.missed_by_pna", c.sum("controller.dedup.missed_by_pna"),
          "count" },
        { "dedup.predictor_accuracy",
          ratio(c.sum("controller.predictor.correct"),
                c.sum("controller.predictor.predictions")),
          "ratio" },
    };
    for (const char *stage :
         { "digest", "probe", "pad", "confirm_read", "commit" }) {
        const std::string gauge =
            std::string("controller.dedup.stage.") + stage + "_cycles";
        out.push_back({ std::string("dedup.stage.") + stage +
                            "_cycles_per_write",
                        ratio(c.sum(gauge), writes), "cycles" });
    }
    out.push_back({ "crypto.pad_cache_hit_ratio",
                    ratio(pad_hits, pad_lookups), "ratio" });
    out.push_back({ "crypto.wasted_encryption_ratio",
                    ratio(c.sum("controller.wasted_encryptions"),
                          c.sum("controller.encryptions_started")),
                    "ratio" });
    for (const char *table :
         { "mapping", "inverted_hash", "hash_store", "fsm" }) {
        const std::string path =
            std::string("cache.metadata.") + table + ".hit_rate";
        out.push_back({ path, c.mean(path), "ratio" });
    }
    out.push_back({ "cache.metadata.writebacks_per_kevent",
                    ratio(c.sum("cache.metadata.writebacks"), kevents),
                    "count" });
    out.push_back({ "cache.counter.hit_rate",
                    c.mean("cache.counter.hit_rate"), "ratio" });
    out.push_back({ "nvm.reads_per_kevent",
                    ratio(c.sum("device.num_reads"), kevents), "count" });
    out.push_back({ "nvm.background_writes_per_kevent",
                    ratio(c.sum("device.background_writes"), kevents),
                    "count" });
    out.push_back({ "nvm.queue_delay_ns_per_access",
                    ratio(c.sum("device.queue_delay_ps") / 1000.0, accesses),
                    "ns" });
    out.push_back({ "nvm.row_buffer_hit_ratio",
                    ratio(c.sum("device.row_buffer_hits"), accesses),
                    "ratio" });
    out.push_back({ "nvm.wear_max_line_writes",
                    c.max("device.wear.max_line_writes"), "count" });
    out.push_back({ "service.run_s", svc.run, "s" });
    out.push_back({ "service.producer_s", svc.producer, "s" });
    out.push_back({ "service.producer_share", ratio(svc.producer, svc.run),
                    "ratio" });
    out.push_back({ "service.skew_cv", svc.skewCv, "ratio" });
    out.push_back({ "service.shard_events.min", svc.shardEventsMin,
                    "count" });
    out.push_back({ "service.shard_events.max", svc.shardEventsMax,
                    "count" });
    out.push_back({ "tracing_overhead_ratio",
                    t.untracedRun > 0.0 ? t.simRun / t.untracedRun - 1.0
                                        : 0.0,
                    "ratio" });
    out.push_back({ "failed_op_ratio", checks.failedRatio(), "ratio" });
    out.push_back({ "verify.checks", static_cast<double>(checks.attempted),
                    "count" });
    return out;
}

} // namespace perfbench
