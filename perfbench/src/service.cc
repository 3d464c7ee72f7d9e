/**
 * @file
 * service-2shard: DedupService with 2 shards drained by 2 pool threads
 * while the calling thread produces, 16 tenants.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "probe.hh"
#include "service/dedup_service.hh"
#include "verify.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dewrite;

namespace {

/**
 * ServiceOptions has no trace-seed field, so the tenant streams always
 * use their catalog seeds. The benchmark seed picks the mux's longest
 * burst instead, which changes the interleaving every shard sees.
 */
ServiceOptions
serviceOptions(std::uint64_t seed)
{
    ServiceOptions options;
    options.shards = 2;
    options.threads = 2;
    options.tenants = 16;
    options.burstMax = 16 + static_cast<unsigned>(seed % 32);
    options.totalEvents = kServiceEvents;
    return options;
}

/** Replays the service's tenant mux alone for @p events events. */
std::uint64_t
producerNs(const ServiceOptions &options, std::uint64_t events)
{
    const std::uint64_t start = nowNs();
    TenantMux mux(DedupService::resolveTenants(options), options.burstMax);
    MemEvent event;
    std::uint64_t tenant = 0;
    for (std::uint64_t i = 0; i < events; ++i)
        mux.next(event, tenant);
    return nowNs() - start;
}

} // namespace

WorkloadReport
runService(const RunConfig &config)
{
    const ServiceOptions options = serviceOptions(config.seed);
    WorkloadReport report;
    report.hostThreads = 1 + options.threads;

    // Verification: every shard must match an independent single-shard
    // System over its partition of the same canonical order, and pass
    // the metadata audit.
    std::vector<std::uint32_t> reference;
    {
        DedupService service(options);
        const ServiceResult result = service.run();
        for (std::size_t k = 0; k < result.shards.size(); ++k) {
            const ShardOutcome &shard = result.shards[k];
            const std::uint32_t want = resultFingerprint(
                DedupService::runShardReference(options, k, shard.events));
            if (!report.checks.note(shard.fingerprint == want)) {
                std::fprintf(stderr,
                             "perfbench: shard%zu fingerprint %08x != "
                             "reference %08x\n",
                             k, shard.fingerprint, want);
            }
            auditDedup(service.shardSystem(k), report.checks);
            reference.push_back(shard.fingerprint);
        }
    }

    SimTotals sim;
    SampleSums counts;
    HostPasses &host = report.host;
    ServiceLayers layers;
    LayerTimes times;
    const std::uint64_t start = nowNs();
    do {
        const bool first = report.passes == 0;
        const std::uint64_t t0 = nowNs();
        auto service = std::make_unique<DedupService>(options);
        const std::uint64_t t1 = nowNs();
        const ServiceResult result = service->run();
        const std::uint64_t t2 = nowNs();
        const double resident_mb = residentMb();

        std::uint64_t events = 0;
        for (std::size_t k = 0; k < result.shards.size(); ++k) {
            const ShardOutcome &shard = result.shards[k];
            if (!report.checks.note(shard.fingerprint == reference[k])) {
                std::fprintf(stderr,
                             "perfbench: timed shard%zu fingerprint %08x "
                             "!= verified %08x\n",
                             k, shard.fingerprint, reference[k]);
            }
            events += shard.cell.run.events;
            if (first) {
                sim.add(shard.cell.run);
                counts.add(service->shardSystem(k).registry().snapshot());
                const BatchFormer &former = service->shardCore(k).former();
                counts.add("core.batch.writes_staged",
                           static_cast<double>(former.writesStaged()));
                counts.add("core.batch.flush_read",
                           static_cast<double>(former.flushesOnRead()));
                counts.add("core.batch.flush_queue_full",
                           static_cast<double>(former.flushesOnQueueFull()));
                counts.add("core.batch.flush_batch_full",
                           static_cast<double>(former.flushesOnBatchFull()));
                counts.add("core.batch.flush_trace_end",
                           static_cast<double>(former.flushesOnTraceEnd()));
            }
        }
        const double run_s = static_cast<double>(t2 - t1) * 1e-9;
        host.addPass(static_cast<double>(events), run_s,
                     concurrentProbeRate(report.hostThreads),
                     static_cast<double>(t1 - t0) * 1e-9, resident_mb);
        times.construct += static_cast<double>(t1 - t0) * 1e-9;
        times.untracedRun += run_s;

        if (config.trace) {
            // No wrapper reaches inside the service: its host-time layers
            // are the run itself and the producer replayed on its own,
            // whose ratio bounds the drain overlap (Amdahl).
            layers.producer +=
                static_cast<double>(producerNs(options, events)) * 1e-9;
            if (first) {
                layers.skewCv = service->skewMonitor().totalStats().cv;
                const auto [lo, hi] = std::minmax_element(
                    result.shards.begin(), result.shards.end(),
                    [](const ShardOutcome &a, const ShardOutcome &b) {
                        return a.events < b.events;
                    });
                layers.shardEventsMin = static_cast<double>(lo->events);
                layers.shardEventsMax = static_cast<double>(hi->events);
            }
        }
        ++report.passes;
    } while (secondsSince(start) < config.seconds);

    if (!config.trace) {
        report.metrics = endToEndMetrics(sim, host);
        return report;
    }
    const double per_pass = 1.0 / report.passes;
    layers.producer *= per_pass;
    times.construct *= per_pass;
    times.untracedRun *= per_pass;
    times.simRun = times.untracedRun;
    layers.run = times.untracedRun;
    report.metrics =
        layerMetrics(times, counts, sim, layers, host, report.checks);
    return report;
}

} // namespace perfbench
