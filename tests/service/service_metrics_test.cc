/**
 * @file
 * Registry exposure of the host-side counters: the PadCache
 * hit/miss counters, the batch former's flush reasons, and the
 * service's merged per-shard snapshot. All of these are host-side
 * accounting — the suite also pins that none of them leak into the
 * legacy StatSet view that result signatures are built from.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "service/dedup_service.hh"
#include "sim/experiment.hh"
#include "trace/app_catalog.hh"

namespace dewrite {
namespace {

double
sampleValue(const std::vector<obs::MetricSample> &samples,
            const std::string &path)
{
    const auto it = std::find_if(
        samples.begin(), samples.end(),
        [&](const obs::MetricSample &s) { return s.path == path; });
    EXPECT_NE(it, samples.end()) << "missing metric " << path;
    return it == samples.end() ? -1.0 : it->value;
}

DetailedExperiment
runSmall(const SchemeOptions &scheme)
{
    AppProfile profile = appCatalog()[0];
    profile.workingSetLines = 2048;
    SystemConfig config;
    config.memory.numLines = 32768;
    return runAppDetailed(profile, config, scheme, 20000,
                          appSeed(profile));
}

TEST(PipelineMetrics, DedupRunExposesPadCacheAndFlushReasons)
{
    const DetailedExperiment detailed =
        runSmall(dewriteScheme(DedupMode::Predicted));
    const std::vector<obs::MetricSample> samples =
        detailed.system->registry().snapshot();

    // PadCache effectiveness under the dedup engine's scope.
    const double hits =
        sampleValue(samples, "controller.dedup.pad_cache.hits");
    const double misses =
        sampleValue(samples, "controller.dedup.pad_cache.misses");
    EXPECT_GT(hits + misses, 0.0);

    // Batch-former flush reasons under the core's scope. Every staged
    // write is a simulated write and vice versa.
    EXPECT_EQ(sampleValue(samples, "core.batch.writes_staged"),
              static_cast<double>(detailed.result.run.writes));
    const double flushes =
        sampleValue(samples, "core.batch.flush_read") +
        sampleValue(samples, "core.batch.flush_queue_full") +
        sampleValue(samples, "core.batch.flush_batch_full") +
        sampleValue(samples, "core.batch.flush_trace_end");
    EXPECT_GT(flushes, 0.0);
}

TEST(PipelineMetrics, SecureBaselineExposesItsPadCache)
{
    const DetailedExperiment detailed = runSmall(secureBaselineScheme());
    const std::vector<obs::MetricSample> samples =
        detailed.system->registry().snapshot();
    const double hits =
        sampleValue(samples, "controller.pad_cache.hits");
    const double misses =
        sampleValue(samples, "controller.pad_cache.misses");
    EXPECT_GT(hits + misses, 0.0);
}

TEST(PipelineMetrics, LatencyQuantilesShareOnePathAcrossSchemes)
{
    // The telemetry plane registers the histogram quantiles in the
    // MemController base class, so the dewrite controller and the
    // secure baseline expose the *same* metric paths — dashboards
    // compare schemes without per-scheme wiring.
    for (const SchemeOptions &scheme :
         { dewriteScheme(DedupMode::Predicted),
           secureBaselineScheme() }) {
        const DetailedExperiment detailed = runSmall(scheme);
        const std::vector<obs::MetricSample> samples =
            detailed.system->registry().snapshot();
        const double p50 =
            sampleValue(samples, "controller.write_latency.p50_ps");
        const double p99 =
            sampleValue(samples, "controller.write_latency.p99_ps");
        const double max =
            sampleValue(samples, "controller.write_latency.max_ps");
        sampleValue(samples, "controller.write_latency.p999_ps");
        sampleValue(samples, "controller.read_latency.p99_ps");
        EXPECT_GT(p50, 0.0) << detailed.result.scheme;
        EXPECT_LE(p50, p99) << detailed.result.scheme;
        EXPECT_LE(p99, max) << detailed.result.scheme;
        // And the histogram agrees with the exact accumulator mean's
        // order of magnitude: the mean must sit within [min, max].
        EXPECT_LE(sampleValue(samples,
                              "controller.write_latency_ps"),
                  max)
            << detailed.result.scheme;
    }
}

TEST(PipelineMetrics, HostCountersStayOutOfResultSignatures)
{
    // The new counters must never enter the legacy StatSet, which is
    // what resultSignature folds in — otherwise host-side accounting
    // would shift the golden fingerprints.
    const DetailedExperiment detailed =
        runSmall(dewriteScheme(DedupMode::Predicted));
    for (const auto &[name, value] : detailed.result.stats.all()) {
        EXPECT_EQ(name.find("pad_cache"), std::string::npos) << name;
        EXPECT_EQ(name.find("flush_"), std::string::npos) << name;
        EXPECT_EQ(name.find("writes_staged"), std::string::npos) << name;
    }
}

TEST(ServiceMetrics, MergedSnapshotCoversEveryShard)
{
    ServiceOptions options;
    options.shards = 4;
    options.threads = 2;
    options.tenants = 6;
    options.linesPerTenant = 1024;
    options.roundEvents = 1024;
    options.totalEvents = 8000;
    DedupService service(options);
    const ServiceResult result = service.run();

    const std::vector<obs::MetricSample> merged =
        service.registrySnapshot();
    EXPECT_TRUE(std::is_sorted(
        merged.begin(), merged.end(),
        [](const auto &a, const auto &b) { return a.path < b.path; }));

    EXPECT_GT(sampleValue(merged, "service.rounds"), 0.0);
    EXPECT_EQ(sampleValue(merged, "service.shards"), 4.0);
    for (std::size_t k = 0; k < 4; ++k) {
        const std::string shard = "shard" + std::to_string(k) + ".";
        // Routed-events gauge matches the run accounting.
        EXPECT_EQ(sampleValue(merged, shard + "ingest.events_routed"),
                  static_cast<double>(result.shards[k].events));
        // The ingest former did the staging for this shard...
        EXPECT_EQ(sampleValue(merged,
                              shard + "ingest.batch.writes_staged"),
                  static_cast<double>(result.shards[k].cell.run.writes));
        // ...while the shard System's own (undriven) core stayed idle.
        EXPECT_EQ(sampleValue(merged, shard + "core.batch.writes_staged"),
                  0.0);
        // And each shard's simulated components report under its
        // prefix.
        sampleValue(merged, shard + "system.sim_picoseconds");
        sampleValue(merged,
                    shard + "controller.dedup.pad_cache.misses");
    }
}

} // namespace
} // namespace dewrite
