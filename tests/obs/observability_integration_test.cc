/**
 * @file
 * End-to-end observability: the System's registry and tracer against
 * the authoritative run accounting.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/stage_profile.hh"
#include "obs/trace_export.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/app_catalog.hh"

namespace dewrite {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

TEST(SystemRegistryTest, CanonicalPathsTrackLiveCounters)
{
    const SystemConfig config = smallConfig();
    System system(config, dewriteScheme(DedupMode::Predicted));

    const obs::MetricRegistry &registry = system.registry();
    ASSERT_TRUE(registry.has("system.sim_picoseconds"));
    ASSERT_TRUE(registry.has("device.num_writes"));
    ASSERT_TRUE(registry.has("controller.write_requests"));
    ASSERT_TRUE(registry.has("controller.writes_eliminated"));
    ASSERT_TRUE(registry.has("controller.predictor.accuracy"));
    ASSERT_TRUE(registry.has("controller.dedup.duplicate_commits"));
    ASSERT_TRUE(registry.has("cache.metadata.mapping.hit_rate"));
    ASSERT_TRUE(registry.has("device.wear.total_writes"));

    const Line data = Line::filled(0x11);
    system.write(5, data);
    system.write(6, data); // Duplicate content.
    system.read(5);

    EXPECT_EQ(registry.find("controller.write_requests")->read(), 2.0);
    EXPECT_EQ(registry.find("controller.read_requests")->read(), 1.0);
    EXPECT_EQ(
        registry.find("controller.writes_eliminated")->read(),
        static_cast<double>(system.controller().writesEliminated()));
    EXPECT_EQ(registry.find("device.num_writes")->read(),
              static_cast<double>(system.device().numWrites()));
    EXPECT_EQ(registry.find("system.sim_picoseconds")->read(),
              static_cast<double>(system.now()));
}

TEST(SystemRegistryTest, StageGaugesAbsentByDefault)
{
    // The profiled counterpart is test_stage_profile, which CTest runs
    // with DEWRITE_STAGE_PROFILE=1.
    ASSERT_FALSE(obs::stageProfileEnabled())
        << "run without DEWRITE_STAGE_PROFILE";
    const SystemConfig config = smallConfig();
    System system(config, dewriteScheme(DedupMode::Predicted));
    for (int i = 0; i < 8; ++i)
        system.write(i, Line::filled(static_cast<std::uint8_t>(i % 3)));
    for (const obs::MetricSample &sample : system.registry().snapshot())
        EXPECT_NE(sample.path.rfind("controller.dedup.stage.", 0), 0u)
            << sample.path;
}

TEST(SystemRegistryTest, LegacyViewMatchesFillStats)
{
    const SystemConfig config = smallConfig();
    System system(config, dewriteScheme(DedupMode::Predicted));
    const Line data = Line::filled(0x22);
    system.write(1, data);
    system.write(2, data);

    StatSet via_controller;
    system.controller().fillStats(via_controller);
    StatSet via_registry;
    system.registry().fillStatSet(via_registry);

    // fillStats is defined as the registry's legacy projection plus
    // nothing else; both maps must agree exactly.
    EXPECT_EQ(via_controller.all(), via_registry.all());
    EXPECT_TRUE(via_controller.has("writes"));
    EXPECT_TRUE(via_controller.has("prediction_accuracy"));
    EXPECT_TRUE(via_controller.has("writes_eliminated"));
}

TEST(SystemTracerTest, DisabledByDefaultEnabledOnRequest)
{
    const SystemConfig config = smallConfig();
    System system(config, dewriteScheme(DedupMode::Predicted));
    EXPECT_EQ(system.tracer(), nullptr);

    obs::TraceConfig trace;
    trace.capacity = 8;
    obs::WriteTracer &tracer = system.enableTracing(trace);
    EXPECT_EQ(system.tracer(), &tracer);

    const Line data = Line::filled(0x33);
    system.write(1, data);
    system.write(2, data);
    EXPECT_EQ(tracer.recorded(), 2u);
    EXPECT_TRUE(tracer.event(1).duplicate);
}

TEST(SystemTracerTest, BaselineSchemeTracesToo)
{
    const SystemConfig config = smallConfig();
    System system(config, secureBaselineScheme());
    obs::WriteTracer &tracer = system.enableTracing();
    const Line data = Line::filled(0x44);
    system.write(1, data);
    EXPECT_EQ(tracer.recorded(), 1u);
    EXPECT_TRUE(tracer.event(0).wroteLine);
}

TEST(RunAppTracedTest, TracerAgreesWithRunResult)
{
    const SystemConfig config = smallConfig();
    obs::TraceConfig trace;
    trace.capacity = 1 << 12;
    trace.epochEvents = 500;
    const AppProfile &app = appCatalog().front();
    const DetailedExperiment cell =
        runAppTraced(app, config, dewriteScheme(DedupMode::Predicted),
                     2000, appSeed(app), trace);

    const obs::WriteTracer *tracer = cell.system->tracer();
    ASSERT_NE(tracer, nullptr);

    EXPECT_EQ(tracer->recorded(), cell.result.run.writes);
    std::uint64_t duplicates = tracer->currentEpoch().duplicates;
    for (const obs::EpochSnapshot &epoch : tracer->epochs())
        duplicates += epoch.duplicates;
    EXPECT_EQ(duplicates, cell.result.run.writesEliminated);

    // The snapshot captured into the result is reproducible.
    EXPECT_EQ(cell.result.metrics, cell.system->registry().snapshot());
}

} // namespace
} // namespace dewrite
