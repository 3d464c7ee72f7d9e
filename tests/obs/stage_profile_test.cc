/**
 * @file
 * Stage-profile gauges under DEWRITE_STAGE_PROFILE=1.
 *
 * stageProfileEnabled() latches the knob once per process, so these
 * tests live in their own binary, which CTest runs with the knob set
 * (tests/CMakeLists.txt). The default-environment counterpart,
 * SystemRegistryTest.StageGaugesAbsentByDefault, runs in test_obs.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/stage_profile.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

#include "../sim/golden_matrix.hh"

namespace dewrite {
namespace {

constexpr const char *kStagePrefix = "controller.dedup.stage.";

TEST(StageProfileTest, DeWriteRunFillsEveryStageGauge)
{
    ASSERT_TRUE(obs::stageProfileEnabled())
        << "run with DEWRITE_STAGE_PROFILE=1 (CTest sets it)";

    // The first golden cell under predicted DeWrite: enough commits
    // that the 1-in-64 sampled commit split has timed several.
    const AppProfile app = goldenApps()[0];
    DetailedExperiment detailed =
        runAppDetailed(app, goldenConfig(),
                       dewriteScheme(DedupMode::Predicted), 4000,
                       appSeed(app));
    const obs::MetricRegistry &registry = detailed.system->registry();

    for (const char *stage :
         { "digest_cycles", "probe_cycles", "pad_cycles",
           "confirm_read_cycles", "commit_cycles",
           "commit_metadata_cycles", "commit_device_cycles" }) {
        const std::string path = std::string(kStagePrefix) + stage;
        const obs::MetricRegistry::Entry *entry = registry.find(path);
        ASSERT_NE(entry, nullptr) << path;
        EXPECT_GT(entry->read(), 0.0) << path;
    }
    std::size_t stage_gauges = 0;
    for (const obs::MetricSample &sample : registry.snapshot())
        stage_gauges += sample.path.rfind(kStagePrefix, 0) == 0;
    EXPECT_EQ(stage_gauges, 7u);

    // Profiling observes host time only: the cell's golden
    // fingerprint (bzip2/dewrite-predicted) is unchanged.
    EXPECT_EQ(cellFingerprint(detailed.result), kGoldenMatrix[4]);
}

} // namespace
} // namespace dewrite
