/**
 * @file
 * Self-tests of the benchmark: metric derivation against hand-computed
 * values, the layer-time decomposition, the read-back check, and the
 * tracing wrappers' bit-identity with an untraced run.
 *
 *   cmake --build <dir> --target perfbench_selftest
 *   <dir>/perfbench_selftest
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "metrics.hh"
#include "probe.hh"
#include "sim/experiment.hh"
#include "trace/app_catalog.hh"
#include "traced.hh"
#include "verify.hh"

using namespace perfbench;
using namespace dewrite;

namespace {

std::map<std::string, double>
byName(const MetricList &metrics)
{
    std::map<std::string, double> out;
    for (const Metric &metric : metrics)
        out[metric.name] = metric.value;
    return out;
}

RunResult
syntheticRun(std::uint64_t scale)
{
    RunResult run;
    run.events = 1000 * scale;
    run.instructions = 50000 * scale;
    run.cycles = 100000 * scale;
    run.writes = 400 * scale;
    run.reads = 600 * scale;
    run.writesEliminated = 100 * scale;
    run.avgWriteLatencyNs = 100.0 * static_cast<double>(scale);
    run.avgReadLatencyNs = 50.0;
    run.totalEnergy = 2000000 * scale;
    run.nvmLineWrites = 350 * scale;
    run.bitsProgrammed = 90000 * scale;
    return run;
}

obs::MetricSample
sample(const std::string &path, double value)
{
    obs::MetricSample s;
    s.path = path;
    s.value = value;
    return s;
}

/** Writes line i with content pattern(0x1000 + i), forever. */
class CountingWrites final : public TraceSource
{
  public:
    bool next(MemEvent &event) override
    {
        event.isWrite = true;
        event.addr = issued_;
        event.data = Line::pattern(0x1000 + issued_);
        event.instGap = 10;
        ++issued_;
        return true;
    }

  private:
    std::uint64_t issued_ = 0;
};

} // namespace

TEST(Metrics, EndToEndFromSyntheticRuns)
{
    SimTotals sim;
    sim.add(syntheticRun(1));
    sim.add(syntheticRun(3));
    HostPasses host;
    // Raw rates 1.5M, 1M, 8M and 2M events/s on hosts whose probe ran at
    // half, once, twice and once the reference rate. With elasticity 2
    // that is 6M, 1M, 2M and 2M on the reference host; set-up times scale
    // the other way: 0.1, 0.1, 0.8 and 0.3 s there.
    static_assert(kProbeElasticity == 2.0);
    host.addPass(3e6, 2.0, kReferenceProbeRate / 2, 0.4, 120.0);
    host.addPass(1e6, 1.0, kReferenceProbeRate, 0.1, 126.0);
    host.addPass(8e6, 1.0, kReferenceProbeRate * 2, 0.2, 100.0);
    host.addPass(2e6, 1.0, kReferenceProbeRate, 0.3, 130.0);

    const auto m = byName(endToEndMetrics(sim, host));
    EXPECT_DOUBLE_EQ(m.at("events_per_s"), 2e6);
    EXPECT_DOUBLE_EQ(m.at("setup_s"), 0.2);
    EXPECT_DOUBLE_EQ(m.at("peak_rss_mb"), 123.0);
    // 200k instructions / 400k cycles.
    EXPECT_DOUBLE_EQ(m.at("sim_ipc"), 0.5);
    // (100 ns x 400 + 300 ns x 1200) / 1600 writes.
    EXPECT_DOUBLE_EQ(m.at("sim_write_latency_ns"), 250.0);
    EXPECT_DOUBLE_EQ(m.at("sim_read_latency_ns"), 50.0);
    // 8e6 pJ = 8000 nJ over 4000 events.
    EXPECT_DOUBLE_EQ(m.at("sim_energy_nj_per_event"), 2.0);
    // (1600 - 400) / 1600.
    EXPECT_DOUBLE_EQ(m.at("write_ratio"), 0.75);
    EXPECT_DOUBLE_EQ(m.at("nvm_writes_per_kevent"), 350.0);
    EXPECT_DOUBLE_EQ(m.at("bits_programmed_per_event"), 90.0);
    EXPECT_EQ(m.size(), 10u);
}

TEST(Metrics, LayerPartsPlusResidualEqualRun)
{
    LayerTimes t;
    t.simRun = 2.5;
    t.coreLoop = 2.4;
    t.traceNext = 0.9;
    t.ctlWrite = 0.8;
    t.ctlRead = 0.2;
    t.untracedRun = 2.0;
    const auto m = byName(layerMetrics(t, SampleSums{}, SimTotals{},
                                       ServiceLayers{}, HostPasses{},
                                       CheckTally{}));
    EXPECT_NEAR(m.at("cpu.self_s"), 0.5, 1e-12);
    EXPECT_NEAR(m.at("residual_s"), 0.1, 1e-12);
    EXPECT_NEAR(m.at("trace.next_s") + m.at("cpu.self_s") +
                    m.at("controller.write_s") + m.at("controller.read_s") +
                    m.at("residual_s"),
                m.at("sim.run_s"), 1e-12);
    EXPECT_DOUBLE_EQ(m.at("trace.next_share"), 0.36);
    EXPECT_DOUBLE_EQ(m.at("tracing_overhead_ratio"), 0.25);
}

TEST(Metrics, LayerCountsFromRegistrySnapshots)
{
    SampleSums counts;
    counts.add({ sample("core.batch.writes_staged", 300),
                 sample("core.batch.flush_queue_full", 90),
                 sample("core.batch.flush_read", 10),
                 sample("controller.dedup.detect.detects", 200),
                 sample("controller.dedup.duplicate_commits", 50),
                 sample("controller.dedup.pad_cache.hits", 30),
                 sample("controller.dedup.pad_cache.misses", 70),
                 sample("controller.dedup.stage.commit_cycles", 8000),
                 sample("cache.metadata.mapping.hit_rate", 0.5),
                 sample("device.num_reads", 600),
                 sample("device.num_writes", 400),
                 sample("device.queue_delay_ps", 2e6),
                 sample("device.row_buffer_hits", 250),
                 sample("device.wear.max_line_writes", 7) });
    counts.add({ sample("core.batch.writes_staged", 100),
                 sample("controller.dedup.detect.detects", 200),
                 sample("controller.dedup.duplicate_commits", 150),
                 sample("cache.metadata.mapping.hit_rate", 1.0),
                 sample("device.wear.max_line_writes", 5) });
    SimTotals sim;
    sim.events = 2000;
    sim.writes = 400;
    sim.writesEliminated = 100;

    const auto m = byName(
        layerMetrics(LayerTimes{}, counts, sim, ServiceLayers{}, HostPasses{},
                     CheckTally{}));
    EXPECT_DOUBLE_EQ(m.at("cpu.write_batch_mean"), 4.0);       // 400 / 100
    EXPECT_DOUBLE_EQ(m.at("cpu.flush_queue_full_ratio"), 0.9); // 90 / 100
    EXPECT_DOUBLE_EQ(m.at("dedup.detects"), 400.0);
    EXPECT_DOUBLE_EQ(m.at("dedup.dup_hit_ratio"), 0.5); // 200 / 400
    EXPECT_DOUBLE_EQ(m.at("controller.writes_eliminated_ratio"), 0.25);
    EXPECT_DOUBLE_EQ(m.at("crypto.pad_cache_hit_ratio"), 0.3);
    EXPECT_DOUBLE_EQ(m.at("dedup.stage.commit_cycles_per_write"), 20.0);
    EXPECT_DOUBLE_EQ(m.at("cache.metadata.mapping.hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(m.at("nvm.reads_per_kevent"), 300.0);
    EXPECT_DOUBLE_EQ(m.at("nvm.queue_delay_ns_per_access"), 2.0);
    EXPECT_DOUBLE_EQ(m.at("nvm.row_buffer_hit_ratio"), 0.25);
    EXPECT_DOUBLE_EQ(m.at("nvm.wear_max_line_writes"), 7.0);
    EXPECT_DOUBLE_EQ(m.at("cache.counter.hit_rate"), 0.0); // not reported
}

TEST(Verify, SeededReadBackMismatchRaisesFailedOpRatio)
{
    System system(SystemConfig(), dewriteScheme(DedupMode::Predicted));
    WrittenLines written;
    for (LineAddr addr = 0; addr < 8; ++addr) {
        // Two distinct contents, so half the writes are duplicates.
        written[addr] = Line::pattern(addr % 2 ? 0xabcd : 0x1234);
        system.write(addr, written[addr]);
    }
    CheckTally clean;
    verifyReadBack(system, written, clean);
    auditDedup(system, clean);
    EXPECT_EQ(clean.attempted, 9u);
    EXPECT_EQ(clean.failed, 0u);

    written[5] = Line::pattern(0x5eed);
    CheckTally seeded;
    verifyReadBack(system, written, seeded);
    EXPECT_EQ(seeded.failed, 1u);
    const auto m =
        byName(layerMetrics(LayerTimes{}, SampleSums{}, SimTotals{},
                            ServiceLayers{}, HostPasses{}, seeded));
    EXPECT_DOUBLE_EQ(m.at("failed_op_ratio"), 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(m.at("verify.checks"), 8.0);
}

TEST(Verify, RecordingSourceSkipsThePulledButUnissuedEvent)
{
    System system(SystemConfig(), secureBaselineScheme());
    CountingWrites writes;
    WrittenLines written;
    RecordingSource recorder(writes, written);
    const RunResult run = system.run(recorder, 100);
    ASSERT_EQ(run.writes, 100u);
    EXPECT_EQ(written.size(), 100u);
    EXPECT_EQ(written.count(100), 0u);
    CheckTally checks;
    verifyReadBack(system, written, checks);
    EXPECT_EQ(checks.failed, 0u);
}

TEST(Traced, WrappersReproduceTheUntracedRun)
{
    const AppProfile &app = appCatalog().front();
    const SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    constexpr std::uint64_t kEvents = 20000;

    System plain(SystemConfig(), scheme);
    SyntheticWorkload plain_trace(app, 7);
    const RunResult want = plain.run(plain_trace, kEvents);

    System system(SystemConfig(), scheme);
    SyntheticWorkload trace(app, 7);
    std::uint64_t next_ticks = 0;
    TimedSource timed(trace, next_ticks);
    TracedController controller(system.controller());
    CoreModel core(system.config().timing);
    const RunResult got = core.run(timed, controller, kEvents);

    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.writesEliminated, want.writesEliminated);
    EXPECT_EQ(got.ipc, want.ipc);
    EXPECT_EQ(got.avgWriteLatencyNs, want.avgWriteLatencyNs);
    EXPECT_EQ(got.avgReadLatencyNs, want.avgReadLatencyNs);
    EXPECT_EQ(system.controller().dataBitsProgrammed(),
              plain.controller().dataBitsProgrammed());
    EXPECT_EQ(controller.dataBitsProgrammed(),
              plain.controller().dataBitsProgrammed());
    EXPECT_GT(next_ticks, 0u);
    EXPECT_EQ(controller.readCalls, got.reads);
    EXPECT_GE(controller.writeCalls, 1u);
}
