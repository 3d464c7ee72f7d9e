/**
 * @file
 * catalog-dewrite and catalog-baseline: the 20 catalog apps, one cell
 * after another on one host thread, 4 simulated cores per cell.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "probe.hh"
#include "sim/experiment.hh"
#include "trace/app_catalog.hh"
#include "traced.hh"
#include "verify.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dewrite;

namespace {

/** Distance between the seeds of consecutive benchmark seeds; larger
 * than any core count, so no two (seed, core) streams coincide. */
constexpr std::uint64_t kSeedStride = 64;

/** Everything a cell's System consumes, built as runApp builds it. */
struct CellInputs
{
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<TraceSource *> traces;
    SystemConfig config;
};

std::unique_ptr<CellInputs>
makeInputs(const AppProfile &app, std::uint64_t bench_seed)
{
    auto inputs = std::make_unique<CellInputs>();
    const std::uint64_t seed = appSeed(app) + bench_seed * kSeedStride;
    const auto phase = std::make_shared<SharedPhase>();
    const unsigned cores = std::max(1u, inputs->config.numCores);
    for (unsigned core = 0; core < cores; ++core) {
        inputs->workloads.push_back(std::make_unique<SyntheticWorkload>(
            app, seed + core,
            static_cast<LineAddr>(core) * app.workingSetLines * 2, phase));
        inputs->traces.push_back(inputs->workloads.back().get());
    }
    inputs->config.memory.workingSetHintLines = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(cores) * app.workingSetLines,
        kCellEvents);
    return inputs;
}

/** The fingerprinted view of a finished cell. */
std::uint32_t
fingerprint(const AppProfile &app, const System &system,
            const RunResult &run)
{
    ExperimentResult cell;
    cell.app = app.name;
    cell.scheme = system.controller().name();
    cell.run = run;
    system.controller().fillStats(cell.stats);
    return resultFingerprint(cell);
}

/** Untimed pass: records, checks, and returns every cell's
 * fingerprint. */
std::vector<std::uint32_t>
verifyPass(const SchemeOptions &scheme, std::uint64_t seed,
           CheckTally &checks)
{
    std::vector<std::uint32_t> reference;
    for (const AppProfile &app : appCatalog()) {
        const auto inputs = makeInputs(app, seed);
        WrittenLines written;
        std::vector<std::unique_ptr<RecordingSource>> recorders;
        std::vector<TraceSource *> traces;
        for (TraceSource *trace : inputs->traces) {
            recorders.push_back(
                std::make_unique<RecordingSource>(*trace, written));
            traces.push_back(recorders.back().get());
        }
        System system(inputs->config, scheme);
        const RunResult run = system.run(traces, kCellEvents);
        reference.push_back(fingerprint(app, system, run));
        verifyReadBack(system, written, checks);
        auditDedup(system, checks);
    }
    return reference;
}

/** One measured cell: construction and run timed separately. */
struct TimedCell
{
    RunResult run;
    std::uint32_t fingerprint = 0;
    std::uint64_t setupNs = 0;
    std::uint64_t runNs = 0;
    double residentMb = 0.0; //!< At the end of the run.
    std::vector<obs::MetricSample> samples;
};

TimedCell
timedCell(const AppProfile &app, const SchemeOptions &scheme,
          std::uint64_t seed, bool snapshot)
{
    TimedCell cell;
    const std::uint64_t t0 = nowNs();
    const auto inputs = makeInputs(app, seed);
    const auto system = std::make_unique<System>(inputs->config, scheme);
    const std::uint64_t t1 = nowNs();
    cell.run = system->run(inputs->traces, kCellEvents);
    const std::uint64_t t2 = nowNs();
    cell.setupNs = t1 - t0;
    cell.runNs = t2 - t1;
    cell.residentMb = residentMb();
    cell.fingerprint = fingerprint(app, *system, cell.run);
    if (snapshot)
        cell.samples = system->registry().snapshot();
    return cell;
}

/** Tick totals of one traced cell (see LayerTimes). */
struct TracedTicks
{
    std::uint64_t simRun = 0, coreLoop = 0, traceNext = 0, ctlWrite = 0,
                  ctlRead = 0, writeCalls = 0, readCalls = 0;
};

/**
 * A traced cell drives the System's controller from its own CoreModel
 * through the wrappers, then completes the RunResult exactly as
 * System::run does; its fingerprint must equal the untraced cell's.
 */
std::uint32_t
tracedCell(const AppProfile &app, const SchemeOptions &scheme,
           std::uint64_t seed, TracedTicks &ticks_out)
{
    const auto inputs = makeInputs(app, seed);
    System system(inputs->config, scheme);
    std::uint64_t next_ticks = 0;
    std::vector<std::unique_ptr<TimedSource>> timed;
    std::vector<TraceSource *> traces;
    for (TraceSource *trace : inputs->traces) {
        timed.push_back(std::make_unique<TimedSource>(*trace, next_ticks));
        traces.push_back(timed.back().get());
    }
    TracedController controller(system.controller());
    CoreModel core(system.config().timing);
    const std::uint64_t k1 = ticks();

    RunResult run = core.runMulti(traces, controller, kCellEvents);
    const std::uint64_t k2 = ticks();
    run.totalEnergy = system.totalEnergy();
    run.nvmLineWrites = system.device().numWrites();
    run.nvmLineReads = system.device().numReads();
    run.bitsProgrammed = system.controller().dataBitsProgrammed();
    const std::uint64_t k3 = ticks();

    ticks_out.coreLoop += k2 - k1;
    ticks_out.simRun += k3 - k1;
    ticks_out.traceNext += next_ticks;
    ticks_out.ctlWrite += controller.writeTicks;
    ticks_out.ctlRead += controller.readTicks;
    ticks_out.writeCalls += controller.writeCalls;
    ticks_out.readCalls += controller.readCalls;
    return fingerprint(app, system, run);
}

/** Counts a timed cell's fingerprint against the verified one. */
void
checkFingerprint(const char *what, const AppProfile &app,
                 std::uint32_t got, std::uint32_t want, CheckTally &checks)
{
    if (!checks.note(got == want)) {
        std::fprintf(stderr,
                     "perfbench: %s cell %s fingerprint %08x != "
                     "verified %08x\n",
                     what, app.name.c_str(), got, want);
    }
}

} // namespace

WorkloadReport
runCatalog(const RunConfig &config, const SchemeOptions &scheme)
{
    const std::vector<AppProfile> &apps = appCatalog();
    WorkloadReport report;
    const std::vector<std::uint32_t> reference =
        verifyPass(scheme, config.seed, report.checks);

    SimTotals sim;
    SampleSums counts;
    HostPasses &host = report.host;
    HostProbe probe;
    TracedTicks traced;
    std::uint64_t untraced_run_ns = 0, construct_ns = 0;
    const std::uint64_t k_start = ticks();
    const std::uint64_t start = nowNs();
    do {
        const bool first = report.passes == 0;
        std::uint64_t setup_ns = 0, run_ns = 0, events = 0;
        double probe_s = 0.0, peak_mb = 0.0;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const TimedCell cell =
                timedCell(apps[i], scheme, config.seed,
                          first && config.trace);
            checkFingerprint("timed", apps[i], cell.fingerprint,
                             reference[i], report.checks);
            probe_s += probe.run();
            peak_mb = std::max(peak_mb, cell.residentMb);
            setup_ns += cell.setupNs;
            run_ns += cell.runNs;
            events += cell.run.events;
            if (first) {
                sim.add(cell.run);
                counts.add(cell.samples);
            }
            if (config.trace) {
                checkFingerprint("traced", apps[i],
                                 tracedCell(apps[i], scheme, config.seed,
                                            traced),
                                 reference[i], report.checks);
            }
        }
        host.addPass(static_cast<double>(events),
                     static_cast<double>(run_ns) * 1e-9,
                     static_cast<double>(HostProbe::kOps * apps.size()) /
                         probe_s,
                     static_cast<double>(setup_ns) * 1e-9, peak_mb);
        untraced_run_ns += run_ns;
        construct_ns += setup_ns;
        ++report.passes;
    } while (secondsSince(start) < config.seconds);

    if (!config.trace) {
        report.metrics = endToEndMetrics(sim, host);
        return report;
    }

    // Spans are TSC ticks; the phase's own wall time gives the rate.
    const double tick_seconds =
        secondsSince(start) / static_cast<double>(ticks() - k_start);
    const double per_pass = 1.0 / report.passes;
    const auto seconds = [&](std::uint64_t t) {
        return static_cast<double>(t) * tick_seconds * per_pass;
    };
    LayerTimes times;
    times.construct = static_cast<double>(construct_ns) * 1e-9 * per_pass;
    times.untracedRun =
        static_cast<double>(untraced_run_ns) * 1e-9 * per_pass;
    times.simRun = seconds(traced.simRun);
    times.coreLoop = seconds(traced.coreLoop);
    times.traceNext = seconds(traced.traceNext);
    times.ctlWrite = seconds(traced.ctlWrite);
    times.ctlRead = seconds(traced.ctlRead);
    times.writeCalls = static_cast<double>(traced.writeCalls) * per_pass;
    times.readCalls = static_cast<double>(traced.readCalls) * per_pass;
    report.metrics = layerMetrics(times, counts, sim, ServiceLayers{}, host,
                                  report.checks);
    return report;
}

} // namespace perfbench
