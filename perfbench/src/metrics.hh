/**
 * @file
 * Metric derivation for the repository benchmark.
 *
 * Everything here is a pure function of numbers the workload runners
 * collect — RunResults, registry snapshots and host timings — so the
 * self-tests can check each metric against hand-computed values.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "obs/metric_registry.hh"

namespace perfbench {

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using MetricList = std::vector<Metric>;

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/** Correctness checks made outside the timed region. */
struct CheckTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Counts one check; returns @p ok. */
    bool note(bool ok);

    double failedRatio() const;
};

/** Simulated totals over the cells (or shards) of one pass. */
struct SimTotals
{
    std::uint64_t events = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t writesEliminated = 0;
    std::uint64_t nvmLineWrites = 0;
    std::uint64_t bitsProgrammed = 0;
    double energyPj = 0.0;
    double writeLatencyNsSum = 0.0; //!< Mean latency x writes, summed.
    double readLatencyNsSum = 0.0;  //!< Mean latency x reads, summed.

    void add(const dewrite::RunResult &run);
};

/** Host measurements of the untraced timed passes, one entry each. */
struct HostPasses
{
    std::vector<double> rawEventsPerSecond; //!< Events per host second.
    std::vector<double> probeRate;          //!< HostProbe ops per second.
    std::vector<double> setupSeconds;
    std::vector<double> peakRssMb; //!< Largest end-of-run resident set.

    /** Records one pass. */
    void addPass(double events, double run_seconds, double probe_rate,
                 double setup_seconds, double peak_rss_mb);

    /** @{ Per-pass figures scaled to the reference host. */
    std::vector<double> eventsPerSecond() const;
    std::vector<double> setupOnReference() const;
    /** @} */
};

/**
 * The end-to-end metrics, in BENCHMARK.json order: host throughput and
 * set-up time on the reference host (medians over passes), peak memory,
 * and the simulated hardware figures of one pass.
 */
MetricList endToEndMetrics(const SimTotals &sim, const HostPasses &host);

/**
 * Registry samples summed over cells: sum(path) adds a counter across
 * cells, max(path) keeps the largest value any cell reported.
 */
class SampleSums
{
  public:
    void add(const std::vector<dewrite::obs::MetricSample> &samples);

    /** Adds @p value under @p path (for counters kept outside a
     * registry, such as a service shard's batch former). */
    void add(const std::string &path, double value);

    double sum(const std::string &path) const;
    double max(const std::string &path) const;

    /** Mean over the cells that reported @p path (0 if none did). */
    double mean(const std::string &path) const;

  private:
    struct Entry
    {
        double sum = 0.0;
        double max = 0.0;
        std::uint64_t count = 0;
    };
    std::map<std::string, Entry> entries_;
};

/**
 * Host time of the traced passes, per pass. The spans nest as
 * sim.run > cpu loop (CoreModel::runMulti) > {TraceSource::next,
 * MemController::writeBatch, MemController::readTiming}, so every part
 * is a self time and the parts add up to simRun exactly.
 */
struct LayerTimes
{
    double construct = 0.0;   //!< System (and source) construction.
    double simRun = 0.0;      //!< Traced run, whole.
    double coreLoop = 0.0;    //!< CoreModel::runMulti span.
    double traceNext = 0.0;   //!< Inside TraceSource::next.
    double ctlWrite = 0.0;    //!< Inside MemController::writeBatch.
    double ctlRead = 0.0;     //!< Inside MemController::readTiming.
    double writeCalls = 0.0;  //!< writeBatch calls.
    double readCalls = 0.0;   //!< readTiming calls.
    double untracedRun = 0.0; //!< Same cells' System::run, untraced.

    /** CoreModel's own time: its span minus its children. */
    double cpuSelf() const { return coreLoop - traceNext - ctlWrite - ctlRead; }

    /** sim.run outside the core loop (run-end accounting). */
    double residual() const { return simRun - coreLoop; }
};

/** Service-layer measurements of the traced passes, per pass. */
struct ServiceLayers
{
    double run = 0.0;      //!< DedupService::run.
    double producer = 0.0; //!< TenantMux replay of the same events.
    double skewCv = 0.0;
    double shardEventsMin = 0.0;
    double shardEventsMax = 0.0;
};

/**
 * The per-layer metrics, in BENCHMARK.json order. Every name is always
 * present; a layer a workload does not exercise reads 0. @p counts
 * holds one pass's registry samples, summed over cells or shards.
 */
MetricList layerMetrics(const LayerTimes &times, const SampleSums &counts,
                        const SimTotals &sim, const ServiceLayers &service,
                        const HostPasses &host, const CheckTally &checks);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
