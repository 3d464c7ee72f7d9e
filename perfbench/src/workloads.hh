/**
 * @file
 * The benchmark's workloads (perfbench/README.md explains the choice).
 *
 * Every run has two phases. An untimed verification pass first
 * simulates the whole workload once with read-back recording, checks
 * every output and keeps each cell's result fingerprint; it doubles as
 * the warm-up that builds the AES, CRC and Zipf tables and the
 * huge-page pool. The measured phase then repeats the workload in
 * whole passes until the time budget is spent, with nothing but the
 * simulator inside the timed spans; each cell's fingerprint must match
 * the verified one.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "metrics.hh"
#include "sim/system.hh"

namespace perfbench {

/** Trace events per catalog cell: the library's steady-state default. */
inline constexpr std::uint64_t kCellEvents = 120000;

/** Total events of one service run, split over its shards. */
inline constexpr std::uint64_t kServiceEvents = 1000000;

/** The command line, validated. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

/** What one run measured and checked. */
struct WorkloadReport
{
    CheckTally checks;
    HostPasses host;
    MetricList metrics;
    unsigned passes = 0;      //!< Measured passes.
    unsigned hostThreads = 1; //!< Host threads inside a timed span.
};

/** catalog-dewrite / catalog-baseline: all apps under @p scheme. */
WorkloadReport runCatalog(const RunConfig &config,
                          const dewrite::SchemeOptions &scheme);

/** service-2shard. */
WorkloadReport runService(const RunConfig &config);

/** Seconds elapsed since @p start on the steady clock. */
double secondsSince(std::uint64_t start_ns);

/** Steady-clock now, in nanoseconds. */
std::uint64_t nowNs();

/** Resident set size of this process now, MB. */
double residentMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
