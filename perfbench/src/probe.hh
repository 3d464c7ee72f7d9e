/**
 * @file
 * Host-speed probe: a fixed kernel interleaved with the measured work.
 *
 * Host time on a shared machine drifts by tens of percent over tens of
 * seconds as neighbours contend for the cores' caches; every piece of
 * code on the same CPU slows together (see perfbench/README.md). The
 * probe is a dependent read-modify-write walk over an L2-resident
 * buffer. It lives in the benchmark, not in the simulator, so no change
 * to the program can speed it up; timing it next to the simulator turns
 * a raw events/s figure into events/s on a reference host.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <vector>

namespace perfbench {

/** Probe operations per second of the reference host (the scale of
 * normalized rates; a host this fast reports raw rates unchanged). */
inline constexpr double kReferenceProbeRate = 1e8;

/**
 * How far simulator host time moves per unit of probe time, in log
 * terms: the simulator slows about twice as much as the probe when the
 * host slows (fitted 1.4-2.3 on this benchmark's host; README.md).
 */
inline constexpr double kProbeElasticity = 2.0;

class HostProbe
{
  public:
    /** Operations per run(): about 4 ms on the reference host. */
    static constexpr std::uint64_t kOps = 400000;

    HostProbe();

    /** Runs kOps probe operations; returns the seconds they took. */
    double run();

  private:
    std::vector<std::uint64_t> buffer_;
    std::uint64_t state_ = 0;
};

/**
 * Probe rate of @p threads host threads at once, one probe each (the
 * service spreads over that many CPUs): mean operations per second.
 */
double concurrentProbeRate(unsigned threads);

/**
 * Host slowness factor: (kReferenceProbeRate / @p probe_rate) raised to
 * kProbeElasticity. A rate measured on that host times the factor, or
 * a time divided by it, is the figure on the reference host.
 */
double hostFactor(double probe_rate);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
