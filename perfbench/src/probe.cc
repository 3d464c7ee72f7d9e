/**
 * @file
 * Host-speed probe.
 */

#include "probe.hh"

#include <cmath>
#include <thread>

#include "workloads.hh"

namespace perfbench {

namespace {

/** 256 KiB: resident in one core's L2, where the simulator's hot
 * tables also live and where neighbours' contention shows first. */
constexpr std::size_t kProbeWords = 1u << 15;

} // namespace

HostProbe::HostProbe() : buffer_(kProbeWords, 1)
{
    run(); // Fault the buffer in and warm the caches.
}

double
HostProbe::run()
{
    const std::uint64_t start = nowNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = state_;
    const std::uint64_t mask = kProbeWords - 1;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Each address depends on the previous load: latency-bound.
        const std::uint64_t index = (x ^ acc) & mask;
        acc += buffer_[index];
        buffer_[(index * 7) & mask] = acc + i;
    }
    state_ = acc;
    return static_cast<double>(nowNs() - start) * 1e-9;
}

double
concurrentProbeRate(unsigned threads)
{
    std::vector<double> seconds(threads, 0.0);
    {
        std::vector<std::jthread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&seconds, t] {
                HostProbe probe;
                seconds[t] = probe.run();
            });
        }
    } // jthreads join here, on every path.
    double rate = 0.0;
    for (double s : seconds)
        rate += static_cast<double>(HostProbe::kOps) / s;
    return rate / threads;
}

double
hostFactor(double probe_rate)
{
    return std::pow(kReferenceProbeRate / probe_rate, kProbeElasticity);
}

} // namespace perfbench
