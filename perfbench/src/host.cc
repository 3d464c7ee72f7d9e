/**
 * @file
 * Host clock and memory readings shared by the workloads.
 */

#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "workloads.hh"

namespace perfbench {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
residentMb()
{
    // statm: total and resident sizes in pages.
    unsigned long long size = 0, resident = 0;
    std::FILE *statm = std::fopen("/proc/self/statm", "r");
    if (statm) {
        if (std::fscanf(statm, "%llu %llu", &size, &resident) != 2)
            resident = 0;
        std::fclose(statm);
    }
    return static_cast<double>(resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

} // namespace perfbench
