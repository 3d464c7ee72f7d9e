/**
 * @file
 * perfbench: one benchmark run of one workload.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints a provenance line, then as its last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exits 2 on a malformed command line and 1 when a check failed.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/version_info.hh"
#include "sim/experiment.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<catalog-dewrite|catalog-baseline|service-2shard> "
                 "--seed <n> --seconds <1..600> --trace <0|1>\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *flag, const char *text, std::uint64_t max)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno || end == text || *end != '\0' || text[0] == '-' ||
        value > max) {
        const std::string why =
            std::string("bad value for ") + flag + ": '" + text + "'";
        usage(why.c_str());
    }
    return value;
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig config;
    bool seen[4] = { false, false, false, false };
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("every flag takes a value");
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            config.workload = value;
            seen[0] = true;
        } else if (flag == "--seed") {
            config.seed = parseUint("--seed", value, 1ULL << 32);
            seen[1] = true;
        } else if (flag == "--seconds") {
            config.seconds =
                static_cast<double>(parseUint("--seconds", value, 600));
            seen[2] = true;
        } else if (flag == "--trace") {
            config.trace = parseUint("--trace", value, 1) == 1;
            seen[3] = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!(seen[0] && seen[1] && seen[2] && seen[3]))
        usage("all four flags are required");
    if (config.seconds < 1)
        usage("--seconds must be at least 1");
    if (config.workload != "catalog-dewrite" &&
        config.workload != "catalog-baseline" &&
        config.workload != "service-2shard") {
        usage(("unknown workload " + config.workload).c_str());
    }
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunConfig config = parseArgs(argc, argv);
    if (config.trace) {
        // The dedup stage counters are latched at first use, so the
        // traced process turns them on before any engine exists.
        // NOLINTNEXTLINE(concurrency-mt-unsafe): no threads exist yet.
        setenv("DEWRITE_STAGE_PROFILE", "1", 1);
    }

    WorkloadReport report;
    if (config.workload == "service-2shard") {
        report = runService(config);
    } else {
        report = runCatalog(config,
                            config.workload == "catalog-dewrite"
                                ? dewrite::dewriteScheme(
                                      dewrite::DedupMode::Predicted)
                                : dewrite::secureBaselineScheme());
    }

    const bool service = config.workload == "service-2shard";
    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"host_cpus\": %u, "
                "\"git_sha\": \"%s\", \"git_dirty\": %s, "
                "\"build_type\": \"%s\", \"events_per_cell\": %llu, "
                "\"cells_per_pass\": %s, \"host_threads\": %u, "
                "\"passes\": %u, \"raw_events_per_s\": %.17g, "
                "\"probe_ops_per_s\": %.17g}}\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0,
                std::thread::hardware_concurrency(), dewrite::obs::kGitSha,
                dewrite::obs::kGitDirty ? "true" : "false",
                PERFBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(service ? kServiceEvents
                                                        : kCellEvents),
                service ? "2" : "20", report.hostThreads, report.passes,
                median(report.host.rawEventsPerSecond),
                median(report.host.probeRate));

    const bool correct =
        report.checks.failed == 0 && report.checks.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.checks.attempted),
                static_cast<unsigned long long>(report.checks.failed));
    const char *sep = "";
    for (const Metric &metric : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    metric.name.c_str(),
                    std::isfinite(metric.value) ? metric.value : 0.0,
                    metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
