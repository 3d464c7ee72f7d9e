/**
 * @file
 * End-to-end simulation throughput of the experiment matrix.
 *
 * Runs the full Figure 12 workload matrix (every catalog app under the
 * secure baseline and all three DeWrite modes) and reports host-side
 * events per second — the number the flat-container and crypto-kernel
 * work optimizes. Results go to stdout as a table and to
 * BENCH_throughput.json (in the working directory) for tracking across
 * commits; the JSON includes each scheme's runner profile (per-cell
 * wall time, queue wait, per-worker busy time) so scaling regressions
 * show up alongside the throughput number.
 *
 * Events per cell come from DEWRITE_EVENTS (default 120000); pass
 * --quick for a 20x shorter run with the same shape.
 *
 * The JSON additionally carries a per-scheme parity fingerprint
 * (CRC-32 over every cell's canonical result signature), the
 * per-stage host-cycle breakdown
 * (digest/probe/pad/confirm-read/commit, from DEWRITE_STAGE_PROFILE,
 * which this bench enables unless the environment overrides it), and
 * an events/sec ratio of each dewrite mode against the secure
 * baseline — the tentpole's ≥0.8 target for dewrite-predicted.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/table_printer.hh"
#include "obs/bench_report.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"

using namespace dewrite;

namespace {

/** The per-stage gauges DedupEngine registers under stage profiling. */
constexpr const char *kStageNames[] = { "digest", "probe", "pad",
                                        "confirm_read", "commit" };

struct SchemeTiming
{
    std::string name;
    std::size_t cells = 0;
    std::uint64_t events = 0;
    double seconds = 0.0;
    RunnerProfile profile;

    std::uint32_t fingerprint = 0;    //!< CRC-32 over cell signatures.
    double stageCycles[5] = { 0.0 };  //!< Summed over cells.
    bool hasStageCycles = false;      //!< Any stage sample observed.

    double eventsPerSec() const
    {
        return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    // Stage attribution is this bench's whole point; keep it on by
    // default but let the environment force it off (overwrite=0).
    // NOLINTNEXTLINE(concurrency-mt-unsafe): first line of main, no
    // threads exist yet.
    setenv("DEWRITE_STAGE_PROFILE", "1", 0);

    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const std::uint64_t events =
        quick ? experimentEvents() / 20 : experimentEvents();

    SystemConfig config;
    const std::vector<AppProfile> &apps = appCatalog();
    const std::vector<std::pair<std::string, SchemeOptions>> schemes = {
        { "secure-baseline", secureBaselineScheme() },
        { "dewrite-direct", dewriteScheme(DedupMode::Direct) },
        { "dewrite-parallel", dewriteScheme(DedupMode::Parallel) },
        { "dewrite-predicted", dewriteScheme(DedupMode::Predicted) },
    };

    std::printf("End-to-end throughput: %zu apps x %zu schemes, "
                "%llu events/cell\n\n",
                apps.size(), schemes.size(),
                static_cast<unsigned long long>(events));

    std::vector<SchemeTiming> timings;
    std::uint64_t total_events = 0;
    double total_seconds = 0.0;
    for (const auto &[name, scheme] : schemes) {
        SchemeTiming timing;
        timing.name = name;
        const auto cells = runMatrix(apps, { scheme }, config, events, 0,
                                     &timing.profile);
        timing.seconds = timing.profile.wallSeconds;
        timing.cells = cells.size();
        std::string signatures;
        for (const auto &cell : cells) {
            timing.events += cell.run.events;
            signatures += resultSignature(cell);
            for (const obs::MetricSample &sample : cell.metrics) {
                for (std::size_t s = 0; s < 5; ++s) {
                    if (sample.path == std::string("controller.dedup."
                                                   "stage.") +
                                           kStageNames[s] + "_cycles") {
                        timing.stageCycles[s] += sample.value;
                        timing.hasStageCycles = true;
                    }
                }
            }
        }
        timing.fingerprint = crc32(
            reinterpret_cast<const std::uint8_t *>(signatures.data()),
            signatures.size());
        total_events += timing.events;
        total_seconds += timing.seconds;
        timings.push_back(std::move(timing));
    }

    const double table_baseline =
        timings.empty() ? 0.0 : timings.front().eventsPerSec();
    TablePrinter table({ "scheme", "cells", "events", "wall (s)",
                         "events/sec", "vs base", "util" });
    for (const SchemeTiming &t : timings) {
        table.addRow({ t.name, std::to_string(t.cells),
                       std::to_string(t.events),
                       TablePrinter::num(t.seconds),
                       TablePrinter::num(t.eventsPerSec(), 0),
                       table_baseline > 0
                           ? TablePrinter::num(
                                 t.eventsPerSec() / table_baseline, 2)
                           : "-",
                       TablePrinter::num(t.profile.utilization(), 2) });
    }
    const double overall =
        total_seconds > 0 ? static_cast<double>(total_events) /
                                total_seconds
                          : 0.0;
    table.addRow({ "TOTAL", "-", std::to_string(total_events),
                   TablePrinter::num(total_seconds),
                   TablePrinter::num(overall, 0), "-", "-" });
    table.print();

    obs::BenchReport report("throughput", events, runnerThreads());
    if (!report.opened())
        return 1;
    obs::JsonWriter &w = report.json();
    w.key("schemes");
    w.beginArray();
    for (const SchemeTiming &t : timings) {
        w.beginObject();
        w.field("scheme", t.name);
        w.field("cells", static_cast<std::uint64_t>(t.cells));
        w.field("events", t.events);
        w.field("wall_seconds", t.seconds);
        w.field("events_per_sec", t.eventsPerSec());
        w.field("result_fingerprint",
                static_cast<std::uint64_t>(t.fingerprint));
        // Only schemes that registered stage gauges (dedup modes under
        // DEWRITE_STAGE_PROFILE) carry the block; an all-zero block
        // for the secure baseline would read as "profiled, free".
        if (t.hasStageCycles) {
            w.key("stage_cycles");
            w.beginObject();
            for (std::size_t s = 0; s < 5; ++s)
                w.field(kStageNames[s], t.stageCycles[s]);
            w.endObject();
        }
        w.key("profile");
        t.profile.writeJson(w);
        w.endObject();
    }
    w.endArray();

    // Each dewrite mode's host throughput relative to the secure
    // baseline (the tentpole tracks dewrite-predicted ≥ 0.8).
    const double baseline_eps = timings.empty()
        ? 0.0
        : timings.front().eventsPerSec();
    w.key("ratios");
    w.beginObject();
    for (const SchemeTiming &t : timings) {
        if (t.name == "secure-baseline")
            continue;
        w.field(t.name,
                baseline_eps > 0 ? t.eventsPerSec() / baseline_eps
                                 : 0.0);
    }
    w.endObject();

    w.field("total_events", total_events);
    w.field("total_wall_seconds", total_seconds);
    w.field("events_per_sec", overall);
    if (!report.close()) {
        std::fprintf(stderr, "failed writing %s\n",
                     report.path().c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", report.path().c_str());
    return 0;
}
