/**
 * @file
 * Aggregate throughput of the sharded multi-tenant dedup service.
 *
 * Runs the DedupService over a bursty 16-tenant mix at shard counts
 * {1, 2, 4, 8} — each with as many worker threads as shards — and
 * reports aggregate host events/sec per configuration, plus the
 * speedup of every configuration over the 1-shard/1-thread baseline.
 * When DEWRITE_SHARDS is set, only that one configuration runs.
 *
 * Every configuration is also parity-checked in-process: each shard's
 * result fingerprint must equal an independent single-shard System run
 * over the same trace partition (DedupService::runShardReference). A
 * parity mismatch is a correctness bug and exits non-zero; a low
 * speedup is not — the container CI host exposes a single CPU, where
 * no parallel speedup is attainable, so the JSON records host_cpus
 * alongside the measured ratios and the ≥3x goal at 8 shards is
 * asserted only by eye on multi-core hosts (see ROADMAP.md).
 *
 * Results go to BENCH_service.json; `check_bench_schema.py --parity
 * BENCH_service.json` re-verifies the recorded fingerprints offline.
 * Events come from DEWRITE_EVENTS (default 120000); --quick runs 20x
 * shorter with the same shape.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/table_printer.hh"
#include "obs/bench_report.hh"
#include "service/dedup_service.hh"
#include "sim/parallel_runner.hh"

using namespace dewrite;

namespace {

struct ShardRow
{
    std::uint64_t events = 0;
    std::uint32_t serviceFingerprint = 0;
    std::uint32_t referenceFingerprint = 0;
};

struct ConfigRow
{
    std::size_t shards = 0;
    unsigned threads = 0;
    std::uint64_t totalEvents = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    std::vector<ShardRow> perShard;

    bool
    parityOk() const
    {
        for (const ShardRow &row : perShard)
            if (row.serviceFingerprint != row.referenceFingerprint)
                return false;
        return true;
    }
};

ServiceOptions
benchOptions(std::size_t shards, std::uint64_t events)
{
    ServiceOptions options;
    options.shards = shards;
    options.threads = static_cast<unsigned>(shards);
    options.tenants = 16;
    options.linesPerTenant = 4096;
    options.burstMax = 32;
    options.roundEvents = 4096;
    options.totalEvents = events;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const std::uint64_t events =
        quick ? experimentEvents() / 20 : experimentEvents();

    // DEWRITE_SHARDS pins a single configuration; otherwise sweep the
    // scaling shape the tentpole tracks.
    std::vector<std::size_t> counts = { 1, 2, 4, 8 };
    // Presence check only; the value itself still parses fail-fast
    // through serviceShards().
    // dewrite-lint: allow(env-fail-fast)
    if (envRaw("DEWRITE_SHARDS"))
        counts = { serviceShards() };

    std::printf("Sharded dedup service: %llu events, 16 tenants, "
                "shards x threads sweep\n\n",
                static_cast<unsigned long long>(events));

    std::vector<ConfigRow> rows;
    bool parity_ok = true;
    for (const std::size_t shards : counts) {
        const ServiceOptions options = benchOptions(shards, events);
        DedupService service(options);
        const ServiceResult result = service.run();

        ConfigRow row;
        row.shards = shards;
        row.threads = result.threads;
        row.totalEvents = result.totalEvents;
        row.wallSeconds = result.hostSeconds;
        row.eventsPerSec = result.eventsPerSecond;
        for (std::size_t k = 0; k < result.shards.size(); ++k) {
            ShardRow shard;
            shard.events = result.shards[k].events;
            shard.serviceFingerprint = result.shards[k].fingerprint;
            shard.referenceFingerprint = resultFingerprint(
                DedupService::runShardReference(options, k,
                                                shard.events));
            row.perShard.push_back(shard);
        }
        parity_ok = parity_ok && row.parityOk();
        rows.push_back(std::move(row));

        if (service.telemetrySink().enabled()) {
            std::printf("telemetry: %llu snapshot(s) -> %s (+ %s)\n",
                        static_cast<unsigned long long>(
                            service.telemetrySnapshots()),
                        service.telemetrySink().jsonlPath().c_str(),
                        service.telemetrySink().promPath().c_str());
        }
    }

    const double base_eps = rows.front().eventsPerSec;
    TablePrinter table({ "shards", "threads", "events", "wall (s)",
                         "events/sec", "speedup", "parity" });
    for (const ConfigRow &row : rows) {
        table.addRow({ std::to_string(row.shards),
                       std::to_string(row.threads),
                       std::to_string(row.totalEvents),
                       TablePrinter::num(row.wallSeconds),
                       TablePrinter::num(row.eventsPerSec, 0),
                       base_eps > 0
                           ? TablePrinter::num(row.eventsPerSec /
                                                   base_eps,
                                               2)
                           : "-",
                       row.parityOk() ? "ok" : "MISMATCH" });
    }
    table.print();
    std::printf("\nhost CPUs: %u (speedup needs as many cores as "
                "threads)\n",
                std::thread::hardware_concurrency());

    obs::BenchReport report("service", events, runnerThreads());
    if (!report.opened())
        return 1;
    obs::JsonWriter &w = report.json();
    w.field("host_cpus", static_cast<std::uint64_t>(
                             std::thread::hardware_concurrency()));
    w.field("tenants", std::uint64_t{ 16 });
    w.key("configs");
    w.beginArray();
    for (const ConfigRow &row : rows) {
        w.beginObject();
        w.field("shards", static_cast<std::uint64_t>(row.shards));
        w.field("threads", static_cast<std::uint64_t>(row.threads));
        w.field("events", row.totalEvents);
        w.field("wall_seconds", row.wallSeconds);
        w.field("events_per_sec", row.eventsPerSec);
        w.field("speedup_vs_1shard",
                base_eps > 0 ? row.eventsPerSec / base_eps : 0.0);
        w.key("shards_detail");
        w.beginArray();
        for (std::size_t k = 0; k < row.perShard.size(); ++k) {
            const ShardRow &shard = row.perShard[k];
            w.beginObject();
            w.field("shard", static_cast<std::uint64_t>(k));
            w.field("events", shard.events);
            w.field("service_fingerprint",
                    static_cast<std::uint64_t>(
                        shard.serviceFingerprint));
            w.field("reference_fingerprint",
                    static_cast<std::uint64_t>(
                        shard.referenceFingerprint));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.field("parity_ok", parity_ok);
    if (!report.close()) {
        std::fprintf(stderr, "failed writing %s\n",
                     report.path().c_str());
        return 1;
    }
    std::printf("wrote %s\n", report.path().c_str());

    if (!parity_ok) {
        std::fprintf(stderr,
                     "PARITY MISMATCH: a shard diverged from its "
                     "independent reference run\n");
        return 1;
    }
    return 0;
}
