/**
 * @file
 * Detection-policy ablation (DESIGN.md §5j): the paper's confirm-read
 * scheme against the unsafe weak-only ablation, the two-tier
 * weak+strong fingerprint scheme, and the adaptive per-epoch
 * controller, across the full 20-application catalog.
 *
 * For each policy the sweep reports detection latency, confirmation
 * reads paid and avoided, strong-fingerprint activity, write
 * reduction, bit flips, and host events/sec. Results go to stdout and
 * to BENCH_detection.json (schema v2) with one *detection parity
 * fingerprint* per policy — a CRC-32 over the per-app decision-level
 * signatures (detectionSignature). On collision-free traces every
 * confirming policy resolves the same candidates to the same verdicts,
 * so the weak+strong and adaptive fingerprints must equal the
 * confirm-read one byte-for-byte; the bench exits non-zero when they
 * do not, or when a confirming policy fails to reduce confirmation
 * reads.
 *
 * Two knobs make the parity pin well-defined. PNA is disabled:
 * prediction-gated NVM queries make authoritativeness depend on
 * metadata-cache contents, which the policies legitimately warm
 * differently — with PNA on, the pin would compare cache luck instead
 * of detection logic. And the cells run on a single core: the CPU
 * model issues the globally earliest event across cores, so with
 * multiple cores a faster detection path reorders the interleaved
 * trace streams and changes which writes even occur. One core fixes
 * the event order, leaving content as the only input to every verdict.
 *
 * Events per cell come from DEWRITE_EVENTS (default 120000); pass
 * --quick for a 20x shorter run with the same shape.
 */

#include <cstdio>
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

/**
 * Adaptive epoch length used by the sweep: short enough that even a
 * --quick cell (6k events) rolls several epochs, long enough for a
 * meaningful duplicate-ratio estimate.
 */
constexpr std::uint64_t kEpochWrites = 512;

constexpr DetectPolicy kPolicies[] = {
    DetectPolicy::ConfirmRead,
    DetectPolicy::WeakOnly,
    DetectPolicy::WeakStrong,
    DetectPolicy::Adaptive,
};

/** Aggregates of one policy's 20-app sweep. */
struct PolicyRun
{
    const char *name = nullptr;
    std::size_t cells = 0;
    std::uint64_t events = 0;
    double seconds = 0.0;
    RunnerProfile profile;

    std::uint64_t writes = 0;
    std::uint64_t writesEliminated = 0;
    std::uint64_t bitsProgrammed = 0;
    double detects = 0.0;
    double detectPs = 0.0;
    double confirmReads = 0.0;
    double confirmReadsAvoided = 0.0;
    double strongFpComputes = 0.0;
    double strongFpHits = 0.0;
    double modeSwitches = 0.0;
    double unsafeCorruptions = 0.0;

    std::uint32_t fingerprint = 0; //!< CRC-32 over detection signatures.

    double eventsPerSec() const
    {
        return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
    }

    double avgDetectNs() const
    {
        return detects > 0 ? detectPs / detects / 1000.0 : 0.0;
    }

    double writeReduction() const
    {
        return writes > 0 ? static_cast<double>(writesEliminated) /
                static_cast<double>(writes)
                          : 0.0;
    }
};

double
metricValue(const ExperimentResult &cell, const char *path)
{
    for (const obs::MetricSample &sample : cell.metrics) {
        if (sample.path == path)
            return sample.value;
    }
    return 0.0;
}

PolicyRun
runPolicy(DetectPolicy policy, const std::vector<AppProfile> &apps,
          const SystemConfig &config, std::uint64_t events)
{
    SchemeOptions scheme = dewriteScheme(DedupMode::Predicted);
    scheme.dewrite.detect = policy;
    scheme.dewrite.detectEpochWrites = kEpochWrites;
    scheme.dewrite.pnaEnabled = false;

    PolicyRun run;
    run.name = detectPolicyName(policy);
    const auto cells =
        runMatrix(apps, { scheme }, config, events, 0, &run.profile);
    run.seconds = run.profile.wallSeconds;
    run.cells = cells.size();

    std::string signatures;
    for (const ExperimentResult &cell : cells) {
        run.events += cell.run.events;
        run.writes += cell.run.writes;
        run.writesEliminated += cell.run.writesEliminated;
        run.bitsProgrammed += cell.run.bitsProgrammed;
        run.detects +=
            metricValue(cell, "controller.dedup.detect.detects");
        run.detectPs += metricValue(
            cell, "controller.dedup.detect.latency_ps_total");
        run.confirmReads +=
            metricValue(cell, "controller.dedup.detect.confirm_reads");
        run.confirmReadsAvoided += metricValue(
            cell, "controller.dedup.detect.confirm_reads_avoided");
        run.strongFpComputes += metricValue(
            cell, "controller.dedup.detect.strong_fp_computes");
        run.strongFpHits += metricValue(
            cell, "controller.dedup.detect.strong_fp_hits");
        run.modeSwitches +=
            metricValue(cell, "controller.dedup.detect.mode_switches");
        run.unsafeCorruptions += cell.stats.get("unsafe_corruptions");
        signatures += detectionSignature(cell);
    }
    run.fingerprint = crc32(
        reinterpret_cast<const std::uint8_t *>(signatures.data()),
        signatures.size());
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const std::uint64_t events =
        quick ? experimentEvents() / 20 : experimentEvents();

    SystemConfig config;
    // Single core: multi-core cells issue the globally earliest event,
    // so detection latency would reorder the trace interleaving and
    // the policies would no longer see the same write stream (see the
    // file comment). One core pins the event order.
    config.numCores = 1;
    const std::vector<AppProfile> &apps = appCatalog();

    std::printf("Detection-policy ablation: %zu apps x %zu policies, "
                "%llu events/cell (adaptive epoch %llu writes)\n\n",
                apps.size(), std::size(kPolicies),
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(kEpochWrites));

    std::vector<PolicyRun> runs;
    for (DetectPolicy policy : kPolicies)
        runs.push_back(runPolicy(policy, apps, config, events));

    TablePrinter table({ "policy", "detect (ns)", "confirm reads",
                         "avoided", "fp computes", "eliminated",
                         "bit flips", "events/sec" });
    for (const PolicyRun &r : runs) {
        table.addRow({ r.name, TablePrinter::num(r.avgDetectNs(), 1),
                       TablePrinter::num(r.confirmReads, 0),
                       TablePrinter::num(r.confirmReadsAvoided, 0),
                       TablePrinter::num(r.strongFpComputes, 0),
                       TablePrinter::percent(r.writeReduction()),
                       std::to_string(r.bitsProgrammed),
                       TablePrinter::num(r.eventsPerSec(), 0) });
    }
    table.print();

    // Parity: every confirming policy must produce decision-identical
    // results on these (collision-free) traces; weak-only is reported
    // but not pinned — trusting the CRC is exactly what it ablates.
    const PolicyRun &confirm = runs[0];
    const PolicyRun &weak_only = runs[1];
    const PolicyRun &strong = runs[2];
    const PolicyRun &adaptive = runs[3];
    const bool strong_parity = strong.fingerprint == confirm.fingerprint;
    const bool adaptive_parity =
        adaptive.fingerprint == confirm.fingerprint;
    // The perf claim itself: both two-tier policies must resolve some
    // confirmations by fingerprint instead of a read.
    const bool strong_reduces =
        strong.confirmReads < confirm.confirmReads &&
        strong.confirmReadsAvoided > 0;
    const bool adaptive_reduces =
        adaptive.confirmReads < confirm.confirmReads &&
        adaptive.confirmReadsAvoided > 0;

    std::printf("\nparity: weak-strong %s, adaptive %s; "
                "confirm reads %s/%s reduced\n",
                strong_parity ? "ok" : "MISMATCH",
                adaptive_parity ? "ok" : "MISMATCH",
                strong_reduces ? "ok" : "NOT",
                adaptive_reduces ? "ok" : "NOT");

    obs::BenchReport report("detection", events, runnerThreads());
    if (!report.opened())
        return 1;
    obs::JsonWriter &w = report.json();
    w.field("adaptive_epoch_writes", kEpochWrites);
    w.key("policies");
    w.beginArray();
    for (const PolicyRun &r : runs) {
        w.beginObject();
        w.field("policy", r.name);
        w.field("cells", static_cast<std::uint64_t>(r.cells));
        w.field("events", r.events);
        w.field("wall_seconds", r.seconds);
        w.field("events_per_sec", r.eventsPerSec());
        w.field("avg_detect_ns", r.avgDetectNs());
        w.field("confirm_reads", r.confirmReads);
        w.field("confirm_reads_avoided", r.confirmReadsAvoided);
        w.field("strong_fp_computes", r.strongFpComputes);
        w.field("strong_fp_hits", r.strongFpHits);
        w.field("mode_switches", r.modeSwitches);
        w.field("unsafe_corruptions", r.unsafeCorruptions);
        w.field("write_reduction", r.writeReduction());
        w.field("bits_programmed", r.bitsProgrammed);
        w.field("detection_fingerprint",
                static_cast<std::uint64_t>(r.fingerprint));
        w.key("profile");
        r.profile.writeJson(w);
        w.endObject();
    }
    w.endArray();

    w.key("parity");
    w.beginObject();
    w.field("reference", confirm.name);
    w.field("weak_strong_matches", strong_parity);
    w.field("adaptive_matches", adaptive_parity);
    w.field("weak_only_fingerprint",
            static_cast<std::uint64_t>(weak_only.fingerprint));
    w.endObject();

    if (!report.close()) {
        std::fprintf(stderr, "failed writing %s\n",
                     report.path().c_str());
        return 1;
    }
    std::printf("wrote %s\n", report.path().c_str());

    if (!strong_parity || !adaptive_parity) {
        std::fprintf(stderr, "detection parity fingerprints diverged\n");
        return 1;
    }
    if (!strong_reduces || !adaptive_reduces) {
        std::fprintf(stderr,
                     "two-tier policies failed to avoid confirmation "
                     "reads\n");
        return 1;
    }
    return 0;
}
