/**
 * @file
 * Host-cycle attribution for the dedup write path (DESIGN.md §5f).
 *
 * With DEWRITE_STAGE_PROFILE=1, the dedup engine timestamps each write
 * pipeline stage — digest, metadata probe, pad generation, confirm
 * read, commit, and within commit its metadata-cache walk and its
 * device write — with the host TSC and accumulates cycles per stage;
 * the sums surface as registry gauges under "controller.dedup.stage.*"
 * and bench_throughput records them per scheme, so the dewrite /
 * secure-baseline throughput gap is attributable to a stage instead of
 * a guess.
 *
 * Off by default for two reasons: the timestamps cost a pair of rdtsc
 * per stage entry, and — more importantly — leaving the stage gauges
 * unregistered keeps the default MetricRegistry snapshot byte-identical
 * to an unprofiled build.
 *
 * Stages attribute *work*, not disjoint wall time: a pad generated
 * lazily inside a confirm-read compare accrues to both "pad" and
 * "confirm_read", and commit_metadata/commit_device are parts of the
 * inclusive "commit", so the per-stage sums can exceed the end-to-end
 * total.
 */

#ifndef DEWRITE_OBS_STAGE_PROFILE_HH
#define DEWRITE_OBS_STAGE_PROFILE_HH

#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace dewrite {
namespace obs {

/**
 * Whether stage profiling is on (DEWRITE_STAGE_PROFILE, strict 0/1,
 * default off). Latched on first call so a run cannot change its mind
 * mid-flight.
 */
bool stageProfileEnabled();

/** Per-stage accumulated host cycles of one engine's write pipeline. */
struct StageCycles
{
    std::uint64_t digest = 0;      //!< CRC fingerprinting.
    std::uint64_t probe = 0;       //!< Hash-store / metadata probes.
    std::uint64_t pad = 0;         //!< AES-NI OTP generation.
    std::uint64_t confirmRead = 0; //!< Candidate reads + compares.
    std::uint64_t commit = 0;      //!< Metadata installs + line write.
    /** The part of commit spent in metadata-cache accesses. */
    std::uint64_t commitMetadata = 0;
    /** The part of commit spent in the data-line device write. */
    std::uint64_t commitDevice = 0;
};

/** Monotonic host cycle counter (TSC; ns-granular fallback). */
inline std::uint64_t
stageClock()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/**
 * RAII stage timer: accumulates the scope's cycles into @p sink, or
 * does nothing when @p sink is null (profiling off — the hot path pays
 * one branch).
 */
class StageTimer
{
  public:
    explicit StageTimer(std::uint64_t *sink)
        : sink_(sink), start_(sink ? stageClock() : 0)
    {
    }

    ~StageTimer()
    {
        if (sink_)
            *sink_ += stageClock() - start_;
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    std::uint64_t *sink_;
    std::uint64_t start_;
};

} // namespace obs
} // namespace dewrite

#endif // DEWRITE_OBS_STAGE_PROFILE_HH
