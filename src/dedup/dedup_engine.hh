/**
 * @file
 * The deduplication engine: DeWrite's "dedup logic" block (Figure 5).
 *
 * Owns the four metadata structures (hash store, address-mapping table,
 * inverted hash table, free-space bitmap) *functionally* — contents are
 * exact and reads round-trip — while charging all timing and traffic
 * through the metadata cache and the NVM device, so the same object
 * serves both correctness tests and the paper's performance experiments.
 *
 * On the host, the mapping entry, inverted-hash entry, hash-store record
 * and written bit of each line address share one SlotRecord
 * (dedup/slot_table.hh); the simulated metadata cache still charges each
 * table separately.
 *
 * Counter colocation (Section III-C) is centralized here: the per-slot
 * encryption counter lives in whichever of mapping[S] / invertedHash[S]
 * is currently a null entry. Both can be occupied in one corner case the
 * paper does not discuss (slot S holds foreign data while logical S is
 * remapped); those counters spill to a small overflow store whose
 * occupancy is tracked and expected to stay near zero (see DESIGN.md).
 * The record flags which slots spilled and which have a major counter,
 * so the side maps are probed only for those.
 *
 * Write-path split: the memory controller decides *scheduling* (direct /
 * parallel / predicted, Figure 3) by calling detect() and then one of
 * commitDuplicate() / commitUnique() with the time its chosen schedule
 * made the ciphertext available; the engine owns the *semantics*.
 */

#ifndef DEWRITE_DEDUP_DEDUP_ENGINE_HH
#define DEWRITE_DEDUP_DEDUP_ENGINE_HH

#include <cstdint>

#include "cache/metadata_cache.hh"
#include "common/fast_div.hh"
#include "common/flat_map.hh"
#include "common/line.hh"
#include "common/paged_array.hh"
#include "common/stats.hh"
#include "common/timing.hh"
#include "common/types.hh"
// dewrite-analyze: allow(layering) the engine prices candidate
// writes with the controller's bit-flip model; inverting this
// edge would duplicate the Flip-N-Write cost tables
#include "controller/bitlevel/bitflip.hh"
#include "crypto/counter_mode.hh"
#include "dedup/fingerprint.hh"
#include "obs/metric_registry.hh"
#include "obs/stage_profile.hh"
#include "obs/trace_ring.hh"
#include "dedup/free_space.hh"
#include "dedup/hash_store.hh"
#include "dedup/slot_table.hh"

namespace dewrite {

class NvmDevice;

/**
 * How a weak-fingerprint (CRC-32) match is resolved into a duplicate
 * verdict (DESIGN.md §5j). Cryptographic fingerprinters (MD5/SHA-1)
 * are trusted outright and ignore this policy, as before.
 */
enum class DetectPolicy
{
    /** The paper's scheme: read the candidate line and compare. */
    ConfirmRead = 0,
    /** Trust the CRC. Saves the confirmation entirely but silently
     *  corrupts data on a collision — ablation only. */
    WeakOnly = 1,
    /** Two-tier: compare 128-bit strong fingerprints cached in the
     *  hash store; fall back to a confirmation read (which also
     *  caches the fingerprint) when the candidate's is not valid. */
    WeakStrong = 2,
    /** Per-epoch choice between ConfirmRead and WeakStrong from the
     *  observed duplicate ratio, with hysteresis. */
    Adaptive = 3,
};

/** Stable identifier of @p policy ("confirm-read", "weak-only", ...). */
const char *detectPolicyName(DetectPolicy policy);

/** DEWRITE_DETECT: detection policy, default confirm-read. */
DetectPolicy detectPolicyFromEnv();

/** DEWRITE_DETECT_EPOCH: adaptive epoch length in writes. */
std::uint64_t detectEpochFromEnv();

/** Result of duplication detection for one incoming line. */
struct DetectOutcome
{
    std::uint64_t hash = 0;    //!< Fingerprint of the incoming plaintext.
    bool authoritative = false;//!< Hash store actually consulted (not PNA-skipped).
    bool duplicate = false;    //!< Confirmed duplicate with spare refcount.
    LineAddr dupSlot = kInvalidAddr; //!< Slot holding the identical data.
    Time done = 0;             //!< Absolute time detection resolved.
    unsigned confirmReads = 0; //!< Candidate lines read for confirmation.
};

/** Result of committing one write. */
struct WriteCommit
{
    LineAddr slot = kInvalidAddr; //!< Slot referenced or written.
    bool wroteLine = false;       //!< A data-line NVM write was issued.
    bool reencrypted = false;     //!< Optimistic ciphertext was discarded.
    std::size_t bitsProgrammed = 0; //!< Cells programmed by the write.
    Time done = 0;                //!< Absolute completion time.
};

/** Timing side of a read: all a timing-only caller consumes. */
struct ReadTiming
{
    bool valid = false;    //!< Line had ever been written.
    bool remapped = false; //!< Served through an address mapping.
    Time done = 0;
};

/** Result of a read: its timing plus the decrypted line. */
struct ReadOutcome : ReadTiming
{
    Line data;
};

class DedupEngine
{
  public:
    /** Tunables for ablation studies. */
    struct Options
    {
        /**
         * How weak-fingerprint matches are resolved (DESIGN.md §5j).
         * ConfirmRead is the paper's design and the default; WeakOnly
         * is the unsafe ablation that trusts the 32-bit hash;
         * WeakStrong compares cached 128-bit strong fingerprints;
         * Adaptive switches between ConfirmRead and WeakStrong per
         * epoch from the observed duplicate ratio.
         */
        DetectPolicy detect = DetectPolicy::ConfirmRead;

        /**
         * Bit-level write-reduction technique applied to the unique
         * writes DeWrite cannot eliminate (Figure 13 composition).
         * Non-owning; null programs full lines.
         */
        BitLevelReducer *reducer = nullptr;

        /**
         * Hardware bound on candidates examined per detection. CRC
         * chains are almost always length one; pathological chains
         * (e.g. pinned saturated records of a popular content) are cut
         * off here and the write proceeds as unique.
         */
        unsigned maxChainProbe = 4;

        /**
         * Fingerprint function. CRC-32 is DeWrite's choice (cheap,
         * confirmed by read); MD5/SHA-1 configure the traditional
         * cryptographic-fingerprint comparator of Table I, whose
         * matches are trusted without a confirmation read. When using
         * a cryptographic function, set
         * MemoryConfig::hashDigestBits to match for space accounting.
         */
        HashFunction hashFunction = HashFunction::Crc32;

        /**
         * Width of the stored per-line minor counter (the paper's is
         * 28 bits). On wrap a per-line major counter increments so an
         * OTP is never reused — the split-counter discipline. Kept
         * configurable so tests can exercise wraps without 2^28
         * writes.
         */
        unsigned counterBits = 28;

        /**
         * Adaptive-policy epoch length: commits per re-evaluation of
         * the operational detection mode (DEWRITE_DETECT_EPOCH).
         */
        std::uint64_t detectEpochWrites = 4096;
    };

    DedupEngine(const SystemConfig &config, NvmDevice &device,
                MetadataCache &metadata, CounterModeEngine &cme,
                Options options);

    /** Convenience: default options (confirm-by-read enabled). */
    DedupEngine(const SystemConfig &config, NvmDevice &device,
                MetadataCache &metadata, CounterModeEngine &cme);

    /**
     * Duplication detection (Section III-B1): CRC-32, hash-store query,
     * read-and-compare confirmation of candidates.
     *
     * @param allow_nvm_fill When false (PNA for predicted-non-duplicate
     *        writes), a metadata-cache miss terminates detection as
     *        non-authoritative instead of querying the in-NVM table.
     */
    DetectOutcome detect(const Line &plaintext, Time now,
                         bool allow_nvm_fill);

    /**
     * Commits a write whose content detect() confirmed at
     * @p detect.dupSlot: bumps the reference, remaps @p init_addr,
     * releases whatever @p init_addr referenced before. No data line is
     * written.
     */
    WriteCommit commitDuplicate(LineAddr init_addr,
                                const DetectOutcome &detect, Time now);

    /**
     * Commits a unique (or prediction-missed) write: chooses a slot
     * (in place when @p init_addr owns its slot exclusively, otherwise
     * allocated), bumps the slot counter, encrypts, writes the line,
     * and installs the metadata.
     *
     * @param encrypt_ready Absolute time the controller's schedule made
     *        the optimistic ciphertext available (encryption overlapped
     *        with detection uses the line's own slot and counter; if
     *        the commit lands elsewhere the engine re-encrypts and
     *        charges the extra latency and energy).
     */
    WriteCommit commitUnique(LineAddr init_addr, const Line &plaintext,
                             std::uint64_t hash, Time now,
                             Time encrypt_ready);

    /** Reads logical line @p init_addr through the mapping (Figure 11). */
    ReadOutcome read(LineAddr init_addr, Time now);

    /**
     * read() for callers that discard the data: the same timing,
     * energy and stat effects, with no line materialized — the
     * host-side decrypt (pad lookup plus line XOR) is skipped.
     */
    ReadTiming readTiming(LineAddr init_addr, Time now)
    {
        LineAddr slot = kInvalidAddr;
        return timedRead(init_addr, now, slot);
    }

    /** @{ Structure access for tests and benches. */
    const HashStore &hashStore() const { return hashStore_; }
    /** Mapping, inverted-hash and written state, one record per line. */
    const SlotTable &slots() const { return slots_; }
    const FreeSpaceTable &freeSpace() const { return fsm_; }
    /** @} */

    /** Slots whose counter had to spill outside both tables. */
    std::size_t overflowCounters() const { return overflow_.size(); }

    /**
     * Where slot @p slot's encryption counter is currently embedded
     * (Section III-C colocation) — the per-write trace records this.
     */
    obs::CounterHome counterHome(LineAddr slot) const;

    /**
     * Registers the engine's event counters and derived gauges under
     * @p scope (canonically "controller.dedup"). Legacy names preserve
     * the historical DeWrite StatSet keys.
     */
    void registerMetrics(obs::MetricRegistry::Scope scope) const;

    /** The fingerprint function in use. */
    const Fingerprinter &fingerprinter() const { return fingerprinter_; }

    /** Functional encryption counter of slot @p slot (tests). */
    std::uint64_t counterOf(LineAddr slot) const;

    /** Energy consumed by dedup logic and engine-issued AES work. */
    Energy totalEnergy() const { return energy_; }

    /** @{ Event counters. */
    std::uint64_t duplicateCommits() const { return dupCommits_.value(); }
    std::uint64_t uniqueCommits() const { return uniqueCommits_.value(); }
    std::uint64_t silentStores() const { return silentStores_.value(); }
    std::uint64_t collisionMismatches() const
    {
        return collisionMismatches_.value();
    }
    std::uint64_t reencryptions() const { return reencryptions_.value(); }
    std::uint64_t unsafeCorruptions() const
    {
        return unsafeCorruptions_.value();
    }
    std::uint64_t missedByPna() const { return missedByPna_.value(); }
    std::uint64_t counterWraps() const { return counterWraps_.value(); }
    std::uint64_t missedBySaturation() const
    {
        return missedBySaturation_.value();
    }
    std::uint64_t confirmReads() const { return confirmReads_.value(); }
    std::uint64_t confirmReadsAvoided() const
    {
        return confirmReadsAvoided_.value();
    }
    std::uint64_t strongFpComputes() const
    {
        return strongFpComputes_.value();
    }
    std::uint64_t strongFpHits() const { return strongFpHits_.value(); }
    std::uint64_t strongFpCaches() const
    {
        return strongFpCaches_.value();
    }
    std::uint64_t detectModeSwitches() const
    {
        return detectModeSwitches_.value();
    }
    /** @} */

    /**
     * The detection mode writes currently run under: the configured
     * policy, resolved per epoch when that policy is Adaptive (never
     * Adaptive itself).
     */
    DetectPolicy operationalDetectMode() const
    {
        return options_.detect == DetectPolicy::Adaptive ? adaptiveMode_
                                                         : options_.detect;
    }

    /** Sentinel realAddr: "remapped to nothing" (see DESIGN.md §5). */
    static constexpr LineAddr kNoData = kInvalidAddr;

  private:
    /** Recovery rebuilds the derived structures in place. */
    friend class RecoveryManager;

    /** The audit layer reads overflow_ (DESIGN.md §5e); the test peer
     *  corrupts tables deliberately to prove the auditor names the
     *  right invariant. */
    friend class MetadataAuditor;
    friend class MetadataAuditorTestPeer;

    /**
     * Bumps slot @p slot's minor counter (wrapping into the major
     * counter) and returns the *effective* counter fed to the OTP:
     * major ‖ minor, which never repeats for one slot.
     */
    std::uint64_t bumpCounter(LineAddr slot);

    /** Effective OTP counter of @p slot (major ‖ stored minor). */
    std::uint64_t effectiveCounter(LineAddr slot) const;

    /** Stores @p counter at slot @p slot's current colocation home. */
    void setCounterOf(LineAddr slot, std::uint64_t counter);

    /** counterOf() for slot @p slot, whose record is @p rec. */
    std::uint64_t counterIn(const SlotRecord &rec, LineAddr slot) const;

    /** Major counter of slot @p slot, whose record is @p rec. */
    std::uint64_t majorIn(const SlotRecord &rec, LineAddr slot) const;

    /**
     * Charges the metadata access that fetches slot @p slot's counter
     * and returns the access latency. @p now is the issue time.
     */
    Time chargeCounterAccess(LineAddr slot, Time now);

    /**
     * Drops logical @p init_addr's reference to whatever it currently
     * points at, reclaiming the slot and cleaning the stale hash if the
     * last reference died. Returns the time metadata work finished.
     * The caller must subsequently rewrite mapping[init_addr].
     */
    Time releaseOld(LineAddr init_addr, Time now);

    /**
     * The simulated side of a read; @p slot receives the slot that
     * served it (meaningful only when the result is valid).
     */
    ReadTiming timedRead(LineAddr init_addr, Time now, LineAddr &slot);

    /** True iff logical @p init_addr currently references @p slot. */
    bool references(LineAddr init_addr, LineAddr slot) const;

    /** Hash-store index used for metadata-cache block placement. */
    std::uint64_t hashIndex(std::uint64_t hash) const;

    /**
     * The OTP pad for (@p slot, @p counter), served from the host-side
     * pad cache (exact-keyed, so hits are always correct). Charges
     * nothing; simulated AES time/energy stay with the callers.
     */
    const Line &padFor(LineAddr slot, std::uint64_t counter);

    /**
     * True iff slot @p slot's stored (decrypted) content equals
     * @p plaintext — the confirm compare, fused over the ciphertext,
     * plaintext, and pad so no decrypted line is materialized.
     */
    bool storedEquals(LineAddr slot, const Line &plaintext);

    /**
     * Adaptive-policy epoch accounting: every commit feeds the
     * duplicate ratio; on epoch end the operational mode is
     * re-evaluated with hysteresis (DESIGN.md §5j).
     */
    void noteCommitForEpoch(bool duplicate);

    /** Re-evaluates adaptiveMode_ from the closing epoch's ratio. */
    void rollDetectEpoch();

    /**
     * The slot's stored content, decrypted host-side (an unwritten
     * slot reads as zero, whose decryption is the pad itself) — for
     * caching a mismatching candidate's strong fingerprint.
     */
    Line decryptStored(LineAddr slot);

    /** Stage-cycle sink for @p cycles, or null when profiling is off. */
    std::uint64_t *
    stageSink(std::uint64_t &cycles)
    {
        return stageProfile_ ? &cycles : nullptr;
    }

    /** Commit-split sink for @p cycles: non-null on every
     *  kCommitSplitPeriod-th commit when profiling. */
    std::uint64_t *
    splitSink(std::uint64_t &cycles)
    {
        return stageProfile_ && commitSeq_ % kCommitSplitPeriod == 0
                   ? &cycles
                   : nullptr;
    }

    /** @{ The metadata-cache operations of a commit, their host cycles
     *  charged to the commit_metadata stage on sampled commits; each
     *  returns its latency. */
    Time commitAccess(MetadataTable table, std::uint64_t index,
                      bool is_write, Time now);
    Time commitPost(MetadataTable table, std::uint64_t index, Time now);
    Time commitInsert(MetadataTable table, std::uint64_t index, Time now);
    /** @} */

    const SystemConfig &config_;
    NvmDevice &device_;
    MetadataCache &metadata_;
    CounterModeEngine &cme_;
    Options options_;
    FastDiv hashIndexDiv_; //!< hash % numLines on every store probe.

    Fingerprinter fingerprinter_;
    SlotTable slots_; //!< Declared first: hashStore_ keeps records here.
    HashStore hashStore_{ slots_ };
    FreeSpaceTable fsm_;

    /** Counters homeless in both tables (rare corner; see DESIGN.md);
     *  a slot is here iff its record has kHasOverflow. */
    DenseAddrMap<std::uint64_t> overflow_;

    /**
     * Per-line major counters (split-counter overflow handling). Only
     * lines whose minor counter has wrapped appear here (and have
     * kHasMajor); real designs hold the shared major alongside the
     * page's counters.
     */
    DenseAddrMap<std::uint64_t> majors_;

    /** Host-side memo of generated OTPs (pure optimization). */
    PadCache padCache_;

    /** Host-cycle stage attribution (DEWRITE_STAGE_PROFILE=1 only). */
    obs::StageCycles stageCycles_;
    const bool stageProfile_ = obs::stageProfileEnabled();

    /**
     * The commit_metadata/commit_device split times one commit in this
     * many and its gauges scale the sums back up: a timer pair costs
     * about 90 host cycles, and timing the six or so accesses of every
     * commit would add a third to the inclusive commit stage it splits.
     */
    static constexpr std::uint64_t kCommitSplitPeriod = 64;
    std::uint64_t commitSeq_ = 0; //!< Commits so far.

    Energy energy_ = 0;

    Counter dupCommits_;
    Counter uniqueCommits_;
    Counter silentStores_;
    Counter collisionMismatches_;
    Counter reencryptions_;
    Counter unsafeCorruptions_;
    Counter missedByPna_;
    Counter missedBySaturation_;
    Counter counterWraps_;

    /** @{ Two-tier detection state and telemetry (DESIGN.md §5j). */
    /** Adaptive enter-WeakStrong threshold on the epoch dup ratio. */
    static constexpr double kEnterStrongRatio = 0.30;
    /** Adaptive exit-WeakStrong threshold (hysteresis band below). */
    static constexpr double kExitStrongRatio = 0.20;

    DetectPolicy adaptiveMode_ = DetectPolicy::ConfirmRead;
    std::uint64_t epochWrites_ = 0;
    std::uint64_t epochDups_ = 0;

    Counter confirmReads_;
    Counter confirmReadsAvoided_;
    Counter strongFpComputes_;
    Counter strongFpHits_;
    Counter strongFpCaches_;
    Counter detectModeSwitches_;
    Counter detects_;
    std::uint64_t detectPicoseconds_ = 0;
    /** @} */
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_DEDUP_ENGINE_HH
