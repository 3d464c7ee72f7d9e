/**
 * @file
 * DedupEngine implementation.
 *
 * Invariants maintained across operations (slots_[A] is line address
 * A's SlotRecord):
 *  - slots_[S] holds a hash  <=>  slot S stores live ciphertext
 *    <=>  the hash store has a record (hash(S), S)  <=>  FSM marks S used.
 *  - A logical line L with valid data references exactly one slot:
 *    slots_[L]'s realAddr when remapped, else its own slot L.
 *  - The hash-store reference count of slot S equals the number of
 *    logical lines referencing S (pinned once saturated at 255).
 *  - Slot S's encryption counter never decreases and is stored at its
 *    colocation home (the mapping entry if null, else the inverted-hash
 *    entry if null, else the overflow store, flagged in slots_[S]).
 */

#include "dedup/dedup_engine.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/crc32.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "nvm/nvm_device.hh"

namespace dewrite {

const char *
detectPolicyName(DetectPolicy policy)
{
    switch (policy) {
      case DetectPolicy::ConfirmRead:
        return "confirm-read";
      case DetectPolicy::WeakOnly:
        return "weak-only";
      case DetectPolicy::WeakStrong:
        return "weak-strong";
      case DetectPolicy::Adaptive:
        return "adaptive";
    }
    panic("bad detect policy");
}

DetectPolicy
detectPolicyFromEnv()
{
    // Names indexed by the DetectPolicy enum values.
    static const char *const kNames[] = { "confirm-read", "weak-only",
                                          "weak-strong", "adaptive" };
    return static_cast<DetectPolicy>(
        envChoice("DEWRITE_DETECT", 0, kNames, 4));
}

std::uint64_t
detectEpochFromEnv()
{
    return envUint("DEWRITE_DETECT_EPOCH", 4096, 64, 1ULL << 20);
}

DedupEngine::DedupEngine(const SystemConfig &config, NvmDevice &device,
                         MetadataCache &metadata, CounterModeEngine &cme,
                         Options options)
    : config_(config), device_(device), metadata_(metadata), cme_(cme),
      options_(options),
      hashIndexDiv_(config.memory.numLines ? config.memory.numLines : 1),
      fingerprinter_(options.hashFunction), fsm_(config.memory.numLines)
{
    // Size every hot-path structure up front from the config hints so
    // nothing rehashes or grows a directory mid-run (DESIGN.md §5).
    const std::uint64_t hint = config.memory.workingSetHint();
    hashStore_.reserve(hint, config.memory.numLines);
    slots_.reserve(config.memory.numLines);
    overflow_.reserve(config.memory.numLines);
    majors_.reserve(config.memory.numLines);
}

DedupEngine::DedupEngine(const SystemConfig &config, NvmDevice &device,
                         MetadataCache &metadata, CounterModeEngine &cme)
    : DedupEngine(config, device, metadata, cme, Options())
{
}

std::uint64_t
DedupEngine::hashIndex(std::uint64_t hash) const
{
    return hashIndexDiv_.mod(hash);
}

std::uint64_t
DedupEngine::counterOf(LineAddr slot) const
{
    const SlotRecord *rec = slots_.find(slot);
    return rec ? counterIn(*rec, slot) : 0;
}

std::uint64_t
DedupEngine::counterIn(const SlotRecord &rec, LineAddr slot) const
{
    // Both colocation homes and the spill flag sit in one record, so
    // the overflow store is probed only for a counter that spilled.
    if (const std::uint64_t *home = rec.counterHome())
        return *home;
    if (!rec.has(SlotRecord::kHasOverflow))
        return 0;
    const std::uint64_t *spilled = overflow_.find(slot);
    return spilled ? *spilled : 0;
}

std::uint64_t
DedupEngine::majorIn(const SlotRecord &rec, LineAddr slot) const
{
    if (!rec.has(SlotRecord::kHasMajor))
        return 0;
    const std::uint64_t *major = majors_.find(slot);
    return major ? *major : 0;
}

void
DedupEngine::setCounterOf(LineAddr slot, std::uint64_t counter)
{
    SlotRecord &rec = slots_.ref(slot);
    if (std::uint64_t *home = rec.counterHome()) {
        *home = counter;
        if (rec.has(SlotRecord::kHasOverflow)) {
            overflow_.erase(slot);
            rec.clear(SlotRecord::kHasOverflow);
        }
    } else {
        overflow_[slot] = counter;
        rec.set(SlotRecord::kHasOverflow);
    }
}

obs::CounterHome
DedupEngine::counterHome(LineAddr slot) const
{
    if (slot == kInvalidAddr)
        return obs::CounterHome::None;
    if (!slots_.isRemapped(slot))
        return obs::CounterHome::Mapping;
    if (!slots_.holdsData(slot))
        return obs::CounterHome::InvertedHash;
    return obs::CounterHome::Overflow;
}

void
DedupEngine::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    scope.counter("duplicate_commits", dupCommits_,
                  "writes committed as duplicates", "duplicate_commits");
    scope.counter("unique_commits", uniqueCommits_,
                  "writes committed as unique lines", "unique_commits");
    scope.counter("silent_stores", silentStores_,
                  "writes identical to their own slot", "silent_stores");
    scope.counter("collision_mismatches", collisionMismatches_,
                  "fingerprint matches refuted by the confirmation read",
                  "collision_mismatches");
    scope.counter("missed_by_pna", missedByPna_,
                  "duplicates missed because PNA skipped the NVM query",
                  "missed_by_pna");
    scope.counter("missed_by_saturation", missedBySaturation_,
                  "duplicates missed on saturated reference counts",
                  "missed_by_saturation");
    scope.counter("reencryptions", reencryptions_,
                  "optimistic ciphertexts discarded and redone",
                  "reencryptions");
    scope.counter("unsafe_corruptions", unsafeCorruptions_,
                  "collisions trusted without confirmation (ablation)",
                  "unsafe_corruptions");
    scope.counter("counter_wraps", counterWraps_,
                  "minor-counter wraps absorbed by major counters");
    scope.gauge("overflow_counters",
                [this] {
                    return static_cast<double>(overflowCounters());
                },
                "slot counters homeless in both tables",
                "overflow_counters");
    scope.gauge("energy_pj",
                [this] { return static_cast<double>(totalEnergy()); },
                "dedup logic + engine-issued AES energy");

    obs::MetricRegistry::Scope detect = scope.scope("detect");
    detect.gauge("mode",
                 [this] {
                     return static_cast<double>(
                         static_cast<int>(operationalDetectMode()));
                 },
                 "operational detection mode (0=confirm-read "
                 "1=weak-only 2=weak-strong)");
    detect.counter("detects", detects_,
                   "authoritative duplicate detections");
    detect.counter("confirm_reads", confirmReads_,
                   "candidate lines read for confirmation");
    detect.counter("confirm_reads_avoided", confirmReadsAvoided_,
                   "confirmations resolved by a cached strong "
                   "fingerprint instead of a read");
    detect.counter("strong_fp_computes", strongFpComputes_,
                   "strong fingerprints computed (incoming or stored)");
    detect.counter("strong_fp_hits", strongFpHits_,
                   "candidates compared via a valid cached fingerprint");
    detect.counter("strong_fp_caches", strongFpCaches_,
                   "fingerprints lazily installed on first confirmation");
    detect.counter("mode_switches", detectModeSwitches_,
                   "adaptive epoch transitions between tiers");
    detect.gauge("latency_ps_total",
                 [this] {
                     return static_cast<double>(detectPicoseconds_);
                 },
                 "summed simulated detection latency");

    obs::MetricRegistry::Scope pad = scope.scope("pad_cache");
    pad.counter("hits", padCache_.hitCounter(),
                "pad lookups served from the host-side memo");
    pad.counter("misses", padCache_.missCounter(),
                "pad lookups that regenerated through AES");

    if (stageProfile_) {
        // Registered only under DEWRITE_STAGE_PROFILE=1 so the default
        // registry snapshot stays byte-identical to an unprofiled run.
        // The commit split is sampled (kCommitSplitPeriod), so its
        // gauges are estimates scaled from the sampled commits.
        constexpr auto kSplit = static_cast<double>(kCommitSplitPeriod);
        static constexpr struct
        {
            const char *name;
            std::uint64_t obs::StageCycles::*cycles;
            double scale;
            const char *help;
        } kStages[] = {
            { "digest_cycles", &obs::StageCycles::digest, 1,
              "host cycles fingerprinting lines" },
            { "probe_cycles", &obs::StageCycles::probe, 1,
              "host cycles in metadata probes" },
            { "pad_cycles", &obs::StageCycles::pad, 1,
              "host cycles generating AES pads" },
            { "confirm_read_cycles", &obs::StageCycles::confirmRead, 1,
              "host cycles confirming candidates" },
            { "commit_cycles", &obs::StageCycles::commit, 1,
              "host cycles committing writes" },
            { "commit_metadata_cycles", &obs::StageCycles::commitMetadata,
              kSplit, "commit host cycles in metadata-cache accesses" },
            { "commit_device_cycles", &obs::StageCycles::commitDevice,
              kSplit, "commit host cycles in the data-line write" },
        };
        obs::MetricRegistry::Scope stage = scope.scope("stage");
        for (const auto &def : kStages) {
            stage.gauge(def.name,
                        [this, cycles = def.cycles, scale = def.scale] {
                            return scale * static_cast<double>(
                                               stageCycles_.*cycles);
                        },
                        def.help);
        }
    }
}

std::uint64_t
DedupEngine::effectiveCounter(LineAddr slot) const
{
    const SlotRecord *rec = slots_.find(slot);
    if (!rec)
        return 0;
    return (majorIn(*rec, slot) << options_.counterBits) |
           counterIn(*rec, slot);
}

std::uint64_t
DedupEngine::bumpCounter(LineAddr slot)
{
    SlotRecord &rec = slots_.ref(slot);
    const std::uint64_t mask = (1ULL << options_.counterBits) - 1;
    const std::uint64_t minor = (counterIn(rec, slot) + 1) & mask;
    if (minor == 0) {
        // Minor wrap: the major counter absorbs it so the effective
        // OTP counter keeps growing (split-counter discipline).
        ++majors_[slot];
        rec.set(SlotRecord::kHasMajor);
        counterWraps_.increment();
    }
    // The caller re-homes the minor with setCounterOf() *after* its
    // table mutations; storing it here would race the colocation home.
    return (majorIn(rec, slot) << options_.counterBits) | minor;
}

Time
DedupEngine::chargeCounterAccess(LineAddr slot, Time now)
{
    // The counter is read from its colocation home; when it has spilled
    // to the overflow store the probe still touches the mapping entry
    // first (that is where hardware would look).
    const MetadataTable table = !slots_.isRemapped(slot)
        ? MetadataTable::Mapping
        : (!slots_.holdsData(slot) ? MetadataTable::InvertedHash
                                   : MetadataTable::Mapping);
    return metadata_.access(table, slot, false, now).latency;
}

Time
DedupEngine::commitAccess(MetadataTable table, std::uint64_t index,
                          bool is_write, Time now)
{
    obs::StageTimer timer(splitSink(stageCycles_.commitMetadata));
    return metadata_.access(table, index, is_write, now).latency;
}

Time
DedupEngine::commitPost(MetadataTable table, std::uint64_t index, Time now)
{
    obs::StageTimer timer(splitSink(stageCycles_.commitMetadata));
    return metadata_.postUpdate(table, index, now).latency;
}

Time
DedupEngine::commitInsert(MetadataTable table, std::uint64_t index,
                          Time now)
{
    obs::StageTimer timer(splitSink(stageCycles_.commitMetadata));
    return metadata_.insertEntry(table, index, now).latency;
}

const Line &
DedupEngine::padFor(LineAddr slot, std::uint64_t counter)
{
    obs::StageTimer timer(stageSink(stageCycles_.pad));
    return padCache_.get(cme_, slot, counter);
}

bool
DedupEngine::storedEquals(LineAddr slot, const Line &plaintext)
{
    // stored == plaintext  <=>  ciphertext == plaintext ^ pad; an
    // unwritten slot reads as the zero line, whose "decryption" is the
    // pad itself.
    const Line *ciphertext = device_.peekPtr(slot);
    const Line &pad = padFor(slot, effectiveCounter(slot));
    if (!ciphertext)
        return plaintext == pad;
    return equalsXor(*ciphertext, plaintext, pad);
}

void
DedupEngine::noteCommitForEpoch(bool duplicate)
{
    if (options_.detect != DetectPolicy::Adaptive)
        return;
    ++epochWrites_;
    if (duplicate)
        ++epochDups_;
    if (epochWrites_ >= options_.detectEpochWrites)
        rollDetectEpoch();
}

void
DedupEngine::rollDetectEpoch()
{
    const double ratio = static_cast<double>(epochDups_) /
                         static_cast<double>(epochWrites_);
    epochWrites_ = 0;
    epochDups_ = 0;

    DetectPolicy next = adaptiveMode_;
    if (adaptiveMode_ == DetectPolicy::WeakStrong) {
        // Hysteresis: drop back to confirmation reads only when the
        // duplicate ratio falls clearly below the entry threshold, so
        // a workload hovering near one threshold cannot thrash the
        // mode every epoch.
        if (ratio < kExitStrongRatio)
            next = DetectPolicy::ConfirmRead;
    } else if (ratio >= kEnterStrongRatio) {
        next = DetectPolicy::WeakStrong;
    }
    if (next != adaptiveMode_) {
        adaptiveMode_ = next;
        detectModeSwitches_.increment();
    }
}

Line
DedupEngine::decryptStored(LineAddr slot)
{
    const Line *ciphertext = device_.peekPtr(slot);
    const Line &pad = padFor(slot, effectiveCounter(slot));
    return ciphertext ? (*ciphertext ^ pad) : pad;
}

bool
DedupEngine::references(LineAddr init_addr, LineAddr slot) const
{
    if (slots_.isRemapped(init_addr))
        return slots_.realAddr(init_addr) == slot;
    return init_addr == slot && slots_.holdsData(init_addr) &&
           slots_.written(init_addr);
}

DetectOutcome
DedupEngine::detect(const Line &plaintext, Time now, bool allow_nvm_fill)
{
    DetectOutcome out;
    {
        obs::StageTimer timer(stageSink(stageCycles_.digest));
        out.hash = fingerprinter_.fingerprint(plaintext);
    }
    Time t = now + fingerprinter_.latency();
    energy_ += fingerprinter_.energy(config_.energy);

    MetadataAccessResult probe;
    {
        obs::StageTimer timer(stageSink(stageCycles_.probe));
        probe = metadata_.access(MetadataTable::HashStore,
                                 hashIndex(out.hash), false, t,
                                 allow_nvm_fill);
    }
    t += probe.latency;

    if (!probe.hit && !allow_nvm_fill) {
        // PNA: predicted non-duplicate and not cached on chip — skip the
        // in-NVM query and treat the line as unique (Section III-B2).
        // The functional scan below only *counts* the duplicates this
        // shortcut misses (the ~1.5% of Figure 12's gap); it charges
        // nothing.
        unsigned scanned = 0;
        for (const HashEntry entry : hashStore_.lookup(out.hash)) {
            if (++scanned > options_.maxChainProbe)
                break;
            if (entry.reference == HashStore::kMaxReference)
                continue;
            if (storedEquals(entry.realAddr, plaintext)) {
                missedByPna_.increment();
                break;
            }
        }
        out.done = t;
        detects_.increment();
        detectPicoseconds_ += out.done - now;
        return out;
    }
    out.authoritative = true;

    // Resolve this write's detection tier once: a cryptographic
    // fingerprinter (the Table I comparator) is trusted outright — the
    // WeakOnly branch below, without the unsafe connotation — and any
    // other policy resolves through the per-epoch adaptive state.
    const DetectPolicy mode = fingerprinter_.cryptographic()
        ? DetectPolicy::WeakOnly
        : operationalDetectMode();

    // The incoming line's strong fingerprint is computed (and charged)
    // at most once per detection, lazily at the first candidate that
    // needs it.
    StrongFp incoming_fp;
    bool incoming_fp_ready = false;
    const auto incomingStrongFp = [&]() -> const StrongFp & {
        if (!incoming_fp_ready) {
            {
                obs::StageTimer timer(stageSink(stageCycles_.digest));
                incoming_fp = strongFingerprint(plaintext);
            }
            incoming_fp_ready = true;
            strongFpComputes_.increment();
            t += config_.timing.strongFpLine;
            energy_ += config_.energy.strongFpLine;
        }
        return incoming_fp;
    };

    // Probe newest-first: when a popular content's old records are
    // pinned at the reference cap, its freshest record is the one with
    // spare references.
    obs::StageTimer confirm_timer(stageSink(stageCycles_.confirmRead));
    unsigned probes = 0;
    for (const HashEntry entry : hashStore_.lookup(out.hash)) {
        if (++probes > options_.maxChainProbe)
            break;

        if (mode == DetectPolicy::WeakStrong && entry.strongFp &&
            entry.reference != HashStore::kMaxReference) {
            // Strong tier: one 128-bit compare replaces the candidate's
            // confirmation read. Unequal fingerprints *prove* the
            // contents differ; equal ones are trusted the way hardware
            // would trust them — the kernel's collision rate is
            // negligible, including against CRC-forged inputs.
            const bool fp_equal = incomingStrongFp() == *entry.strongFp;
            t += config_.timing.lineCompare;
            energy_ += config_.energy.compareLine;
            confirmReadsAvoided_.increment();
            strongFpHits_.increment();
            if (fp_equal) {
                out.duplicate = true;
                out.dupSlot = entry.realAddr;
                break;
            }
            collisionMismatches_.increment();
            continue;
        }

        // Fused compare against the stored ciphertext — equivalent to
        // decrypting and comparing, with no 256 B temporaries.
        const bool matches = storedEquals(entry.realAddr, plaintext);
        if (entry.reference == HashStore::kMaxReference) {
            // Highly referenced line: pinned, not deduplicated against
            // (Section III-B2). Count the elimination this forgoes.
            if (matches)
                missedBySaturation_.increment();
            continue;
        }
        if (mode == DetectPolicy::WeakOnly) {
            // Trusted fingerprint: either the cryptographic comparator
            // (collision-free in practice) or the unsafe CRC ablation.
            // The functional comparison above only counts the silent
            // corruptions trusting the digest causes.
            out.duplicate = true;
            out.dupSlot = entry.realAddr;
            if (!matches)
                unsafeCorruptions_.increment();
            break;
        }

        // Confirmation read (ConfirmRead mode, or a WeakStrong
        // candidate whose fingerprint is not cached yet): read the
        // candidate and compare byte-by-byte; the OTP for the
        // decryption is generated while the read is in flight. Only
        // the read's timing matters — the compare already ran against
        // the functional store.
        const Time counter_latency = chargeCounterAccess(entry.realAddr,
                                                         t);
        const NvmTiming access = device_.readTimed(entry.realAddr, t);
        const Time otp_ready =
            t + counter_latency + config_.timing.aesLine;
        energy_ += config_.energy.aesLine();
        t = std::max(access.complete, otp_ready) +
            config_.timing.lineCompare;
        energy_ += config_.energy.compareLine;
        ++out.confirmReads;
        confirmReads_.increment();

        if (mode == DetectPolicy::WeakStrong) {
            // Lazy fill: the line just read (and decrypted) streams
            // through the fingerprint engine and the result lands in
            // the candidate's record — a posted metadata update, off
            // the critical path. A matching candidate's fingerprint is
            // the incoming line's own; a mismatching one is computed
            // from the stored content.
            StrongFp cached;
            if (matches) {
                cached = incomingStrongFp();
            } else {
                {
                    obs::StageTimer timer(stageSink(stageCycles_.digest));
                    cached = strongFingerprint(
                        decryptStored(entry.realAddr));
                }
                strongFpComputes_.increment();
                t += config_.timing.strongFpLine;
                energy_ += config_.energy.strongFpLine;
            }
            hashStore_.setStrongFp(out.hash, entry.realAddr, cached);
            strongFpCaches_.increment();
            metadata_.postUpdate(MetadataTable::HashStore,
                                 hashIndex(out.hash), t);
        }

        if (matches) {
            out.duplicate = true;
            out.dupSlot = entry.realAddr;
            break;
        }
        collisionMismatches_.increment();
    }
    out.done = t;
    detects_.increment();
    detectPicoseconds_ += out.done - now;
    return out;
}

Time
DedupEngine::releaseOld(LineAddr init_addr, Time now)
{
    Time t = now;

    LineAddr slot = kInvalidAddr;
    if (slots_.isRemapped(init_addr)) {
        slot = slots_.realAddr(init_addr);
        if (slot == kNoData)
            return t;
    } else if (slots_.holdsData(init_addr) && slots_.written(init_addr)) {
        slot = init_addr;
    } else {
        return t; // Never written: nothing to release.
    }

    // Stale-hash cleaning (Section III-B2): the inverted hash table
    // recovers the fingerprint of the data the logical line is leaving.
    t += commitAccess(MetadataTable::InvertedHash, slot, false, t);
    const std::uint64_t stale_hash = slots_.hash(slot);
    // The stale record's decrement is a posted read-modify-write: a
    // stale hash only yields a benign failed comparison later, so it
    // never blocks the write path.
    t += commitPost(MetadataTable::HashStore, hashIndex(stale_hash), t);

    if (hashStore_.dropReference(stale_hash, slot)) {
        // Last reference died: reclaim the slot. The counter keeps its
        // value across the free so a future allocation never reuses an
        // OTP.
        const std::uint64_t counter = counterOf(slot);
        slots_.clearHash(slot);
        t += commitAccess(MetadataTable::InvertedHash, slot, true, t);
        setCounterOf(slot, counter);
        fsm_.release(slot);
        t += commitAccess(MetadataTable::Fsm, slot, true, t);
    }
    return t;
}

WriteCommit
DedupEngine::commitDuplicate(LineAddr init_addr, const DetectOutcome &detect,
                             Time now)
{
    if (!detect.duplicate)
        panic("commitDuplicate without a confirmed duplicate");

    noteCommitForEpoch(true);
    ++commitSeq_;
    obs::StageTimer timer(stageSink(stageCycles_.commit));
    WriteCommit commit;
    commit.slot = detect.dupSlot;

    if (references(init_addr, detect.dupSlot)) {
        // Silent store: the logical line already points at this exact
        // content; nothing to update.
        silentStores_.increment();
        dupCommits_.increment();
        commit.done = now;
        return commit;
    }

    Time t = now;

    // Take the new reference before releasing the old one, so a
    // self-release can never momentarily free the slot being joined.
    t += commitAccess(MetadataTable::HashStore, hashIndex(detect.hash),
                      true, t);
    if (!hashStore_.addReference(detect.hash, detect.dupSlot))
        panic("reference saturated between detect and commit");

    t = releaseOld(init_addr, t);

    const std::uint64_t own_counter = counterOf(init_addr);
    slots_.remap(init_addr, detect.dupSlot);
    t += commitAccess(MetadataTable::Mapping, init_addr, true, t);
    setCounterOf(init_addr, own_counter);

    slots_.markWritten(init_addr);
    dupCommits_.increment();
    commit.done = t;
    return commit;
}

WriteCommit
DedupEngine::commitUnique(LineAddr init_addr, const Line &plaintext,
                          std::uint64_t hash, Time now, Time encrypt_ready)
{
    noteCommitForEpoch(false);
    ++commitSeq_;
    obs::StageTimer timer(stageSink(stageCycles_.commit));
    WriteCommit commit;
    Time t = now;
    LineAddr slot;

    const bool owns_slot_exclusively =
        !slots_.isRemapped(init_addr) && slots_.holdsData(init_addr) &&
        slots_.written(init_addr) &&
        hashStore_.reference(slots_.hash(init_addr), init_addr) == 1;

    if (owns_slot_exclusively) {
        // In-place overwrite: only this logical line references its
        // slot, so the old content can simply be replaced after its
        // stale hash record is dropped.
        slot = init_addr;
        t += commitAccess(MetadataTable::InvertedHash, slot, true, t);
        const std::uint64_t stale_hash = slots_.hash(slot);
        t += commitPost(MetadataTable::HashStore, hashIndex(stale_hash), t);
        if (!hashStore_.dropReference(stale_hash, slot))
            panic("exclusive slot's stale record did not die");
    } else {
        t = releaseOld(init_addr, t);
        slot = fsm_.allocatePreferring(init_addr);
        if (slot == kInvalidAddr)
            fatal("NVM is full: no free slot for a unique write");
        t += commitAccess(MetadataTable::Fsm, slot, true, t);

        if (slot != init_addr && !slots_.isRemapped(slot)) {
            // The allocator handed us the slot of a never-written
            // logical line; mark that line "remapped to nothing" so a
            // read of it cannot alias the foreign data (DESIGN.md §5).
            const std::uint64_t foreign_counter = counterOf(slot);
            slots_.remap(slot, kNoData);
            t += commitAccess(MetadataTable::Mapping, slot, true, t);
            setCounterOf(slot, foreign_counter);
        }
    }

    // Bump the slot counter and produce the ciphertext. A schedule that
    // overlapped encryption with detection encrypted optimistically for
    // the line's own slot; if the commit landed elsewhere that
    // ciphertext is useless and the AES runs again.
    const std::uint64_t counter = bumpCounter(slot);
    const std::uint64_t minor_counter =
        counter & ((1ULL << options_.counterBits) - 1);
    const bool reencrypt = slot != init_addr;
    Time ciphertext_ready;
    if (reencrypt) {
        reencryptions_.increment();
        energy_ += config_.energy.aesLine();
        ciphertext_ready = t + config_.timing.aesLine;
    } else {
        ciphertext_ready = std::max(encrypt_ready, t);
    }

    const Line ciphertext = plaintext ^ padFor(slot, counter);
    const std::size_t bits = options_.reducer
        ? options_.reducer->onWrite(slot, plaintext, ciphertext, counter)
        : kLineBits;
    const Time write_start = std::max(t, ciphertext_ready);
    NvmTiming write;
    {
        obs::StageTimer device_timer(splitSink(stageCycles_.commitDevice));
        write = device_.write(slot, ciphertext, write_start, bits);
    }

    // Install the new metadata; these cache updates overlap the 300 ns
    // cell write.
    Time tm = t;
    slots_.setHash(slot, hash);
    tm += commitAccess(MetadataTable::InvertedHash, slot, true, tm);
    hashStore_.insert(hash, slot);
    // A brand-new record: no-fetch allocate (nothing to read-modify).
    tm += commitInsert(MetadataTable::HashStore, hashIndex(hash), tm);

    if (slot == init_addr) {
        if (slots_.isRemapped(init_addr))
            slots_.clearRemap(init_addr);
    } else {
        // Remapping evicts whatever the mapping entry held; when the
        // entry was null it was the colocation home of slot
        // init_addr's own counter (possibly protecting shared data
        // still stored there), which must move to a new home.
        const std::uint64_t own_counter = counterOf(init_addr);
        slots_.remap(init_addr, slot);
        setCounterOf(init_addr, own_counter);
    }
    tm += commitAccess(MetadataTable::Mapping, init_addr, true, tm);
    setCounterOf(slot, minor_counter);

    slots_.markWritten(init_addr);
    uniqueCommits_.increment();

    commit.slot = slot;
    commit.wroteLine = true;
    commit.reencrypted = reencrypt;
    commit.bitsProgrammed = bits;
    commit.done = std::max(write.complete, tm);
    return commit;
}

ReadOutcome
DedupEngine::read(LineAddr init_addr, Time now)
{
    ReadOutcome out;
    LineAddr slot = kInvalidAddr;
    static_cast<ReadTiming &>(out) = timedRead(init_addr, now, slot);
    // An unwritten slot reads as zero, whose decryption is the pad.
    if (out.valid)
        out.data = decryptStored(slot);
    return out;
}

ReadTiming
DedupEngine::timedRead(LineAddr init_addr, Time now, LineAddr &slot)
{
    ReadTiming out;
    Time t = now +
             metadata_.access(MetadataTable::Mapping, init_addr, false, now)
                 .latency;

    Time counter_latency = 0;
    if (slots_.isRemapped(init_addr)) {
        out.remapped = true;
        slot = slots_.realAddr(init_addr);
        if (slot == kNoData) {
            out.done = t;
            return out; // Sentinel: logical line holds no data.
        }
        // The shared slot's counter lives at *its* colocation home,
        // which costs a second metadata access.
        counter_latency = chargeCounterAccess(slot, t);
    } else {
        if (!slots_.written(init_addr) || !slots_.holdsData(init_addr)) {
            out.done = t;
            return out; // Never written: reads as zero.
        }
        // Counter is colocated in the mapping entry just accessed —
        // this is the payoff of Section III-C on the read path.
        slot = init_addr;
    }

    const NvmTiming access = device_.readTimed(slot, t);
    const Time otp_ready =
        t + counter_latency + config_.timing.aesLine;
    energy_ += config_.energy.aesLine();

    out.valid = true;
    out.done = std::max(access.complete, otp_ready) +
               config_.timing.otpXor;
    return out;
}

} // namespace dewrite
