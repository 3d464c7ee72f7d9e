/**
 * @file
 * MetadataAuditor implementation.
 *
 * Every walk below visits entries in ascending address (or hash)
 * order, so the "first violated invariant" is a deterministic function
 * of the metadata state — a corruption reported at slot 17 on one run
 * is reported at slot 17 on every run and thread count.
 */

#include "dedup/metadata_auditor.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/check.hh"
#include "common/env.hh"
#include "common/paged_array.hh"
#include "dedup/dedup_engine.hh"

namespace dewrite {

bool
auditEnabled()
{
    return envFlag("DEWRITE_AUDIT", false);
}

std::uint64_t
auditEpochWrites()
{
    // Matches the tracer's default epoch so audit epochs line up with
    // the epoch time series when both are on.
    return envUint("DEWRITE_AUDIT_EPOCH", 10000, 1, 1ULL << 32);
}

const char *
auditInvariantName(AuditInvariant invariant)
{
    switch (invariant) {
      case AuditInvariant::MappingTargetHoldsData:
        return "mapping-target-holds-data";
      case AuditInvariant::DataSlotHasHashRecord:
        return "data-slot-has-hash-record";
      case AuditInvariant::HashRecordMatchesSlot:
        return "hash-record-matches-slot";
      case AuditInvariant::ReferenceCountMatches:
        return "reference-count-matches";
      case AuditInvariant::FsmMatchesDataSlots:
        return "fsm-matches-data-slots";
      case AuditInvariant::CounterSingleHome:
        return "counter-single-home";
      case AuditInvariant::StrongFpMatchesStoredLine:
        return "strong-fp-matches-stored-line";
    }
    return "unknown-invariant";
}

namespace {

__attribute__((format(printf, 1, 2))) std::string
formatDetail(const char *fmt, ...)
{
    char buffer[160];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, args);
    va_end(args);
    return buffer;
}

/** Shorthand: the details only ever format addresses and counts. */
unsigned long long
u(std::uint64_t value)
{
    return static_cast<unsigned long long>(value);
}

} // namespace

MetadataAuditor::MetadataAuditor(const DedupEngine &engine)
    : engine_(engine)
{
}

std::optional<AuditViolation>
MetadataAuditor::check() const
{
    std::optional<AuditViolation> first;
    const auto report = [&first](AuditViolation violation) {
        if (!first)
            first = std::move(violation);
    };

    const SlotTable &slots = engine_.slots();
    const HashStore &store = engine_.hashStore();
    const FreeSpaceTable &fsm = engine_.freeSpace();

    // 1. Remapped logical lines must target live data (or the explicit
    //    "remapped to nothing" sentinel).
    slots.forEachRemapped([&](LineAddr logical, LineAddr slot) {
        if (first || slot == DedupEngine::kNoData)
            return;
        if (!slots.holdsData(slot)) {
            AuditViolation v;
            v.invariant = AuditInvariant::MappingTargetHoldsData;
            v.logical = logical;
            v.slot = slot;
            v.detail = formatDetail(
                "logical %llu is remapped to slot %llu, which holds "
                "no data",
                u(logical), u(slot));
            report(std::move(v));
        }
    });

    // True per-slot reference counts, recomputed from the durable
    // tables exactly the way recovery does: remapped logicals pointing
    // at the slot, plus the slot's own logical when it keeps its data
    // in place.
    PagedArray<std::uint64_t> refs;
    slots.forEachRemapped([&](LineAddr, LineAddr slot) {
        if (slot != DedupEngine::kNoData)
            ++refs.ref(slot);
    });
    slots.forEachDataSlot([&](LineAddr slot, std::uint64_t) {
        if (!slots.isRemapped(slot) && slots.written(slot))
            ++refs.ref(slot);
    });

    // 2. Every data slot needs a hash-store record under its stored
    //    fingerprint, with the true reference count, and must be
    //    marked allocated in the free-space bitmap.
    slots.forEachDataSlot([&](LineAddr slot, std::uint64_t hash) {
        if (first)
            return;
        const std::uint8_t recorded = store.reference(hash, slot);
        if (recorded == 0) {
            AuditViolation v;
            v.invariant = AuditInvariant::DataSlotHasHashRecord;
            v.slot = slot;
            v.expected = hash;
            v.detail = formatDetail(
                "slot %llu holds data fingerprinted %#llx but the "
                "hash store has no such record",
                u(slot), u(hash));
            report(std::move(v));
            return;
        }
        const std::uint64_t expected = refs.get(slot);
        if (recorded != HashStore::kMaxReference &&
            recorded != expected) {
            AuditViolation v;
            v.invariant = AuditInvariant::ReferenceCountMatches;
            v.slot = slot;
            v.expected = expected;
            v.actual = recorded;
            v.detail = formatDetail(
                "slot %llu is referenced by %llu logical lines but "
                "the hash store records %u",
                u(slot), u(expected), recorded);
            report(std::move(v));
            return;
        }
        if (fsm.isFree(slot)) {
            AuditViolation v;
            v.invariant = AuditInvariant::FsmMatchesDataSlots;
            v.slot = slot;
            v.expected = 1;
            v.actual = 0;
            v.detail = formatDetail(
                "slot %llu holds data but the free-space bitmap marks "
                "it free (hash %#llx)",
                u(slot), u(hash));
            report(std::move(v));
        }
    });

    // 3. Every hash-store record must describe a live data slot whose
    //    inverted-hash fingerprint matches (no stray/dangling record).
    // HashStore::forEach walks its index through FlatMap::forEachSorted,
    // so the walk is hash-ascending and the first violation
    // deterministic.
    // dewrite-lint: allow(unsorted-iteration)
    store.forEach([&](std::uint64_t hash, const HashEntry &entry) {
        if (first)
            return;
        if (!slots.holdsData(entry.realAddr) ||
            slots.hash(entry.realAddr) != hash) {
            AuditViolation v;
            v.invariant = AuditInvariant::HashRecordMatchesSlot;
            v.slot = entry.realAddr;
            v.expected = hash;
            v.actual = slots.holdsData(entry.realAddr)
                           ? slots.hash(entry.realAddr)
                           : 0;
            v.detail = formatDetail(
                "hash-store record (%#llx, slot %llu) does not match "
                "the inverted hash table",
                u(hash), u(entry.realAddr));
            report(std::move(v));
            return;
        }
        // 3b. A valid strong-fingerprint cache must equal the
        //     fingerprint of the slot's stored content — the property
        //     the weak+strong tier trusts instead of reading the line.
        //     decryptStored only touches the host-side pad memo, so the
        //     const_cast is observationally pure.
        if (entry.strongFp) {
            const StrongFp stored = strongFingerprint(
                const_cast<DedupEngine &>(engine_).decryptStored(
                    entry.realAddr));
            if (!(stored == *entry.strongFp)) {
                AuditViolation v;
                v.invariant = AuditInvariant::StrongFpMatchesStoredLine;
                v.slot = entry.realAddr;
                v.expected = stored.lo;
                v.actual = entry.strongFp->lo;
                v.detail = formatDetail(
                    "slot %llu caches strong fingerprint "
                    "%016llx%016llx but its stored content "
                    "fingerprints %016llx%016llx",
                    u(entry.realAddr), u(entry.strongFp->hi),
                    u(entry.strongFp->lo), u(stored.hi), u(stored.lo));
                report(std::move(v));
            }
        }
    });

    // 4. The other direction of the FSM equivalence: an allocated slot
    //    must hold data (step 2 already caught free data slots).
    for (LineAddr slot = 0; slot < fsm.capacity() && !first; ++slot) {
        if (!fsm.isFree(slot) && !slots.holdsData(slot)) {
            AuditViolation v;
            v.invariant = AuditInvariant::FsmMatchesDataSlots;
            v.slot = slot;
            v.expected = 0;
            v.actual = 1;
            v.detail = formatDetail(
                "slot %llu is marked allocated but holds no data",
                u(slot));
            report(std::move(v));
        }
    }

    // 5. Counter colocation: an overflow entry is legal only while
    //    both of slot S's potential homes are occupied — otherwise the
    //    counter is double-homed (the table home would read 0/stale
    //    while the overflow value is live).
    engine_.overflow_.forEachSorted(
        [&](LineAddr slot, std::uint64_t counter) {
            if (first)
                return;
            const bool mapping_home_free = !slots.isRemapped(slot);
            const bool inv_home_free = !slots.holdsData(slot);
            const SlotRecord *rec = slots.find(slot);
            const bool flagged =
                rec && rec->has(SlotRecord::kHasOverflow);
            if (mapping_home_free || inv_home_free || !flagged) {
                // Unflagged, the spilled counter is invisible to
                // counterOf(), which would read 0 and repeat a pad.
                AuditViolation v;
                v.invariant = AuditInvariant::CounterSingleHome;
                v.slot = slot;
                v.actual = counter;
                v.detail = formatDetail(
                    "slot %llu's counter %llu sits in the overflow "
                    "store while %s",
                    u(slot), u(counter),
                    mapping_home_free ? "its mapping entry is free"
                    : inv_home_free   ? "its inverted-hash entry is free"
                                      : "its record does not flag it");
                report(std::move(v));
            }
        });

    return first;
}

void
MetadataAuditor::enforce(const char *when) const
{
    const std::optional<AuditViolation> violation = check();
    DEWRITE_CHECK(
        !violation,
        "%s audit: invariant '%s' violated: %s "
        "(logical=%" PRIu64 " slot=%" PRIu64 " expected=%" PRIu64
        " actual=%" PRIu64 ")",
        when, auditInvariantName(violation->invariant),
        violation->detail.c_str(), violation->logical, violation->slot,
        violation->expected, violation->actual);
}

} // namespace dewrite
