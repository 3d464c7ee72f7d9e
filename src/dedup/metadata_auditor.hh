/**
 * @file
 * Cross-table invariant auditor for the dedup metadata (DESIGN.md §5e).
 *
 * DedupEngine maintains four structures whose mutual consistency the
 * compiler cannot see: the address-mapping table, the inverted hash
 * table, the hash store (the first two and the hash store's records
 * share one SlotTable on the host, each in its own fields), and the
 * free-space bitmap, plus the counter
 * colocation discipline of Section III-C. The invariants (stated at
 * the top of dedup_engine.cc) only break through bugs, and a break
 * silently skews every downstream figure. The auditor walks all four
 * structures and reports the *first* violated invariant with full
 * context (logical line, slot, expected/actual values), in a
 * deterministic order so a violation reproduces identically across
 * runs and thread counts.
 *
 * Cost is one full metadata walk, so audits are opt-in: set
 * DEWRITE_AUDIT=1 and the DeWrite controller audits after every audit
 * epoch (DEWRITE_AUDIT_EPOCH writes, default 10000), the recovery
 * manager audits after every rebuild, and System::run audits once more
 * at run end. Tests call check()/enforce() directly.
 */

#ifndef DEWRITE_DEDUP_METADATA_AUDITOR_HH
#define DEWRITE_DEDUP_METADATA_AUDITOR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"

namespace dewrite {

class DedupEngine;

/** True iff DEWRITE_AUDIT=1 (strict 0/1 parse; fatal otherwise). */
bool auditEnabled();

/** Writes per audit epoch: DEWRITE_AUDIT_EPOCH, default 10000. */
std::uint64_t auditEpochWrites();

/** The named invariants the auditor can report. */
enum class AuditInvariant
{
    /** A remapped logical line must target a data-holding slot (or
     *  the explicit "remapped to nothing" sentinel). */
    MappingTargetHoldsData,
    /** Every inverted-hash data slot must have a live hash-store
     *  record under exactly the fingerprint the entry stores. */
    DataSlotHasHashRecord,
    /** Every hash-store record must describe a data-holding slot whose
     *  inverted-hash fingerprint matches the record's hash. */
    HashRecordMatchesSlot,
    /** A slot's reference count must equal the number of logical lines
     *  referencing it (records pinned at saturation are exempt). */
    ReferenceCountMatches,
    /** The free-space bitmap must mark exactly the inverted-hash data
     *  slots as allocated. */
    FsmMatchesDataSlots,
    /** A slot's encryption counter must live in exactly one home:
     *  overflow entries may exist only while both the mapping and
     *  inverted-hash entries of the slot are occupied, and only with
     *  the slot record's spill flag set. */
    CounterSingleHome,
    /** A hash-store record whose strong-fingerprint flag is valid must
     *  cache exactly the fingerprint of the slot's stored (decrypted)
     *  content — a stale cache would let the weak+strong tier merge
     *  distinct data (DESIGN.md §5j). */
    StrongFpMatchesStoredLine,
};

/** Stable identifier of @p invariant for reports and tests. */
const char *auditInvariantName(AuditInvariant invariant);

/** First violated invariant, with enough context to localize it. */
struct AuditViolation
{
    AuditInvariant invariant = AuditInvariant::MappingTargetHoldsData;
    LineAddr logical = kInvalidAddr; //!< Logical line, if applicable.
    LineAddr slot = kInvalidAddr;    //!< Storage slot, if applicable.
    std::uint64_t expected = 0;
    std::uint64_t actual = 0;
    std::string detail; //!< Human-readable one-line description.
};

class MetadataAuditor
{
  public:
    explicit MetadataAuditor(const DedupEngine &engine);

    /**
     * Walks every table and returns the first violated invariant in a
     * deterministic (ascending address / hash) order, or nullopt when
     * the metadata is fully consistent.
     */
    std::optional<AuditViolation> check() const;

    /**
     * check(), panicking with the violation context on failure.
     * @p when names the trigger point ("epoch", "recovery", "run-end")
     * so the report says which audit hook fired.
     */
    void enforce(const char *when) const;

  private:
    const DedupEngine &engine_;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_METADATA_AUDITOR_HH
