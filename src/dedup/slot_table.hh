/**
 * @file
 * DeWrite's per-line metadata, one 32 B host record per line address.
 *
 * Line address A indexes three of the paper's tables (Section III-B2):
 * the address-mapping entry of logical line A, the inverted-hash entry
 * of slot A, and — a slot holds one content, so it sits in at most one
 * hash chain — the hash-store record of slot A. Section III-C already
 * treats the first two as the homes of slot A's counter. SlotTable
 * keeps all three, plus the "ever written" bit of logical A, in one
 * SlotRecord (NV-Dedup's per-block entry layout), so a commit, read or
 * detection touches one host cache line per address, not one per table.
 *
 * Only the host layout is fused: the simulated metadata cache still
 * charges each table at its own NVM address, and every field a crash
 * can damage on its own stays its own field (storeHash is not
 * invValue; see RecoveryManager::simulateCrashDamage).
 */

#ifndef DEWRITE_DEDUP_SLOT_TABLE_HH
#define DEWRITE_DEDUP_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>

#include "common/paged_array.hh"
#include "common/types.hh"

namespace dewrite {

/**
 * Everything DeWrite keeps for one line address. All-zero bytes mean
 * "untouched": not remapped, no data, never written, no hash-store
 * record, counter 0 — so fresh pages need no fill.
 */
struct alignas(32) SlotRecord
{
    enum Flag : std::uint8_t
    {
        kRemapped = 1u << 0,    //!< mapValue is a realAddr.
        kHoldsData = 1u << 1,   //!< invValue is a fingerprint.
        kWritten = 1u << 2,     //!< Logical line ever written.
        kStrongValid = 1u << 3, //!< Hash store caches a strong fp.
        kHasOverflow = 1u << 4, //!< Counter spilled (both homes taken).
        kHasMajor = 1u << 5,    //!< Minor counter has wrapped.
    };

    /** Mapping entry: realAddr when remapped, else the slot counter. */
    std::uint64_t mapValue;
    /** Inverted-hash entry: the fingerprint when the slot holds data,
     *  else the slot counter. */
    std::uint64_t invValue;
    /** Hash-store record: the fingerprint it is chained under. */
    std::uint64_t storeHash;
    /** Hash-store record: next older slot of the chain + 1; 0 ends. */
    std::uint32_t older;
    /** Hash-store record: reference count; 0 means no record. */
    std::uint8_t reference;
    std::uint8_t flags;

    static constexpr bool kZeroBytesAreValueInit = true;

    bool has(Flag flag) const { return (flags & flag) != 0; }
    void set(Flag flag) { flags = static_cast<std::uint8_t>(flags | flag); }
    void
    clear(Flag flag)
    {
        flags = static_cast<std::uint8_t>(flags & ~flag);
    }

    /**
     * The field homing this slot's encryption counter (Section III-C):
     * the mapping entry when null, else the inverted-hash entry when
     * null, else none — the counter has spilled to the engine's
     * overflow store.
     */
    const std::uint64_t *
    counterHome() const
    {
        if (!has(kRemapped))
            return &mapValue;
        return has(kHoldsData) ? nullptr : &invValue;
    }
    std::uint64_t *
    counterHome()
    {
        return const_cast<std::uint64_t *>(
            static_cast<const SlotRecord *>(this)->counterHome());
    }
};

static_assert(sizeof(SlotRecord) == 32 && alignof(SlotRecord) == 32,
              "one record per half host cache line");

class SlotTable
{
  public:
    /** Pre-sizes the page directory for @p num_lines line addresses. */
    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::uint64_t num_lines) { records_.reserve(num_lines); }

    /** The record of @p addr, or null if its page was never touched. */
    const SlotRecord *find(LineAddr addr) const
    {
        return records_.find(addr);
    }

    /** Writable record of @p addr, allocating its page on demand. */
    SlotRecord &ref(LineAddr addr) { return records_.ref(addr); }

    /** @{ Address-mapping view, indexed by logical line. */
    /** True iff logical line @p init_addr is remapped to another slot. */
    bool
    isRemapped(LineAddr init_addr) const
    {
        const SlotRecord *rec = find(init_addr);
        return rec && rec->has(SlotRecord::kRemapped);
    }

    /** The slot holding @p init_addr's data; only valid if remapped. */
    LineAddr realAddr(LineAddr init_addr) const;

    /**
     * Remaps @p init_addr to @p real_addr. A counter homed in the
     * mapping entry is destroyed: the caller (DedupEngine::setCounterOf)
     * must save it beforehand and re-home it afterwards.
     */
    void remap(LineAddr init_addr, LineAddr real_addr);

    /** Clears the remapping; the entry homes counter 0 until re-homed. */
    void clearRemap(LineAddr init_addr);

    /**
     * Visits every remapped entry as (initAddr, realAddr) in ascending
     * address order. Used by recovery and the auditor.
     */
    template <typename Visitor>
    void
    forEachRemapped(Visitor &&visit) const
    {
        // PagedArray visits ascending addresses (the auditor's
        // determinism relies on this order).
        // dewrite-lint: allow(unsorted-iteration)
        records_.forEach([&](LineAddr init_addr, const SlotRecord &rec) {
            if (rec.has(SlotRecord::kRemapped))
                visit(init_addr, static_cast<LineAddr>(rec.mapValue));
        });
    }
    /** @} */

    /** @{ Inverted-hash view, indexed by storage slot. */
    /** True iff slot @p real_addr currently holds valid data. */
    bool
    holdsData(LineAddr real_addr) const
    {
        const SlotRecord *rec = find(real_addr);
        return rec && rec->has(SlotRecord::kHoldsData);
    }

    /** The fingerprint of the data at @p real_addr (must hold data). */
    std::uint64_t hash(LineAddr real_addr) const;

    /**
     * Marks @p real_addr as holding data fingerprinted by @p hash. A
     * counter homed in the inverted-hash entry is destroyed: the caller
     * must save it beforehand and re-home it afterwards.
     */
    void setHash(LineAddr real_addr, std::uint64_t hash);

    /** Marks @p real_addr empty; the entry homes counter 0 until
     *  re-homed. */
    void clearHash(LineAddr real_addr);

    /** Number of slots currently holding valid data. */
    std::size_t dataSlots() const { return dataSlots_; }

    /**
     * Visits every data-holding slot as (realAddr, hash) in ascending
     * slot order. Used by recovery to rebuild the hash store and the
     * free-space bitmap.
     */
    template <typename Visitor>
    void
    forEachDataSlot(Visitor &&visit) const
    {
        // dewrite-lint: allow(unsorted-iteration) ascending addresses
        records_.forEach([&](LineAddr real_addr, const SlotRecord &rec) {
            if (rec.has(SlotRecord::kHoldsData))
                visit(real_addr, rec.invValue);
        });
    }
    /** @} */

    /** @{ Logical lines ever written (functional validity only). */
    bool
    written(LineAddr init_addr) const
    {
        const SlotRecord *rec = find(init_addr);
        return rec && rec->has(SlotRecord::kWritten);
    }

    void markWritten(LineAddr init_addr)
    {
        ref(init_addr).set(SlotRecord::kWritten);
    }
    /** @} */

  private:
    PagedArray<SlotRecord> records_;
    std::size_t dataSlots_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_SLOT_TABLE_HH
