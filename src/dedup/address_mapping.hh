/**
 * @file
 * The address-mapping table (Section III-B2) with counter colocation
 * (Section III-C).
 *
 * Deduplication turns the logical-line -> storage-slot relation from
 * one-to-one into many-to-one. Entry L of this sequentially-stored table
 * is a tagged slot: when logical line L's data lives at another slot,
 * the entry holds that realAddr (flag = 1); otherwise the entry is
 * "null" and DeWrite reuses it to store slot L's counter-mode encryption
 * counter (flag = 0), eliminating the baseline's counter table.
 */

#ifndef DEWRITE_DEDUP_ADDRESS_MAPPING_HH
#define DEWRITE_DEDUP_ADDRESS_MAPPING_HH

#include <cstdint>

#include "common/paged_array.hh"
#include "common/types.hh"

namespace dewrite {

class AddressMappingTable
{
  public:
    /** Pre-sizes the table for @p num_lines logical lines. */
    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::uint64_t num_lines) { entries_.reserve(num_lines); }

    /** True iff logical line @p init_addr is remapped to another slot. */
    bool isRemapped(LineAddr init_addr) const;

    /** The slot holding @p init_addr's data; only valid if remapped. */
    LineAddr realAddr(LineAddr init_addr) const;

    /**
     * Remaps @p init_addr to @p real_addr. Any counter colocated in the
     * entry is destroyed: the caller (DedupEngine::setCounterOf) must
     * save it beforehand and re-home it afterwards.
     */
    void remap(LineAddr init_addr, LineAddr real_addr);

    /**
     * Clears the remapping of @p init_addr; the entry becomes a null
     * (counter) slot holding 0 until the caller re-homes a counter.
     */
    void clearRemap(LineAddr init_addr);

    /**
     * Counter colocated at entry @p init_addr. Only valid when the entry
     * is not remapped. Unwritten entries hold counter 0.
     */
    std::uint64_t counter(LineAddr init_addr) const;

    /** Stores @p counter; entry must not be remapped. */
    void setCounter(LineAddr init_addr, std::uint64_t counter);

    /**
     * Fused isRemapped() + counter() in one table walk: when the entry
     * is not remapped, stores its colocated counter (0 if untouched)
     * into @p counter and returns true; returns false when remapped.
     */
    bool counterIfNotRemapped(LineAddr init_addr,
                              std::uint64_t &counter) const;

    /**
     * Fused isRemapped() + setCounter() in one table walk: stores
     * @p counter iff the entry is not remapped; returns whether it did.
     */
    bool trySetCounter(LineAddr init_addr, std::uint64_t counter);

    /** Number of remapped entries (deduplicated/relocated lines). */
    std::size_t remappedCount() const { return remapped_; }

    /**
     * Visits every remapped entry as (initAddr, realAddr) in ascending
     * address order. Used by recovery to recompute reference counts.
     */
    template <typename Visitor>
    void
    forEachRemapped(Visitor &&visit) const
    {
        // PagedArray visits ascending addresses (the auditor's
        // determinism relies on this order).
        // dewrite-lint: allow(unsorted-iteration)
        entries_.forEach([&](LineAddr init_addr, const Entry &entry) {
            if (entry.remapped)
                visit(init_addr, static_cast<LineAddr>(entry.value));
        });
    }

  private:
    struct Entry
    {
        bool remapped = false;
        // Union semantics of the paper's flag bit: realAddr when
        // remapped, encryption counter otherwise.
        std::uint64_t value = 0;
    };

    /** Direct-indexed backing: untouched entries read as
     *  (not remapped, counter 0), exactly like the paper's
     *  sequentially stored table. */
    PagedArray<Entry> entries_;
    std::size_t remapped_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_ADDRESS_MAPPING_HH
