/**
 * @file
 * The inverted hash table (Section III-B2) with counter colocation
 * (Section III-C).
 *
 * Indexed by storage slot (real address), entry S holds the fingerprint
 * of the data currently stored at slot S so that a rewrite can find and
 * remove the stale record from the hash store without rehashing old
 * data. When slot S holds no valid data, the entry is "null" and is
 * reused to store slot S's encryption counter (flag = 0) — counters must
 * survive frees so that a reallocated slot never repeats an OTP.
 */

#ifndef DEWRITE_DEDUP_INVERTED_HASH_HH
#define DEWRITE_DEDUP_INVERTED_HASH_HH

#include <cstdint>

#include "common/paged_array.hh"
#include "common/types.hh"

namespace dewrite {

class InvertedHashTable
{
  public:
    /** Pre-sizes the table for @p num_lines storage slots. */
    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::uint64_t num_lines) { entries_.reserve(num_lines); }

    /** True iff slot @p real_addr currently holds valid data. */
    bool holdsData(LineAddr real_addr) const;

    /** The fingerprint of the data at @p real_addr (must hold data). */
    std::uint64_t hash(LineAddr real_addr) const;

    /**
     * Marks @p real_addr as holding data fingerprinted by @p hash. Any
     * counter colocated in the entry is destroyed: the caller
     * (DedupEngine::setCounterOf) must save it beforehand and re-home
     * it afterwards.
     */
    void setHash(LineAddr real_addr, std::uint64_t hash);

    /**
     * Marks @p real_addr as holding no valid data; the entry becomes a
     * null (counter) slot holding 0 until the caller re-homes a counter.
     */
    void clearHash(LineAddr real_addr);

    /**
     * Counter colocated at entry @p real_addr. Only valid when the slot
     * holds no data. Unwritten entries hold counter 0.
     */
    std::uint64_t counter(LineAddr real_addr) const;

    /** Stores @p counter; the slot must not hold data. */
    void setCounter(LineAddr real_addr, std::uint64_t counter);

    /**
     * Fused holdsData() + counter() in one table walk: when the slot
     * holds no data, stores its colocated counter (0 if untouched)
     * into @p counter and returns true; returns false for data slots.
     */
    bool counterIfNoData(LineAddr real_addr, std::uint64_t &counter) const;

    /**
     * Fused holdsData() + setCounter() in one table walk: stores
     * @p counter iff the slot holds no data; returns whether it did.
     */
    bool trySetCounter(LineAddr real_addr, std::uint64_t counter);

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
        // PagedArray visits ascending addresses (the auditor's
        // determinism relies on this order).
        // dewrite-lint: allow(unsorted-iteration)
        entries_.forEach([&](LineAddr real_addr, const Entry &entry) {
            if (entry.hasHash)
                visit(real_addr, entry.value);
        });
    }

  private:
    struct Entry
    {
        bool hasHash = false;
        std::uint64_t value = 0; //!< hash when hasHash, counter otherwise.
    };

    PagedArray<Entry> entries_;
    std::size_t dataSlots_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_INVERTED_HASH_HH
