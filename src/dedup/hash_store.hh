/**
 * @file
 * The hash table for duplication detection (Section III-B2).
 *
 * Maps the CRC-32 fingerprint of every valid line in memory to the slot
 * holding that line and an 8-bit reference count (how many logical
 * addresses map to the slot). CRC-32 collides, so one hash can chain
 * several slots whose contents differ; the engine confirms candidates
 * with a read-and-compare. Reference counts saturate at 255: a line that
 * reaches 255 references is pinned as "highly referenced" and further
 * duplicates of it are written normally rather than deduplicated, which
 * bounds the field width at the cost of a few missed eliminations.
 *
 * Storage is split the way NV-Dedup splits its weak-hash table: a
 * compact 16 B-slot FlatMap from hash to the newest slot of its chain,
 * beside per-slot records (hash, reference, link to the next older
 * slot of the chain). A slot holds one content, so it sits in at most
 * one chain, and its record lives in the slot's SlotRecord (the
 * storeHash/older/reference fields and the strong-valid flag), found by
 * address alone; only insert, removal and lookup probe the hash index.
 * Strong fingerprints live in a side table that only the weak+strong
 * policies ever touch.
 *
 * Chain order is append order and removal preserves it; lookup walks
 * it newest-first, exactly the order of the engine's capped probe.
 */

#ifndef DEWRITE_DEDUP_HASH_STORE_HH
#define DEWRITE_DEDUP_HASH_STORE_HH

#include <algorithm>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/paged_array.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/strong_fingerprint.hh"
#include "dedup/slot_table.hh"

namespace dewrite {

/**
 * One <hash, realAddr, reference> record as the store hands it out,
 * plus the lazily cached strong fingerprint of the slot's content
 * (DESIGN.md §5j): null on insert, filled by the engine on the first
 * weak-match confirmation, and invalidated on rewrite because a
 * rewritten slot's record is always dropped and re-inserted.
 */
struct HashEntry
{
    LineAddr realAddr;
    std::uint8_t reference;
    const StrongFp *strongFp; //!< Null until a fingerprint is cached.
};

class HashStore
{
    /** Chain links hold slot + 1, so a zeroed link ends the chain. */
    static constexpr std::uint32_t kEnd = 0;

    /** One past the highest slot a link can name. */
    static constexpr LineAddr kSlotLimit = 0xffffffffu;

  public:
    /** Saturation limit of the 8-bit reference field. */
    static constexpr std::uint8_t kMaxReference = 255;

    /** A store keeping its per-slot records in @p slots. */
    explicit HashStore(SlotTable &slots) : slots_(slots) {}

    /**
     * One hash's collision chain, walked newest-first. Valid until the
     * next insert, removal or restore; reference changes and
     * setStrongFp are seen by a walk in progress.
     */
    class ChainView
    {
      public:
        class Iterator
        {
          public:
            HashEntry operator*() const { return store_->entryAt(link_ - 1); }

            Iterator &
            operator++()
            {
                link_ = store_->slots_.find(link_ - 1)->older;
                return *this;
            }

            bool
            operator!=(const Iterator &other) const
            {
                return link_ != other.link_;
            }

          private:
            friend class ChainView;
            Iterator(const HashStore *store, std::uint32_t link)
                : store_(store), link_(link)
            {
            }

            const HashStore *store_;
            std::uint32_t link_; //!< Current slot + 1.
        };

        Iterator begin() const { return { store_, newest_ }; }
        Iterator end() const { return { store_, kEnd }; }
        bool empty() const { return newest_ == kEnd; }

        /** Chain length (walks the chain). */
        std::size_t
        size() const
        {
            std::size_t n = 0;
            for (Iterator it = begin(); it != end(); ++it)
                ++n;
            return n;
        }

      private:
        friend class HashStore;
        ChainView(const HashStore *store, std::uint32_t newest)
            : store_(store), newest_(newest)
        {
        }

        const HashStore *store_;
        std::uint32_t newest_; //!< Newest slot + 1.
    };

    /**
     * The chain of slots fingerprinted by @p hash, newest first
     * (possibly empty; more than one entry means a CRC collision is
     * live).
     */
    ChainView lookup(std::uint64_t hash) const;

    /** Inserts a new record with reference 1. The slot must be free. */
    void insert(std::uint64_t hash, LineAddr real_addr)
    {
        append(hash, real_addr, 1, "insert");
    }

    /**
     * Increments the reference of (@p hash, @p real_addr).
     * @return false if the count is saturated (caller must then treat
     *         the write as non-duplicate), true otherwise.
     */
    bool addReference(std::uint64_t hash, LineAddr real_addr);

    /**
     * Decrements the reference of (@p hash, @p real_addr).
     * @return true if the count reached zero and the record was removed
     *         (the slot no longer holds live data).
     */
    bool dropReference(std::uint64_t hash, LineAddr real_addr);

    /** Current reference count, or 0 if the record is absent. */
    std::uint8_t
    reference(std::uint64_t hash, LineAddr real_addr) const
    {
        const SlotRecord *rec = live(hash, real_addr);
        return rec ? rec->reference : 0;
    }

    /**
     * Caches @p fp as the strong fingerprint of (@p hash,
     * @p real_addr)'s content and marks it valid. The record must
     * exist. Also the seeded-damage hook: the auditor test writes a
     * wrong fingerprint here to prove the
     * strong-fp-matches-stored-line invariant fires.
     */
    void setStrongFp(std::uint64_t hash, LineAddr real_addr,
                     const StrongFp &fp);

    /**
     * The cached strong fingerprint of (@p hash, @p real_addr), or
     * nullptr when the record is absent or its fingerprint has not
     * been computed yet.
     */
    const StrongFp *
    strongFpOf(std::uint64_t hash, LineAddr real_addr) const
    {
        const SlotRecord *rec = live(hash, real_addr);
        return rec && rec->has(SlotRecord::kStrongValid)
                   ? strongFps_.find(real_addr)
                   : nullptr;
    }

    /**
     * Recovery-only: installs a record with an explicit, nonzero
     * reference count (clamped to the saturation cap). The slot must
     * be free.
     */
    void
    restore(std::uint64_t hash, LineAddr real_addr,
            std::uint64_t references)
    {
        append(hash, real_addr,
               static_cast<std::uint8_t>(
                   std::min<std::uint64_t>(references, kMaxReference)),
               "restore");
    }

    /**
     * Pre-sizes the hash index for @p expected records and the strong
     * fingerprint directory for slots below @p slots (no mid-run rehash
     * or directory growth); the SlotTable sizes the records.
     * Construction-time pre-sizing: the analyzer's hot edges to it are
     * a member-name over-approximation.
     */
    void
    reserve(std::size_t expected, std::uint64_t slots)
    {
        newest_.reserve(expected); // dewrite-analyze: allow(hot-path-purity)
        strongFps_.reserve(slots); // dewrite-analyze: allow(hot-path-purity)
    }

    /**
     * Drops every record: the index, the strong fingerprints and the
     * records' fields in the SlotTable — and nothing else of it — plus
     * the saturation count. Crash damage and recovery start from here.
     */
    void clear();

    /** Number of live records. */
    std::size_t size() const { return size_; }

    /** Number of distinct hash values with at least one record. */
    std::size_t distinctHashes() const { return newest_.size(); }

    /**
     * Live records whose hash is shared with another live record — the
     * measure behind Figure 6's collision probability.
     */
    std::size_t collidingEntries() const;

    /** Longest live collision chain. */
    std::size_t maxChainLength() const;

    /** Cumulative saturation refusals (for the Figure 12 miss budget). */
    std::uint64_t saturationRefusals() const
    {
        return saturationRefusals_.value();
    }

    /**
     * Visits every record in ascending hash order (entries of one hash
     * in append order, oldest first), so consumers — refcount
     * histograms, recovery audits — see a sequence independent of table
     * layout.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visit) const
    {
        newest_.forEachSorted([&](std::uint64_t hash, std::uint32_t link) {
            visitOldestFirst(hash, link - 1, visit);
        });
    }

  private:
    /** The record of @p real_addr if it is live under @p hash. */
    const SlotRecord *live(std::uint64_t hash, LineAddr real_addr) const
    {
        const SlotRecord *rec = slots_.find(real_addr);
        return rec && rec->reference != 0 && rec->storeHash == hash
                   ? rec
                   : nullptr;
    }
    SlotRecord *
    live(std::uint64_t hash, LineAddr real_addr)
    {
        return const_cast<SlotRecord *>(
            static_cast<const HashStore *>(this)->live(hash, real_addr));
    }

    HashEntry
    entryAt(LineAddr slot) const
    {
        const SlotRecord &rec = *slots_.find(slot);
        return { slot, rec.reference,
                 rec.has(SlotRecord::kStrongValid) ? strongFps_.find(slot)
                                                   : nullptr };
    }

    /** Resets the hash-store fields of @p rec to "no record". */
    static void
    clearRecord(SlotRecord &rec)
    {
        rec.storeHash = 0;
        rec.older = kEnd;
        rec.reference = 0;
        rec.clear(SlotRecord::kStrongValid);
    }

    /** Links a new newest record into @p hash's chain. */
    void append(std::uint64_t hash, LineAddr real_addr,
                std::uint8_t reference, const char *op);

    /**
     * Chain recursion: the older tail first, then @p slot. The depth
     * is the chain length, which only forged CRC-32 collisions grow.
     */
    template <typename Visitor>
    void
    visitOldestFirst(std::uint64_t hash, LineAddr slot,
                     Visitor &visit) const
    {
        const std::uint32_t older = slots_.find(slot)->older;
        if (older != kEnd)
            visitOldestFirst(hash, older - 1, visit);
        visit(hash, entryAt(slot));
    }

    SlotTable &slots_;                             //!< records, by slot
    FlatMap<std::uint64_t, std::uint32_t> newest_; //!< hash -> newest + 1
    PagedArray<StrongFp> strongFps_; //!< by real address, weak+strong only
    std::size_t size_ = 0;
    Counter saturationRefusals_;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_HASH_STORE_HH
