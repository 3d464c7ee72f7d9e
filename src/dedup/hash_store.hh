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
 * Storage is a FlatMap from hash to a small-buffer chain: the one- and
 * two-entry chains that dominate in practice (CRC collisions are rare,
 * Figure 6) live inline in the map slot, and only a genuinely colliding
 * hash spills to a pooled vector. Chain order is append order and erase
 * preserves it, so the engine's newest-first probe sees exactly the
 * sequence the old vector-per-hash layout produced. Every mutation
 * probes the table once.
 */

#ifndef DEWRITE_DEDUP_HASH_STORE_HH
#define DEWRITE_DEDUP_HASH_STORE_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/strong_fingerprint.hh"

namespace dewrite {

/**
 * One <hash, realAddr, reference> record, plus the lazily cached
 * strong fingerprint of the slot's content (DESIGN.md §5j): invalid
 * on insert, filled by the engine on the first weak-match
 * confirmation, and implicitly invalidated on rewrite because a
 * rewritten slot's record is always dropped and re-inserted.
 */
struct HashEntry
{
    LineAddr realAddr;
    std::uint8_t reference;
    bool strongValid = false; //!< strongFp caches the slot's content fp.
    StrongFp strongFp{};      //!< Meaningful only while strongValid.
};

/**
 * Read-only view of one hash's collision chain, in append order
 * (index 0 oldest). Valid until the next HashStore mutation.
 */
class ChainView
{
  public:
    ChainView() = default;
    ChainView(const HashEntry *head, std::size_t head_count,
              const HashEntry *spill, std::size_t spill_count)
        : head_(head), headCount_(head_count), spill_(spill),
          spillCount_(spill_count)
    {
    }

    std::size_t size() const { return headCount_ + spillCount_; }
    bool empty() const { return size() == 0; }

    const HashEntry &
    operator[](std::size_t i) const
    {
        return i < headCount_ ? head_[i] : spill_[i - headCount_];
    }

  private:
    const HashEntry *head_ = nullptr;
    std::size_t headCount_ = 0;
    const HashEntry *spill_ = nullptr;
    std::size_t spillCount_ = 0;
};

class HashStore
{
  public:
    /** Saturation limit of the 8-bit reference field. */
    static constexpr std::uint8_t kMaxReference = 255;

    /**
     * Returns the chain of slots fingerprinted by @p hash (possibly
     * empty; more than one entry means a CRC collision is live).
     */
    ChainView lookup(std::uint64_t hash) const;

    /** Inserts a new record with reference 1. The pair must be absent. */
    void insert(std::uint64_t hash, LineAddr real_addr);

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
    std::uint8_t reference(std::uint64_t hash, LineAddr real_addr) const;

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
    const StrongFp *strongFpOf(std::uint64_t hash,
                               LineAddr real_addr) const;

    /**
     * Recovery-only: installs a record with an explicit reference
     * count (clamped to the saturation cap). The pair must be absent.
     */
    void restore(std::uint64_t hash, LineAddr real_addr,
                 std::uint64_t references);

    /** Pre-sizes the table for @p expected records (no mid-run rehash). */
    // dewrite-analyze: allow(hot-path-purity) construction-time pre-sizing;
    // the hot edge is a member-name over-approximation
    void reserve(std::size_t expected) { chains_.reserve(expected); }

    /** Number of live records. */
    std::size_t size() const { return size_; }

    /** Number of distinct hash values with at least one record. */
    std::size_t distinctHashes() const { return chains_.size(); }

    /**
     * Live records whose hash is shared with another live record — the
     * measure behind Figure 6's collision probability.
     */
    std::size_t collidingEntries() const;

    /** Longest live collision chain. */
    std::size_t maxChainLength() const;

    /** Chains that outgrew the inline buffer (testing / inspection). */
    std::size_t spilledChains() const;

    /** Cumulative saturation refusals (for the Figure 12 miss budget). */
    std::uint64_t saturationRefusals() const
    {
        return saturationRefusals_.value();
    }

    /**
     * Visits every record in ascending hash order (entries of one hash
     * in chain order), so consumers — refcount histograms, recovery
     * audits — see a sequence independent of table layout.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visit) const
    {
        chains_.forEachSorted([&](std::uint64_t hash, const Chain &chain) {
            const std::size_t head =
                std::min<std::size_t>(chain.count, Chain::kInline);
            for (std::size_t i = 0; i < head; ++i)
                visit(hash, chain.inlineEntries[i]);
            if (chain.count > Chain::kInline) {
                for (const HashEntry &entry : spills_[chain.spillSlot])
                    visit(hash, entry);
            }
        });
    }

  private:
    /**
     * One hash's records: up to kInline held inline, the rest in
     * spills_[spillSlot]. Logical order is inlineEntries then spill.
     */
    struct Chain
    {
        static constexpr std::size_t kInline = 2;

        HashEntry inlineEntries[kInline];
        std::uint32_t count = 0;
        std::uint32_t spillSlot = 0; // Valid only while count > kInline.
    };

    static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

    /** Index of (hash-chain, entry) located by one table probe. */
    struct Locator
    {
        std::size_t chainIdx; // FlatMap slot index, kNpos if hash absent.
        std::size_t entryIdx; // Position in the chain, kNpos if absent.
    };

    Locator locate(std::uint64_t hash, LineAddr real_addr) const;
    HashEntry &entryAt(Chain &chain, std::size_t i);
    void appendEntry(Chain &chain, HashEntry entry);
    void removeEntry(Chain &chain, std::size_t i);

    FlatMap<std::uint64_t, Chain> chains_;
    std::vector<std::vector<HashEntry>> spills_;
    std::vector<std::uint32_t> freeSpills_;
    std::size_t size_ = 0;
    Counter saturationRefusals_;
};

} // namespace dewrite

#endif // DEWRITE_DEDUP_HASH_STORE_HH
