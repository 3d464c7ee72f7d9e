/**
 * @file
 * DEUCE reducer — dual-counter word-level partial re-encryption.
 *
 * DEUCE [Young et al., HPCA'15] observes that only a few 16-bit words
 * of a cache line typically change per write-back, yet counter-mode
 * re-encryption flips ~half of *all* bits. It therefore keeps two
 * counters per line: a trailing counter (TCTR, advanced once per
 * 32-write epoch) encrypting the words untouched this epoch, and a
 * leading counter (LCTR, the current write counter) re-encrypting the
 * words modified since the epoch began. Untouched words keep their
 * stale-epoch ciphertext — zero flips — while the modified set pays
 * diffusion. At each epoch boundary the whole line re-encrypts and the
 * modified set clears. Counting flips needs only the stored cells, not
 * the trailing counter itself, so the reducer keeps no TCTR.
 */

#ifndef DEWRITE_CONTROLLER_BITLEVEL_DEUCE_HH
#define DEWRITE_CONTROLLER_BITLEVEL_DEUCE_HH

#include <bitset>

#include "common/paged_array.hh"
#include "controller/bitlevel/bitflip.hh"

namespace dewrite {

class DeuceReducer : public BitLevelReducer
{
  public:
    /** Epoch interval in writes (DEUCE's published setting). */
    static constexpr std::uint64_t kEpochInterval = 32;

    std::size_t onWrite(LineAddr slot, const Line &new_pt,
                        const Line &new_ct,
                        std::uint64_t counter) override;

    BitTechnique technique() const override { return BitTechnique::Deuce; }

    void reserveSlots(std::uint64_t expected) override
    {
        state_.reserve(expected);
    }

  private:
    static constexpr std::size_t kWordBits = 16;
    static constexpr std::size_t kWordsPerLine = kLineBits / kWordBits;

    struct SlotState
    {
        bool initialized = false;
        Line plainImage;                      //!< Last written plaintext.
        Line cellImage;                       //!< Stored cell values.
        std::bitset<kWordsPerLine> modified;  //!< LCTR-encrypted words.
    };

    PagedArray<SlotState, 1024> state_;
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_BITLEVEL_DEUCE_HH
