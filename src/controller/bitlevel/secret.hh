/**
 * @file
 * SECRET reducer — DEUCE plus zero-word avoidance.
 *
 * SECRET [Swami et al., §V of the paper] refines word-level partial
 * re-encryption for MLC NVMs: words that become all-zero are stored as
 * raw zeros (with a per-word zero flag) instead of being re-encrypted,
 * so a zero word costs only the cells that must be cleared and
 * repeated zero words cost nothing. Non-zero modified words follow
 * DEUCE's leading-counter re-encryption.
 */

#ifndef DEWRITE_CONTROLLER_BITLEVEL_SECRET_HH
#define DEWRITE_CONTROLLER_BITLEVEL_SECRET_HH

#include <bitset>

#include "common/paged_array.hh"
#include "controller/bitlevel/bitflip.hh"

namespace dewrite {

class SecretReducer : public BitLevelReducer
{
  public:
    /** Epoch interval in writes (matches DEUCE's setting). */
    static constexpr std::uint64_t kEpochInterval = 32;

    std::size_t onWrite(LineAddr slot, const Line &new_pt,
                        const Line &new_ct,
                        std::uint64_t counter) override;

    BitTechnique technique() const override
    {
        return BitTechnique::Secret;
    }

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
        Line plainImage;
        Line cellImage;
        std::bitset<kWordsPerLine> modified; //!< LCTR-encrypted words.
        std::bitset<kWordsPerLine> zeroed;   //!< Stored as raw zeros.
    };

    /** Cells programmed to store word @p target over @p stored. */
    static std::size_t flipCost(std::uint16_t stored,
                                std::uint16_t target);

    PagedArray<SlotState, 1024> state_;
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_BITLEVEL_SECRET_HH
