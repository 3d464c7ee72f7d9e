/**
 * @file
 * Flip-N-Write reducer.
 *
 * FNW [Cho & Lee] extends DCW: each 16-bit word carries one flip flag;
 * when more than half of a word's cells would change, the word is
 * stored inverted instead, bounding the programmed cells per word to
 * ceil((n+1)/2). On random (encrypted) data this yields the ~43%
 * expected flip rate the paper reports.
 */

#ifndef DEWRITE_CONTROLLER_BITLEVEL_FNW_HH
#define DEWRITE_CONTROLLER_BITLEVEL_FNW_HH

#include <bitset>

#include "common/paged_array.hh"
#include "controller/bitlevel/bitflip.hh"

namespace dewrite {

class FnwReducer : public BitLevelReducer
{
  public:
    std::size_t onWrite(LineAddr slot, const Line &new_pt,
                        const Line &new_ct,
                        std::uint64_t counter) override;

    BitTechnique technique() const override { return BitTechnique::Fnw; }

    void reserveSlots(std::uint64_t expected) override
    {
        state_.reserve(expected);
    }

  private:
    static constexpr std::size_t kWordBits = 16;
    static constexpr std::size_t kWordsPerLine = kLineBits / kWordBits;

    struct SlotState
    {
        Line image;                        //!< Stored cell values.
        std::bitset<kWordsPerLine> flags;  //!< Word stored inverted.
    };

    PagedArray<SlotState, 1024> state_;
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_BITLEVEL_FNW_HH
