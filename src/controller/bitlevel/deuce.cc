/**
 * @file
 * DeuceReducer implementation.
 */

#include "controller/bitlevel/deuce.hh"

#include <bit>

namespace dewrite {

std::size_t
DeuceReducer::onWrite(LineAddr slot, const Line &new_pt,
                      const Line &new_ct, std::uint64_t counter)
{
    SlotState &st = state_.ref(slot);
    const bool epoch =
        !st.initialized || (counter % kEpochInterval == 0);

    std::size_t flips = 0;
    if (epoch) {
        // Epoch boundary (or first touch): the full line re-encrypts
        // under the new trailing counter and the modified set clears.
        flips = st.cellImage.bitDistance(new_ct);
        st.cellImage = new_ct;
        st.modified.reset();
        st.initialized = true;
    } else {
        // Modified words take the leading-counter ciphertext, which is
        // exactly the controller's ciphertext word.
        Line new_cell = st.cellImage;
        for (std::size_t w = 0; w < kWordsPerLine; ++w) {
            if (new_pt.word16(w) != st.plainImage.word16(w))
                st.modified.set(w);
            if (!st.modified.test(w))
                continue; // Untouched this epoch: stale ciphertext stays.
            const std::uint16_t ct = new_ct.word16(w);
            flips += std::popcount(
                static_cast<unsigned>(ct ^ st.cellImage.word16(w)));
            new_cell.setWord16(w, ct);
        }
        st.cellImage = new_cell;
    }
    st.plainImage = new_pt;
    return flips;
}

} // namespace dewrite
