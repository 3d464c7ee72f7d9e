/**
 * @file
 * SecretReducer implementation.
 */

#include "controller/bitlevel/secret.hh"

#include <bit>

namespace dewrite {

std::size_t
SecretReducer::flipCost(std::uint16_t stored, std::uint16_t target)
{
    return std::popcount(static_cast<unsigned>(stored ^ target));
}

std::size_t
SecretReducer::onWrite(LineAddr slot, const Line &new_pt,
                       const Line &new_ct, std::uint64_t counter)
{
    SlotState &st = state_.ref(slot);
    const bool epoch = !st.initialized || (counter % kEpochInterval == 0);

    // A non-zero word stored encrypted takes the leading-counter
    // ciphertext, which is exactly the controller's ciphertext word.
    std::size_t flips = 0;
    if (epoch) {
        // Epoch boundary: every non-zero word re-encrypts under the
        // new counter; zero words are stored raw and flagged.
        Line new_cell;
        st.zeroed.reset();
        for (std::size_t w = 0; w < kWordsPerLine; ++w) {
            const std::uint16_t pt = new_pt.word16(w);
            std::uint16_t cell;
            if (pt == 0) {
                cell = 0;
                st.zeroed.set(w);
                ++flips; // The zero-flag cell itself.
            } else {
                cell = new_ct.word16(w);
            }
            flips += flipCost(st.cellImage.word16(w), cell);
            new_cell.setWord16(w, cell);
        }
        st.cellImage = new_cell;
        st.modified.reset();
        st.initialized = true;
    } else {
        Line new_cell = st.cellImage;
        for (std::size_t w = 0; w < kWordsPerLine; ++w) {
            const std::uint16_t pt = new_pt.word16(w);
            const bool changed = pt != st.plainImage.word16(w);
            if (changed)
                st.modified.set(w);
            if (!st.modified.test(w))
                continue; // Untouched this epoch.

            std::uint16_t cell;
            if (pt == 0) {
                // Zero word: stored raw; repeated zeros are free.
                cell = 0;
                if (!st.zeroed.test(w)) {
                    st.zeroed.set(w);
                    ++flips; // Flag flip.
                }
            } else {
                cell = new_ct.word16(w);
                if (st.zeroed.test(w)) {
                    st.zeroed.reset(w);
                    ++flips; // Flag flip back.
                }
            }
            flips += flipCost(st.cellImage.word16(w), cell);
            new_cell.setWord16(w, cell);
        }
        st.cellImage = new_cell;
    }
    st.plainImage = new_pt;
    return flips;
}

} // namespace dewrite
