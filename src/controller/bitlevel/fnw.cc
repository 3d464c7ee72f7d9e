/**
 * @file
 * FnwReducer implementation.
 */

#include "controller/bitlevel/fnw.hh"

#include <bit>

namespace dewrite {

std::size_t
FnwReducer::onWrite(LineAddr slot, const Line & /*new_pt*/,
                    const Line &new_ct, std::uint64_t /*counter*/)
{
    SlotState &st = state_.ref(slot);

    std::size_t flips = 0;
    for (std::size_t w = 0; w < kWordsPerLine; ++w) {
        const std::uint16_t stored = st.image.word16(w);
        const std::uint16_t target = new_ct.word16(w);
        const std::uint16_t inverted =
            static_cast<std::uint16_t>(~target);

        // Cost of each representation includes a possible flip of the
        // flag cell itself.
        const bool flag_old = st.flags.test(w);
        const std::size_t cost_plain =
            std::popcount(static_cast<unsigned>(stored ^ target)) +
            (flag_old ? 1 : 0);
        const std::size_t cost_inv =
            std::popcount(static_cast<unsigned>(stored ^ inverted)) +
            (flag_old ? 0 : 1);

        if (cost_inv < cost_plain) {
            flips += cost_inv;
            st.image.setWord16(w, inverted);
            st.flags.set(w);
        } else {
            flips += cost_plain;
            st.image.setWord16(w, target);
            st.flags.reset(w);
        }
    }
    return flips;
}

} // namespace dewrite
