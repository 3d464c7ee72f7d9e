/**
 * @file
 * DcwReducer implementation.
 */

#include "controller/bitlevel/dcw.hh"

namespace dewrite {

std::size_t
DcwReducer::onWrite(LineAddr slot, const Line & /*new_pt*/,
                    const Line &new_ct, std::uint64_t /*counter*/)
{
    // A first write lands on a zeroed slot: fresh PCM cells read zero.
    Line &image = images_.refForWrite(slot);
    const std::size_t flips = image.bitDistance(new_ct);
    image = new_ct;
    return flips;
}

} // namespace dewrite
