/**
 * @file
 * Data-Comparison-Write reducer.
 *
 * DCW [Yang et al.] reads the old cell contents before a write and
 * programs only the cells whose value changes. On encrypted NVMM the
 * diffusion property makes ~50% of bits differ on every rewrite, which
 * is exactly the effect Figure 13 quantifies.
 */

#ifndef DEWRITE_CONTROLLER_BITLEVEL_DCW_HH
#define DEWRITE_CONTROLLER_BITLEVEL_DCW_HH

#include "common/dense_line_store.hh"
#include "controller/bitlevel/bitflip.hh"

namespace dewrite {

/** DCW: program only the differing cells. */
class DcwReducer : public BitLevelReducer
{
  public:
    std::size_t onWrite(LineAddr slot, const Line &new_pt,
                        const Line &new_ct,
                        std::uint64_t counter) override;

    BitTechnique technique() const override { return BitTechnique::Dcw; }

    void reserveSlots(std::uint64_t expected) override
    {
        images_.reserve(expected);
    }

  private:
    DenseLineStore images_; //!< Stored ciphertext per slot.
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_BITLEVEL_DCW_HH
