/**
 * @file
 * Bit-level write-reduction techniques (Figure 13's comparison set).
 *
 * These techniques decide how many PCM cells a line write actually
 * programs. They are orthogonal to DeWrite (which eliminates whole-line
 * writes) and compose with it: DeWrite handles duplicate lines, a
 * bit-level reducer handles the residual bit flips of unique lines.
 *
 * Reducers do no cryptography: the controller encrypts each line once
 * and hands the reducer that ciphertext with the plaintext and counter
 * it came from. Each reducer maintains its own image of what the cells
 * contain under its scheme (FNW stores words inverted, DEUCE keeps
 * stale-epoch ciphertext in untouched words), decoupled from the
 * device's functional store, so flip counts are exact without
 * entangling the schemes' storage formats.
 *
 * BitTechnique::None builds no reducer: a full-line write programs
 * every cell, so the controllers charge kLineBits themselves.
 */

#ifndef DEWRITE_CONTROLLER_BITLEVEL_BITFLIP_HH
#define DEWRITE_CONTROLLER_BITLEVEL_BITFLIP_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/line.hh"
#include "common/types.hh"

namespace dewrite {

/** Which bit-level technique a controller applies to unique writes. */
enum class BitTechnique
{
    None,  //!< Program every cell (baseline full-line write).
    Dcw,   //!< Data Comparison Write: program only differing cells.
    Fnw,   //!< Flip-N-Write: DCW plus per-word inversion.
    Deuce, //!< DEUCE: word-level partial re-encryption.
    Secret,//!< SECRET: DEUCE plus zero-word avoidance.
};

/** Parses/prints technique names for harness output. */
std::string bitTechniqueName(BitTechnique technique);

/**
 * Computes the cells programmed by one line write and tracks the cell
 * image its scheme leaves behind.
 */
class BitLevelReducer
{
  public:
    virtual ~BitLevelReducer() = default;

    /**
     * Accounts the write of plaintext @p new_pt to slot @p slot whose
     * counter-mode counter is now @p counter; @p new_ct is the
     * controller's ciphertext of @p new_pt under that counter.
     * @return the number of cell bits programmed.
     */
    virtual std::size_t onWrite(LineAddr slot, const Line &new_pt,
                                const Line &new_ct,
                                std::uint64_t counter) = 0;

    virtual BitTechnique technique() const = 0;

    /**
     * Sizing hint: expected distinct slots the reducer will track,
     * passed down at controller construction so per-slot state never
     * rehashes mid-run.
     */
    virtual void reserveSlots(std::uint64_t expected) = 0;
};

/** Builds a reducer; null for BitTechnique::None. */
std::unique_ptr<BitLevelReducer> makeReducer(BitTechnique technique);

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_BITLEVEL_BITFLIP_HH
