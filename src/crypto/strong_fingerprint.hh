/**
 * @file
 * 128-bit strong line fingerprint for two-tier duplicate detection
 * (DESIGN.md §5j, after NV-Dedup's weak-hash / strong-fingerprint
 * split).
 *
 * The weak CRC-32 gate is cheap but collides; a 32-bit match must be
 * confirmed before lines are merged. Instead of the paper's
 * confirmation *read*, the two-tier path compares 128-bit fingerprints
 * cached in the hash store. The kernel below produces that
 * fingerprint: four AES lanes absorb the sixteen 16-byte blocks of a
 * 256 B line (one aesenc round per block, data entering through the
 * round-key operand), the lanes are folded together, and three
 * finalization rounds diffuse every input bit across the result.
 *
 * This is a fingerprint, not a MAC: the keys are fixed public
 * constants and the construction is not claimed to resist a
 * cryptographic adversary. It is collision-resistant far beyond the
 * CRC-32 forgeries the adversarial traces seed (every absorbed block
 * passes through at least three full AES rounds), which is the
 * property the detection tier needs.
 *
 * Like Aes128 and crc32, the fast entry point dispatches once at
 * startup on CPU capability; the portable software path is
 * bit-identical and doubles as the testing oracle.
 */

#ifndef DEWRITE_CRYPTO_STRONG_FINGERPRINT_HH
#define DEWRITE_CRYPTO_STRONG_FINGERPRINT_HH

#include <cstdint>

#include "common/line.hh"

namespace dewrite {

/** A 128-bit strong fingerprint of one 256 B line. */
struct StrongFp
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    /** Fresh zeroed huge pages already hold StrongFp{}. */
    static constexpr bool kZeroBytesAreValueInit = true;

    friend bool operator==(const StrongFp &, const StrongFp &) = default;
};

/**
 * Fingerprints @p line with the fast kernel (AES-NI when the CPU has
 * it, the software round function otherwise; both bit-identical).
 */
StrongFp strongFingerprint(const Line &line);

/** The portable reference implementation (testing oracle). */
StrongFp strongFingerprintReference(const Line &line);

/** True when the AES-NI kernel is in use. */
bool strongFingerprintUsesAesni();

} // namespace dewrite

#endif // DEWRITE_CRYPTO_STRONG_FINGERPRINT_HH
