/**
 * @file
 * The 256 B memory-line value type used throughout DeWrite.
 *
 * The paper deduplicates at a 256 B granularity (Section III-B1), matching
 * the cache-line size of the simulated hierarchy. A Line is a plain value
 * type: cheap to copy, hashable, comparable, with helpers for the bit-flip
 * accounting the bit-level write-reduction baselines need.
 */

#ifndef DEWRITE_COMMON_LINE_HH
#define DEWRITE_COMMON_LINE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/types.hh"

namespace dewrite {

class Rng;

/**
 * A 256-byte memory line.
 *
 * Value semantics; equality is full byte-wise comparison (the dedup engine
 * confirms CRC-32 matches with exactly this comparison, Section III-B1).
 */
class Line
{
  public:
    /** Constructs an all-zero line. */
    Line() { bytes_.fill(0); }

    /** Fresh zeroed huge pages already hold Line{} (huge_pages.hh). */
    static constexpr bool kZeroBytesAreValueInit = true;

    /** Constructs a line from a raw 256 B buffer. */
    static Line
    fromBytes(const std::uint8_t *data)
    {
        Line line;
        std::memcpy(line.bytes_.data(), data, kLineSize);
        return line;
    }

    /** Constructs a line whose every byte equals @p value. */
    static Line filled(std::uint8_t value);

    /** Constructs a line with uniformly random content from @p rng. */
    static Line random(Rng &rng);

    /**
     * Overwrites every word with random content from @p rng, drawing
     * exactly as random() does, so a caller can fill a line in place.
     */
    void fillRandom(Rng &rng);

    /**
     * Constructs a line holding a 64-bit pattern repeated across the line.
     * Useful for tests and for synthesizing "popular" duplicate contents.
     */
    static Line pattern(std::uint64_t word);

    /** Raw byte access. */
    const std::uint8_t *data() const { return bytes_.data(); }
    std::uint8_t *data() { return bytes_.data(); }

    std::uint8_t byte(std::size_t i) const { return bytes_[i]; }
    void setByte(std::size_t i, std::uint8_t v) { bytes_[i] = v; }

    /** Reads the @p i-th little-endian 64-bit word (i in [0, 32)). */
    std::uint64_t word64(std::size_t i) const;

    /** Writes the @p i-th little-endian 64-bit word. */
    void setWord64(std::size_t i, std::uint64_t value);

    /** Reads the @p i-th little-endian 16-bit word (DEUCE's word size). */
    std::uint16_t word16(std::size_t i) const;

    /** Writes the @p i-th little-endian 16-bit word. */
    void setWord16(std::size_t i, std::uint16_t value);

    /** True iff every byte is zero (Silent Shredder's target lines). */
    bool isZero() const;

    /** XORs this line with @p other, returning the result. */
    Line operator^(const Line &other) const;

    /** Inverts every bit (used by Flip-N-Write). */
    Line inverted() const;

    /**
     * Number of differing bits between this line and @p other: the bit
     * flips a rewrite of this line with @p other's content would cause.
     */
    std::size_t bitDistance(const Line &other) const;

    /** Number of set bits in the line. */
    std::size_t popcount() const;

    /**
     * Full-content equality, scanned eight bytes at a time — the
     * confirm-by-read compare the dedup engine runs on every
     * fingerprint match, so it is a simulator hot path.
     */
    // dewrite-lint: hot
    bool
    operator==(const Line &other) const
    {
        for (std::size_t i = 0; i < kLineSize; i += 8) {
            std::uint64_t a, b;
            std::memcpy(&a, bytes_.data() + i, 8);
            std::memcpy(&b, other.bytes_.data() + i, 8);
            if (a != b)
                return false;
        }
        return true;
    }

    /** Short hex digest of the first bytes, for debugging output. */
    std::string debugString() const;

    /**
     * 64-bit content digest for hash-map keys: CRC-32C of each half
     * line, concatenated. CRC-32C is hardware-accelerated on SSE4.2
     * hosts and the portable fallback computes the same polynomial,
     * so digests are identical everywhere. Not the paper's
     * fingerprint — that is crc32() — just host-side keying.
     */
    std::uint64_t contentDigest() const;

  private:
    std::array<std::uint8_t, kLineSize> bytes_;
};

/**
 * True iff @p ciphertext equals @p plaintext XOR @p pad, scanned eight
 * bytes at a time with no temporary Line. Exactly equivalent to
 * `plaintext == (ciphertext ^ pad)` — i.e. the confirm-by-read compare
 * after counter-mode decryption — but fuses decrypt and compare so the
 * write path never materializes the decrypted line.
 */
// dewrite-lint: hot
inline bool
equalsXor(const Line &ciphertext, const Line &plaintext, const Line &pad)
{
    for (std::size_t i = 0; i < kLineSize; i += 8) {
        std::uint64_t c, p, o;
        std::memcpy(&c, ciphertext.data() + i, 8);
        std::memcpy(&p, plaintext.data() + i, 8);
        std::memcpy(&o, pad.data() + i, 8);
        if (c != (p ^ o))
            return false;
    }
    return true;
}

/** Hash functor so Line can key unordered containers. */
struct LineHash
{
    std::size_t
    operator()(const Line &line) const
    {
        return static_cast<std::size_t>(line.contentDigest());
    }
};

} // namespace dewrite

#endif // DEWRITE_COMMON_LINE_HH
