/**
 * @file
 * Line implementation.
 */

#include "common/line.hh"

#include <bit>
#include <cstdio>

#include "common/crc32.hh"
#include "common/rng.hh"

namespace dewrite {

Line
Line::filled(std::uint8_t value)
{
    Line line;
    line.bytes_.fill(value);
    return line;
}

Line
Line::random(Rng &rng)
{
    Line line;
    line.fillRandom(rng);
    return line;
}

void
Line::fillRandom(Rng &rng)
{
    for (std::size_t i = 0; i < kLineSize / 8; ++i)
        setWord64(i, rng.next64());
}

Line
Line::pattern(std::uint64_t word)
{
    Line line;
    for (std::size_t i = 0; i < kLineSize / 8; ++i)
        line.setWord64(i, word);
    return line;
}

std::uint64_t
Line::word64(std::size_t i) const
{
    std::uint64_t value;
    std::memcpy(&value, bytes_.data() + i * 8, 8);
    return value;
}

void
Line::setWord64(std::size_t i, std::uint64_t value)
{
    std::memcpy(bytes_.data() + i * 8, &value, 8);
}

std::uint16_t
Line::word16(std::size_t i) const
{
    std::uint16_t value;
    std::memcpy(&value, bytes_.data() + i * 2, 2);
    return value;
}

void
Line::setWord16(std::size_t i, std::uint16_t value)
{
    std::memcpy(bytes_.data() + i * 2, &value, 2);
}

bool
Line::isZero() const
{
    for (std::size_t i = 0; i < kLineSize / 8; ++i) {
        if (word64(i) != 0)
            return false;
    }
    return true;
}

Line
Line::operator^(const Line &other) const
{
    Line result;
    for (std::size_t i = 0; i < kLineSize / 8; ++i)
        result.setWord64(i, word64(i) ^ other.word64(i));
    return result;
}

Line
Line::inverted() const
{
    Line result;
    for (std::size_t i = 0; i < kLineSize / 8; ++i)
        result.setWord64(i, ~word64(i));
    return result;
}

std::size_t
Line::bitDistance(const Line &other) const
{
    std::size_t bits = 0;
    for (std::size_t i = 0; i < kLineSize / 8; ++i)
        bits += std::popcount(word64(i) ^ other.word64(i));
    return bits;
}

std::size_t
Line::popcount() const
{
    std::size_t bits = 0;
    for (std::size_t i = 0; i < kLineSize / 8; ++i)
        bits += std::popcount(word64(i));
    return bits;
}

std::uint64_t
Line::contentDigest() const
{
    const std::uint64_t hi = crc32c(bytes_.data(), kLineSize / 2);
    const std::uint64_t lo =
        crc32c(bytes_.data() + kLineSize / 2, kLineSize / 2);
    return (hi << 32) | lo;
}

std::string
Line::debugString() const
{
    char buf[2 * 8 + 4];
    std::snprintf(buf, sizeof(buf), "%02x%02x%02x%02x%02x%02x%02x%02x...",
                  bytes_[0], bytes_[1], bytes_[2], bytes_[3],
                  bytes_[4], bytes_[5], bytes_[6], bytes_[7]);
    return buf;
}

} // namespace dewrite
