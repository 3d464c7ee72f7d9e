/**
 * @file
 * Counter-mode engine implementation.
 */

#include "crypto/counter_mode.hh"

#include <cstring>

namespace dewrite {

CounterModeEngine::CounterModeEngine(const AesKey &key) : cipher_(key)
{
}

Line
CounterModeEngine::makePad(LineAddr addr, std::uint64_t counter) const
{
    // Seed block: | addr (8B) | counter (7B) | block index (1B) |.
    // The counter is at most 28 bits in the stored metadata, so seven
    // bytes never truncate it. All sixteen seeds are independent, so
    // they are encrypted as one batch (pipelined on AES-NI).
    std::array<AesBlock, kAesBlocksPerLine> seeds;
    AesBlock base{};
    std::memcpy(base.data(), &addr, 8);
    std::memcpy(base.data() + 8, &counter, 7);
    for (std::size_t block = 0; block < kAesBlocksPerLine; ++block) {
        seeds[block] = base;
        seeds[block][15] = static_cast<std::uint8_t>(block);
    }

    Line pad;
    std::array<AesBlock, kAesBlocksPerLine> otps;
    cipher_.encryptBlocks(seeds.data(), otps.data(), kAesBlocksPerLine);
    std::memcpy(pad.data(), otps.data(), kAesBlocksPerLine * kAesBlockSize);
    return pad;
}

Line
CounterModeEngine::encryptLine(const Line &plaintext, LineAddr addr,
                               std::uint64_t counter) const
{
    return plaintext ^ makePad(addr, counter);
}

Line
CounterModeEngine::decryptLine(const Line &ciphertext, LineAddr addr,
                               std::uint64_t counter) const
{
    // XOR is an involution: decryption is encryption with the same pad.
    return ciphertext ^ makePad(addr, counter);
}

} // namespace dewrite
