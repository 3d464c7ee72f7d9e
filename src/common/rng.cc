/**
 * @file
 * Rng implementation (xoshiro256** + SplitMix64 seeding).
 */

#include "common/rng.hh"

#include <cmath>

namespace dewrite {

namespace {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

const Rng::ZipfTerms &
Rng::zipfTerms(std::uint64_t n, double theta)
{
    ZipfTerms &entry = zipf_[zipfVictim_];
    zipfVictim_ ^= 1;
    entry.n = n;
    entry.theta = theta;
    entry.thetaOne = std::abs(theta - 1.0) < 1e-9;
    if (entry.thetaOne) {
        entry.top = std::log(static_cast<double>(n) + 1.0);
        entry.invExp = 0.0;
    } else {
        const double one_minus = 1.0 - theta;
        entry.top = std::pow(static_cast<double>(n) + 1.0, one_minus);
        entry.invExp = 1.0 / one_minus;
    }
    return entry;
}

} // namespace dewrite
