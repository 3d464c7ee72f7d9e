/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The synthetic workload generators must be exactly reproducible across
 * runs and platforms, so we implement xoshiro256** (seeded via SplitMix64)
 * rather than relying on std::mt19937 distribution implementations, whose
 * std::*_distribution outputs are not specified bit-for-bit.
 */

#ifndef DEWRITE_COMMON_RNG_HH
#define DEWRITE_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace dewrite {

/**
 * xoshiro256** generator with convenience samplers.
 *
 * All samplers are implemented on top of next64() with explicit,
 * platform-independent arithmetic. They are defined here so they inline
 * into the workload generators, which draw several times per event.
 */
class Rng
{
  public:
    /** Seeds the state from a single 64-bit seed using SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Debiased multiply-shift (Lemire); the bias without rejection
        // is negligible for workload generation, so we keep the fast
        // path only.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next64()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Geometric-ish draw: samples from an exponential distribution with
     * mean @p mean, rounded to an integer (minimum 0). Used for
     * instruction gaps between memory events.
     */
    std::uint64_t
    nextExponential(double mean)
    {
        if (mean <= 0.0)
            return 0;
        double u = nextDouble();
        if (u <= 0.0)
            u = 0x1.0p-53;
        const double sample = -mean * std::log(u);
        return static_cast<std::uint64_t>(sample);
    }

    /**
     * Zipf-like rank sampler over [0, n): rank r is drawn with probability
     * proportional to 1 / (r + 1)^theta. Used to model the skewed
     * popularity of duplicate line contents (a few contents are referenced
     * by very many lines, Figure 7).
     */
    std::uint64_t
    nextZipf(std::uint64_t n, double theta)
    {
        if (n <= 1)
            return 0;
        // Continuous bounded-Pareto inversion: a fast O(1)
        // approximation of the discrete Zipf CDF, more than adequate
        // for shaping content popularity in synthetic workloads.
        const double u = nextDouble();
        const ZipfTerms *terms = &zipf_[0];
        if (terms->n != n || terms->theta != theta) {
            terms = &zipf_[1];
            if (terms->n != n || terms->theta != theta)
                terms = &zipfTerms(n, theta);
        }
        double x;
        if (terms->thetaOne) {
            x = std::exp(u * terms->top);
        } else {
            x = std::pow(u * (terms->top - 1.0) + 1.0, terms->invExp);
        }
        auto rank = static_cast<std::uint64_t>(x) - 1;
        return rank >= n ? n - 1 : rank;
    }

  private:
    /**
     * Memo for nextZipf's (n, theta)-dependent libm terms. Workload
     * generators draw many samples before n changes, and alternate
     * between at most two theta values, so a two-entry cache removes
     * one pow()/log() from nearly every draw. Pure memoization: the
     * cached values are the same doubles the direct computation yields,
     * so the sampled sequence is bit-identical. n = 0 marks an empty
     * entry (nextZipf never looks up n < 2).
     */
    struct ZipfTerms
    {
        std::uint64_t n = 0;
        double theta = 0.0;
        double top = 0.0;    //!< pow(n+1, 1-theta), or log(n+1) at theta=1.
        double invExp = 0.0; //!< 1 / (1 - theta); unused at theta=1.
        bool thetaOne = false;
    };

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * Memo miss: refills the less recently filled entry with the terms
     * of (@p n, @p theta) and returns it.
     */
    const ZipfTerms &zipfTerms(std::uint64_t n, double theta);

    std::uint64_t state_[4];
    ZipfTerms zipf_[2];
    unsigned zipfVictim_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_COMMON_RNG_HH
