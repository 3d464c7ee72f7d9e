/**
 * @file
 * The DeWrite memory controller (Figures 3, 5, 10, 11).
 *
 * Wraps the dedup engine with the write-scheduling policy the paper
 * evaluates in three flavors:
 *
 *  - Direct (Fig. 3a): detect first; encrypt only confirmed-unique
 *    lines. Minimum AES energy, maximum latency for unique writes.
 *  - Parallel (Fig. 3b): always encrypt concurrently with detection.
 *    Minimum latency, wasted AES energy on every duplicate.
 *  - Predicted (DeWrite proper): a 3-bit history window chooses per
 *    write — predicted duplicates take the direct path, predicted
 *    uniques the parallel path — and gates in-NVM hash-table queries
 *    (the PNA scheme).
 */

#ifndef DEWRITE_CONTROLLER_DEWRITE_CONTROLLER_HH
#define DEWRITE_CONTROLLER_DEWRITE_CONTROLLER_HH

#include <memory>

#include "cache/metadata_cache.hh"
#include "common/timing.hh"
#include "controller/bitlevel/bitflip.hh"
#include "controller/mem_controller.hh"
#include "crypto/counter_mode.hh"
#include "dedup/dedup_engine.hh"
#include "dedup/predictor.hh"
#include "nvm/nvm_device.hh"

namespace dewrite {

/** Write-scheduling policy between detection and encryption. */
enum class DedupMode
{
    Direct,
    Parallel,
    Predicted,
};

/** Printable mode name. */
std::string dedupModeName(DedupMode mode);

class DeWriteController : public MemController
{
  public:
    struct Options
    {
        DedupMode mode = DedupMode::Predicted;
        bool pnaEnabled = true;   //!< Prediction-gated NVM hash queries.
        unsigned historyBits = 3; //!< Predictor window (Figure 4).

        /**
         * How weak-fingerprint matches resolve (DESIGN.md §5j). The
         * default follows DEWRITE_DETECT so every scheme — examples,
         * experiments, service shards — inherits the knob; the paper's
         * confirm-read remains the fallback when it is unset.
         */
        DetectPolicy detect = detectPolicyFromEnv();

        /** Adaptive epoch length in commits (DEWRITE_DETECT_EPOCH). */
        std::uint64_t detectEpochWrites = detectEpochFromEnv();

        BitTechnique technique = BitTechnique::None; //!< Fig. 13 combos.

        /**
         * Fingerprint function: CRC-32 (DeWrite) or MD5/SHA-1 (the
         * traditional comparator of Table I, trusted without a
         * confirmation read). Set MemoryConfig::hashDigestBits to
         * match when using a cryptographic function.
         */
        HashFunction hashFunction = HashFunction::Crc32;
    };

    DeWriteController(const SystemConfig &config, NvmDevice &device,
                      const AesKey &key, Options options);

    DeWriteController(const SystemConfig &config, NvmDevice &device,
                      const AesKey &key);

    CtrlWriteResult write(LineAddr addr, const Line &data,
                          Time now) override;
    CtrlReadResult read(LineAddr addr, Time now) override;
    CtrlReadResult readTiming(LineAddr addr, Time now) override;

    std::string name() const override;
    Energy controllerEnergy() const override;

    /** @{ Component access for tests and experiment harnesses. */
    const DedupEngine &engine() const { return engine_; }
    const DupPredictor &predictor() const { return predictor_; }
    const MetadataCache &metadataCache() const { return metadata_; }
    /** @} */

    /** Encryptions whose output was discarded (duplicate confirmed). */
    std::uint64_t wastedEncryptions() const
    {
        return wastedEncryptions_.value();
    }

    /** Total data-line encryptions started (useful or not). */
    std::uint64_t encryptionsStarted() const
    {
        return encryptionsStarted_.value();
    }

    /**
     * Runs the metadata auditor immediately, panicking with full
     * context on the first violated invariant. Called automatically
     * every audit epoch and at run end when DEWRITE_AUDIT=1; harnesses
     * and tests may call it at any quiescent point.
     */
    void auditNow(const char *when) const;

    /** Metadata audits executed so far (epoch + explicit). */
    std::uint64_t auditsRun() const { return auditsRun_; }

  protected:
    void registerSchemeMetrics(obs::MetricRegistry &registry)
        const override;

  private:
    /** Charges one line encryption's energy and counts it. */
    void startEncryption();

    const SystemConfig &config_;
    NvmDevice &device_;
    CounterModeEngine cme_;
    MetadataCache metadata_;
    std::unique_ptr<BitLevelReducer> reducer_;
    DedupEngine engine_;
    DupPredictor predictor_;
    Options options_;

    Counter wastedEncryptions_;
    Counter encryptionsStarted_;
    Energy aesEnergy_ = 0;

    /** @{ DEWRITE_AUDIT=1 epoch auditing (DESIGN.md §5e). */
    bool auditPerEpoch_ = false;
    std::uint64_t auditEpochWrites_ = 0;
    std::uint64_t writesSinceAudit_ = 0;
    mutable std::uint64_t auditsRun_ = 0;
    /** @} */
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_DEWRITE_CONTROLLER_HH
