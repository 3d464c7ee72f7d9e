/**
 * @file
 * DeWriteController implementation.
 */

#include "controller/dewrite_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dedup/metadata_auditor.hh"
#include "obs/trace_ring.hh"

namespace dewrite {

std::string
dedupModeName(DedupMode mode)
{
    switch (mode) {
      case DedupMode::Direct:
        return "direct";
      case DedupMode::Parallel:
        return "parallel";
      case DedupMode::Predicted:
        return "predicted";
    }
    panic("bad dedup mode");
}

DeWriteController::DeWriteController(const SystemConfig &config,
                                     NvmDevice &device, const AesKey &key,
                                     Options options)
    : config_(config), device_(device), cme_(key),
      metadata_(config, device, /*region_base=*/config.memory.numLines),
      reducer_(makeReducer(options.technique)),
      engine_(config, device, metadata_, cme_,
              DedupEngine::Options{ options.detect, reducer_.get(),
                                    /*maxChainProbe=*/4,
                                    options.hashFunction,
                                    /*counterBits=*/28,
                                    options.detectEpochWrites }),
      predictor_(options.historyBits), options_(options),
      auditPerEpoch_(auditEnabled()),
      auditEpochWrites_(auditPerEpoch_ ? auditEpochWrites() : 0)
{
    if (reducer_)
        reducer_->reserveSlots(config.memory.workingSetHint());
}

void
DeWriteController::auditNow(const char *when) const
{
    ++auditsRun_;
    MetadataAuditor(engine_).enforce(when);
}

DeWriteController::DeWriteController(const SystemConfig &config,
                                     NvmDevice &device, const AesKey &key)
    : DeWriteController(config, device, key, Options())
{
}

std::string
DeWriteController::name() const
{
    // Built with += only: GCC 12's -Wrestrict misfires on the
    // temporary produced by chained operator+ concatenation.
    std::string label = "dewrite-";
    label += dedupModeName(options_.mode);
    if (options_.technique != BitTechnique::None) {
        label += "+";
        label += bitTechniqueName(options_.technique);
    }
    if (options_.hashFunction != HashFunction::Crc32) {
        label += "+";
        label += hashSpec(options_.hashFunction).name;
    }
    if (options_.detect != DetectPolicy::ConfirmRead) {
        label += "+";
        label += detectPolicyName(options_.detect);
    }
    return label;
}

void
DeWriteController::startEncryption()
{
    encryptionsStarted_.increment();
    aesEnergy_ += config_.energy.aesLine();
}

// dewrite-lint: hot
CtrlWriteResult
DeWriteController::write(LineAddr addr, const Line &data, Time now)
{
    DetectOutcome det;
    Time encrypt_ready = 0;
    bool speculative_encryption = false;
    std::int8_t predicted_dup = -1; //!< Trace: -1 no prediction made.

    switch (options_.mode) {
      case DedupMode::Direct:
        det = engine_.detect(data, now, /*allow_nvm_fill=*/true);
        if (!det.duplicate) {
            // Serial: the AES engine starts only after detection rules
            // out a duplicate.
            startEncryption();
            encrypt_ready = det.done + config_.timing.aesLine;
        }
        break;

      case DedupMode::Parallel:
        // Encryption and detection launch together; the ciphertext is
        // wasted whenever the line turns out to be a duplicate.
        startEncryption();
        speculative_encryption = true;
        encrypt_ready = now + config_.timing.aesLine;
        det = engine_.detect(data, now, /*allow_nvm_fill=*/true);
        break;

      case DedupMode::Predicted:
        predicted_dup = predictor_.predictDuplicate() ? 1 : 0;
        if (predicted_dup) {
            // Predicted duplicate: direct path, and the PNA scheme
            // allows the in-NVM hash-table query.
            det = engine_.detect(data, now, /*allow_nvm_fill=*/true);
            if (!det.duplicate) {
                startEncryption();
                encrypt_ready = det.done + config_.timing.aesLine;
            }
        } else {
            // Predicted unique: parallel path; PNA skips the in-NVM
            // hash-table query on a metadata-cache miss.
            startEncryption();
            speculative_encryption = true;
            encrypt_ready = now + config_.timing.aesLine;
            det = engine_.detect(data, now,
                                 /*allow_nvm_fill=*/!options_.pnaEnabled);
        }
        break;
    }

    WriteCommit commit;
    if (det.duplicate) {
        commit = engine_.commitDuplicate(addr, det, det.done);
        if (speculative_encryption)
            wastedEncryptions_.increment();
    } else {
        commit = engine_.commitUnique(addr, data, det.hash, det.done,
                                      encrypt_ready);
    }

    // The predictor learns the resolved state of every write no matter
    // which path scheduled it (its accuracy stat backs Figure 4).
    predictor_.recordAndScore(det.duplicate);

    if (tracer_) [[unlikely]] {
        obs::WriteEvent ev;
        ev.issue = now;
        ev.done = commit.done;
        ev.addr = addr;
        ev.hash = static_cast<std::uint32_t>(det.hash);
        ev.path = speculative_encryption ? obs::WritePath::Parallel
                                         : obs::WritePath::Direct;
        ev.predictedDup = predicted_dup;
        ev.duplicate = det.duplicate;
        ev.authoritative = det.authoritative;
        ev.wroteLine = commit.wroteLine;
        ev.reencrypted = commit.reencrypted;
        ev.home = engine_.counterHome(commit.slot);
        ev.confirmReads = static_cast<std::uint8_t>(
            std::min(det.confirmReads, 255u));
        tracer_->record(ev);
    }

    if (auditPerEpoch_ && ++writesSinceAudit_ >= auditEpochWrites_)
        [[unlikely]] {
        writesSinceAudit_ = 0;
        auditNow("epoch");
    }

    const Time latency = commit.done - now;
    noteWrite(latency, det.duplicate, commit.bitsProgrammed);
    return { latency, det.duplicate };
}

CtrlReadResult
DeWriteController::read(LineAddr addr, Time now)
{
    const ReadOutcome outcome = engine_.read(addr, now);
    CtrlReadResult result;
    result.data = outcome.data;
    result.valid = outcome.valid;
    result.latency = outcome.done - now;
    noteRead(result.latency);
    return result;
}

CtrlReadResult
DeWriteController::readTiming(LineAddr addr, Time now)
{
    const ReadTiming outcome = engine_.readTiming(addr, now);
    CtrlReadResult result;
    result.valid = outcome.valid;
    result.latency = outcome.done - now;
    noteRead(result.latency);
    return result;
}

Energy
DeWriteController::controllerEnergy() const
{
    return aesEnergy_ + engine_.totalEnergy() + metadata_.totalEnergy();
}

void
DeWriteController::registerSchemeMetrics(obs::MetricRegistry &registry)
    const
{
    // The historical flat StatSet exported writes_eliminated only for
    // DeWrite; the canonical path is registered by the base class.
    registry.aliasLegacy("controller.writes_eliminated",
                         "writes_eliminated");

    obs::MetricRegistry::Scope c = registry.scope("controller");
    c.counter("wasted_encryptions", wastedEncryptions_,
              "speculative ciphertexts discarded on duplicates",
              "wasted_encryptions");
    c.counter("encryptions_started", encryptionsStarted_,
              "data-line encryptions launched (useful or wasted)");

    engine_.registerMetrics(registry.scope("controller.dedup"));
    predictor_.registerMetrics(registry.scope("controller.predictor"));
    metadata_.registerMetrics(registry.scope("cache.metadata"));
}

} // namespace dewrite
