/**
 * @file
 * SecureBaselineController implementation.
 */

#include "controller/secure_baseline.hh"

#include <algorithm>

#include "obs/trace_ring.hh"

namespace dewrite {

SecureBaselineController::SecureBaselineController(
    const SystemConfig &config, NvmDevice &device, const AesKey &key,
    Options options)
    : config_(config), device_(device), cme_(key),
      counterCache_(config, device, /*region_base=*/config.memory.numLines),
      options_(options),
      reducer_(makeReducer(options.technique))
{
    counters_.reserve(config.memory.numLines);
    if (reducer_)
        reducer_->reserveSlots(config.memory.workingSetHint());
}

SecureBaselineController::SecureBaselineController(
    const SystemConfig &config, NvmDevice &device, const AesKey &key)
    : SecureBaselineController(config, device, key, Options())
{
}

std::string
SecureBaselineController::name() const
{
    std::string label = "secure-baseline";
    if (options_.technique != BitTechnique::None) {
        // Appended in two steps: GCC 12's -Wrestrict false-positives
        // on operator+(const char *, std::string &&) here.
        label += "+";
        label += bitTechniqueName(options_.technique);
    }
    if (options_.shredZeroLines)
        label += "+shredder";
    return label;
}

// dewrite-lint: hot
CtrlWriteResult
SecureBaselineController::write(LineAddr addr, const Line &data, Time now)
{
    // The counter must be fetched (and bumped) before the OTP can be
    // generated, so the counter access heads the write's critical path.
    const MetadataAccessResult counter_access =
        counterCache_.access(addr, true, now);
    const Time counter_ready = now + counter_access.latency;
    // A non-zero counter is also what marks the line written.
    const std::uint64_t counter = ++counters_.ref(addr);

    if (options_.shredZeroLines && data.isZero()) {
        // Shredding: a zero-line write completes in metadata only.
        zeros_.markZeroed(addr);
        const Time latency = counter_ready - now;
        if (tracer_) [[unlikely]] {
            obs::WriteEvent ev;
            ev.issue = now;
            ev.done = counter_ready;
            ev.addr = addr;
            ev.duplicate = true; //!< Eliminated (shredded) write.
            tracer_->record(ev);
        }
        noteWrite(latency, true, 0);
        return { latency, true };
    }
    zeros_.clearZeroed(addr);

    aesEnergy_ += config_.energy.aesLine();
    const Time ciphertext_ready = counter_ready + config_.timing.aesLine;

    const Line ciphertext = data ^ padCache_.get(cme_, addr, counter);
    const std::size_t bits = reducer_
        ? reducer_->onWrite(addr, data, ciphertext, counter)
        : kLineBits;
    const NvmTiming access =
        device_.write(addr, ciphertext, ciphertext_ready, bits);

    const Time latency = access.complete - now;
    if (tracer_) [[unlikely]] {
        obs::WriteEvent ev;
        ev.issue = now;
        ev.done = access.complete;
        ev.addr = addr;
        ev.wroteLine = true;
        tracer_->record(ev);
    }
    noteWrite(latency, false, bits);
    return { latency, false };
}

CtrlReadResult
SecureBaselineController::read(LineAddr addr, Time now)
{
    return readImpl(addr, now, /*want_data=*/true);
}

CtrlReadResult
SecureBaselineController::readTiming(LineAddr addr, Time now)
{
    return readImpl(addr, now, /*want_data=*/false);
}

CtrlReadResult
SecureBaselineController::readImpl(LineAddr addr, Time now, bool want_data)
{
    // Every write bumps the counter first, so a non-zero counter means
    // the line was written; it is also the counter of the read's pad.
    const std::uint64_t *counter = counters_.find(addr);
    CtrlReadResult result;
    result.valid = counter && *counter;

    const MetadataAccessResult counter_access =
        counterCache_.access(addr, false, now);

    if (options_.shredZeroLines && zeros_.isZeroed(addr)) {
        // A shredded line is answered from the counter state alone.
        result.latency = counter_access.latency;
        noteRead(result.latency);
        return result;
    }

    // The array read launches immediately; OTP generation waits for the
    // counter and overlaps the read (the CME latency-hiding of Fig. 1).
    const NvmTiming access = device_.readTimed(addr, now);
    const Time otp_ready =
        now + counter_access.latency + config_.timing.aesLine;
    aesEnergy_ += config_.energy.aesLine();

    if (want_data && result.valid) {
        // An absent device line reads as zero, so its decryption is
        // the pad itself.
        const Line *ciphertext = device_.peekPtr(addr);
        const Line &pad = padCache_.get(cme_, addr, *counter);
        result.data = ciphertext ? (*ciphertext ^ pad) : pad;
    }

    result.latency = std::max(access.complete, otp_ready) +
                     config_.timing.otpXor - now;
    noteRead(result.latency);
    return result;
}

Energy
SecureBaselineController::controllerEnergy() const
{
    return aesEnergy_ + counterCache_.totalEnergy();
}

void
SecureBaselineController::registerSchemeMetrics(
    obs::MetricRegistry &registry) const
{
    counterCache_.registerMetrics(registry.scope("cache.counter"));

    obs::MetricRegistry::Scope pad =
        registry.scope("controller.pad_cache");
    pad.counter("hits", padCache_.hitCounter(),
                "pad lookups served from the host-side memo");
    pad.counter("misses", padCache_.missCounter(),
                "pad lookups that regenerated through AES");

    obs::MetricRegistry::Scope shredder =
        registry.scope("controller.shredder");
    shredder.gauge("shredded_writes",
                   [this] {
                       return static_cast<double>(
                           zeros_.eliminatedWrites());
                   },
                   "zero-line writes eliminated in metadata",
                   "shredded_writes");
}

} // namespace dewrite
