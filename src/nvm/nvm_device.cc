/**
 * @file
 * NVM device implementation.
 */

#include "nvm/nvm_device.hh"

#include <algorithm>

#include "common/check.hh"

namespace dewrite {

NvmDevice::NvmDevice(const SystemConfig &config)
    : config_(config),
      decoder_(config.timing.numBanks, config.timing.linesPerRow,
               config.timing.rowInterleave ? InterleavePolicy::Row
                                           : InterleavePolicy::Line),
      banks_(config.timing.numBanks),
      openRow_(config.timing.numBanks, ~0ULL)
{
    // Data region plus the metadata region the controllers place above
    // it; the store's page directory never reallocates mid-run.
    store_.reserve(config.memory.numLines + config.memory.numLines / 8);
    wear_.reserve(config.memory.numLines + config.memory.numLines / 8);
}

std::uint64_t
NvmDevice::rowOf(const DecodedAddr &where) const
{
    return where.row / std::max(1u, config_.timing.linesPerRow);
}

NvmTiming
NvmDevice::readTimed(LineAddr addr, Time now)
{
    const DecodedAddr where = decoder_.decode(addr);
    const bool row_hit = openRow_[where.bank] == rowOf(where);
    const BankService svc = banks_[where.bank].service(
        now, row_hit ? config_.timing.nvmRowHit : config_.timing.nvmRead);
    openRow_[where.bank] = rowOf(where);

    numReads_.increment();
    if (row_hit) {
        rowHits_.increment();
        energy_ += config_.energy.nvmRowHitPerBit * kLineBits;
    } else {
        energy_ += config_.energy.nvmReadLine();
    }
    return { svc.start, svc.complete, svc.queueDelay };
}

NvmAccess
NvmDevice::read(LineAddr addr, Time now)
{
    const NvmTiming timing = readTimed(addr, now);
    NvmAccess access;
    if (const Line *line = store_.find(addr))
        access.data = *line;
    access.start = timing.start;
    access.complete = timing.complete;
    access.queueDelay = timing.queueDelay;
    return access;
}

NvmTiming
NvmDevice::write(LineAddr addr, const Line &data, Time now,
                 std::size_t bits_written)
{
    const DecodedAddr where = decoder_.decode(addr);
    const BankService svc =
        banks_[where.bank].service(now, config_.timing.nvmWrite);
    openRow_[where.bank] = rowOf(where);

    numWrites_.increment();
    energy_ += config_.energy.nvmWritePerBit * bits_written;
    wear_.recordWrite(addr, bits_written);
    store_.refForWrite(addr) = data;
    return { svc.start, svc.complete, svc.queueDelay };
}

void
NvmDevice::writeBackgroundZero(LineAddr addr, std::size_t bits_written)
{
    numWrites_.increment();
    numBackgroundWrites_.increment();
    energy_ += config_.energy.nvmWritePerBit * bits_written;
    wear_.recordWrite(addr, bits_written);
#if !defined(NDEBUG) || defined(DEWRITE_FORCE_DCHECKS)
    // Materializing the line exists only to feed the zero check; in
    // checked builds keep it, elsewhere skip the page allocation — an
    // untouched metadata line reads back as zero either way.
    const Line &slot = store_.refForWrite(addr);
    DEWRITE_DCHECK(slot.isZero(),
                   "writeBackgroundZero over non-zero line %llu",
                   static_cast<unsigned long long>(addr));
#endif
}

Line
NvmDevice::peek(LineAddr addr) const
{
    const Line *line = store_.find(addr);
    return line ? *line : Line();
}

const Line *
NvmDevice::peekPtr(LineAddr addr) const
{
    return store_.find(addr);
}

bool
NvmDevice::isWritten(LineAddr addr) const
{
    return store_.isWritten(addr);
}

Time
NvmDevice::totalQueueDelay() const
{
    Time total = 0;
    for (const auto &bank : banks_)
        total += bank.totalQueueDelay();
    return total;
}

unsigned
NvmDevice::numBanks() const
{
    return static_cast<unsigned>(banks_.size());
}

void
NvmDevice::registerMetrics(obs::MetricRegistry::Scope scope) const
{
    scope.counter("num_reads", numReads_, "NVM line reads serviced");
    scope.counter("num_writes", numWrites_,
                  "NVM line writes serviced (incl. background)");
    scope.counter("background_writes", numBackgroundWrites_,
                  "lazily scheduled metadata writes");
    scope.counter("row_buffer_hits", rowHits_,
                  "reads served from an open row");
    scope.gauge("total_energy_pj",
                [this] { return static_cast<double>(totalEnergy()); },
                "array energy");
    scope.gauge("queue_delay_ps",
                [this] {
                    return static_cast<double>(totalQueueDelay());
                },
                "cumulative bank waiting time");
    wear_.registerMetrics(scope.scope("wear"));
}

} // namespace dewrite
