/**
 * @file
 * Read-back and audit checks.
 */

#include "verify.hh"

#include <cinttypes>
#include <cstdio>

#include "controller/dewrite_controller.hh"
#include "dedup/metadata_auditor.hh"

namespace perfbench {

using namespace dewrite;

bool
RecordingSource::next(MemEvent &event)
{
    if (pending_ && last_.isWrite)
        written_[last_.addr] = last_.data;
    pending_ = inner_.next(event);
    last_ = event;
    return pending_;
}

void
verifyReadBack(System &system, const WrittenLines &written,
               CheckTally &checks)
{
    for (const auto &[addr, expected] : written) {
        const CtrlReadResult got = system.read(addr);
        if (!checks.note(got.valid && got.data == expected)) {
            std::fprintf(stderr,
                         "perfbench: read-back mismatch at line %" PRIu64
                         " (valid=%d)\n",
                         static_cast<std::uint64_t>(addr),
                         got.valid ? 1 : 0);
        }
    }
}

void
auditDedup(const System &system, CheckTally &checks)
{
    const auto *dewrite =
        dynamic_cast<const DeWriteController *>(&system.controller());
    if (!dewrite)
        return;
    const auto violation = MetadataAuditor(dewrite->engine()).check();
    if (!checks.note(!violation)) {
        std::fprintf(stderr, "perfbench: metadata audit failed: %s\n",
                     violation->detail.c_str());
    }
}

} // namespace perfbench
