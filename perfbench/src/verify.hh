/**
 * @file
 * Correctness checks run outside the timed region: read-back of every
 * written line and the dedup metadata audit.
 */

#ifndef PERFBENCH_VERIFY_HH
#define PERFBENCH_VERIFY_HH

#include <map>

#include "metrics.hh"
#include "sim/system.hh"
#include "trace/trace.hh"

namespace perfbench {

/** Last content the core issued to each address, address-ordered. */
using WrittenLines = std::map<dewrite::LineAddr, dewrite::Line>;

/**
 * Records the writes a core actually issued. CoreModel::runMulti pulls
 * one event per core ahead of issuing it and never issues the last one
 * it pulls, so an event counts as issued only once the core asks for
 * the next.
 */
class RecordingSource final : public dewrite::TraceSource
{
  public:
    RecordingSource(dewrite::TraceSource &inner, WrittenLines &written)
        : inner_(inner), written_(written)
    {
    }

    bool next(dewrite::MemEvent &event) override;

  private:
    dewrite::TraceSource &inner_;
    WrittenLines &written_;
    bool pending_ = false;
    dewrite::MemEvent last_;
};

/**
 * Reads every line of @p written back through System::read (with
 * decryption) and counts one check per line, failed unless the content
 * equals the last write.
 */
void verifyReadBack(dewrite::System &system, const WrittenLines &written,
                    CheckTally &checks);

/**
 * Runs MetadataAuditor over a DeWrite system's dedup engine as one
 * check; other schemes have no dedup metadata and add no check.
 */
void auditDedup(const dewrite::System &system, CheckTally &checks);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_HH
