/**
 * @file
 * DedupService: N independent dedup shards behind one ingest front-end.
 *
 * The service scales the single-System simulator horizontally: the
 * multi-tenant address space and every piece of dedup metadata are
 * partitioned by ShardRouter into DEWRITE_SHARDS shards, each a full
 * System (device + controller + metadata) driven by its own CoreModel
 * in push mode — the same core loop System::run pulls through. Shards
 * share nothing mutable, so the drain loop needs no locks: each ingest
 * round routes a slice of the canonical tenant-mux order into
 * per-shard buffers, one ThreadPool task per shard drains its buffer
 * with exclusive ownership, and the main thread fills the next round's
 * buffers while the pool works. Double buffering plus the core's
 * fixed store-queue ring mean the ingest buffers and the core loop
 * allocate nothing after the first round, and neither does the
 * shard's controller: tests/cpu/steady_state_alloc_test.cc pins zero
 * heap allocations for a warmed-up push-mode drain under the secure
 * baseline and under DeWrite with confirm-read and weak-strong
 * detection.
 *
 * Correctness is pinned, not assumed: an N-shard run must produce
 * per-shard ExperimentResult fingerprints identical to N independent
 * single-shard System runs over ShardPartitionTrace — at any thread
 * count, since parallelism only changes which host thread drains a
 * shard, never the order within one. See DESIGN.md §5g.
 */

#ifndef DEWRITE_SERVICE_DEDUP_SERVICE_HH
#define DEWRITE_SERVICE_DEDUP_SERVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core_model.hh"
#include "obs/metric_registry.hh"
#include "obs/telemetry.hh"
#include "service/shard_router.hh"
#include "service/tenant_mux.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/thread_pool.hh"

namespace dewrite {

/** Everything one service run needs; zeros resolve to shared defaults. */
struct ServiceOptions
{
    std::size_t shards = 0;       //!< 0 → DEWRITE_SHARDS (default 1).
    std::uint64_t tenants = 16;   //!< Concurrent tenant namespaces.
    std::uint64_t linesPerTenant = 4096; //!< Lines per namespace.
    unsigned burstMax = 32;       //!< Longest per-tenant ingest burst.
    std::uint64_t roundEvents = 4096; //!< Ingest events per drain round.
    std::uint64_t totalEvents = 0; //!< 0 → experimentEvents().
    unsigned threads = 0;         //!< 0 → runnerThreads().
    SystemConfig base;            //!< Resized per shard by the router.
    SchemeOptions scheme;         //!< Defaults to full DeWrite.
};

/** One shard's outcome, fingerprinted for the parity contract. */
struct ShardOutcome
{
    ExperimentResult cell;        //!< app = "shard<k>".
    std::uint32_t fingerprint = 0;
    std::uint64_t events = 0;     //!< Events the router sent this shard.
};

struct ServiceResult
{
    std::vector<ShardOutcome> shards;
    std::uint64_t totalEvents = 0;
    double hostSeconds = 0.0;     //!< Ingest + drain wall time.
    double eventsPerSecond = 0.0;
    std::size_t shardCount = 0;
    unsigned threads = 0;
};

class DedupService
{
  public:
    explicit DedupService(const ServiceOptions &options);

    /** Ingests and drains totalEvents, then finalizes every shard. */
    ServiceResult run();

    /** @{ Resolved configuration. */
    std::size_t shards() const { return shards_.size(); }
    std::uint64_t totalEvents() const { return totalEvents_; }
    unsigned threads() const { return pool_.threadCount(); }
    const ShardRouter &router() const { return router_; }
    const std::vector<TenantSpec> &tenantSpecs() const
    {
        return tenants_;
    }
    /** @} */

    const System &shardSystem(std::size_t shard) const
    {
        return *shards_[shard].system;
    }
    /** Shard @p shard's push-mode core (its System's own core idles). */
    const CoreModel &shardCore(std::size_t shard) const
    {
        return *shards_[shard].core;
    }

    /**
     * Merged metric view: every shard's registry snapshot under a
     * "shard<k>." prefix, plus the service-level ingest metrics —
     * path-sorted like MetricRegistry::snapshot().
     */
    std::vector<obs::MetricSample> registrySnapshot() const;

    /** @{ Telemetry plane (always recorded; sink only when enabled). */
    const obs::ShardTelemetry &shardTelemetry(std::size_t shard) const
    {
        return *shards_[shard].telemetry;
    }
    const obs::SkewMonitor &skewMonitor() const { return skew_; }
    const obs::TelemetrySink &telemetrySink() const { return sink_; }
    std::uint64_t telemetrySnapshots() const
    {
        return sink_.snapshots();
    }
    /** @} */

    /**
     * The per-shard tenant streams resolved from @p options — the
     * single source of the tenant/seed assignment, shared by the
     * service and the reference side so both replay the same canonical
     * order.
     */
    static std::vector<TenantSpec> resolveTenants(
        const ServiceOptions &options);

    /**
     * Simulates shard @p shard of an @p options service as one
     * independent single-shard System over the partitioned trace —
     * @p events must be the event count the service routed there (the
     * ShardOutcome::events of the run being checked). The returned
     * cell's fingerprint must equal the service's: this is the
     * reference side of the parity contract.
     */
    static ExperimentResult runShardReference(
        const ServiceOptions &options, std::size_t shard,
        std::uint64_t events);

  private:
    struct Shard
    {
        std::unique_ptr<System> system;
        std::unique_ptr<CoreModel> core; //!< Push mode, attached.
        /** Written only by this shard's drain task (zero-sharing);
         * read by the main thread strictly after pool.wait(). */
        std::unique_ptr<obs::ShardTelemetry> telemetry;
        /** Double ingest buffers: fill one while the pool drains the
         * other. */
        std::vector<MemEvent> buffers[2];
        std::uint64_t events = 0;
    };

    /** Routes up to roundEvents mux events into @p side's buffers.
     * @return events produced (0 once the budget is exhausted). */
    std::uint64_t fillRound(int side);

    /** Finalizes one shard: drain, account, audit, fingerprint. */
    ShardOutcome finalizeShard(std::size_t shard);

    /** Assembles and emits one telemetry frame (round or run-end). */
    void emitTelemetry(bool final_frame);

    ServiceOptions options_;          //!< With zeros resolved.
    std::uint64_t totalEvents_ = 0;
    std::uint64_t produced_ = 0;      //!< Mux events drawn so far.
    std::vector<TenantSpec> tenants_;
    ShardRouter router_;
    TenantMux mux_;
    std::vector<Shard> shards_;
    ThreadPool pool_;
    Counter roundsIngested_;          //!< Drain rounds executed.

    obs::SkewMonitor skew_;
    obs::TelemetrySink sink_;
    /** Scratch for per-round skew counts (no per-round allocation). */
    std::vector<std::uint64_t> roundCounts_;

    /** Service-level metrics: ingest rounds, per-shard routed events,
     * and each shard core's batch former (under "shard<k>.ingest"). */
    obs::MetricRegistry serviceRegistry_;
};

} // namespace dewrite

#endif // DEWRITE_SERVICE_DEDUP_SERVICE_HH
