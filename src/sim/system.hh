/**
 * @file
 * System assembly: device + controller + core, behind one facade.
 *
 * A System owns everything one simulated configuration needs and is
 * the primary entry point of the library: construct it with a scheme
 * (plain / secure baseline / DeWrite in any mode), feed it a trace —
 * or use the direct write()/read() API as a storage substrate, the way
 * the examples do.
 */

#ifndef DEWRITE_SIM_SYSTEM_HH
#define DEWRITE_SIM_SYSTEM_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timing.hh"
#include "controller/dewrite_controller.hh"
#include "controller/secure_baseline.hh"
#include "cpu/core_model.hh"
#include "crypto/aes128.hh"
#include "nvm/nvm_device.hh"
#include "obs/metric_registry.hh"
#include "obs/trace_ring.hh"

namespace dewrite {

class TraceSource;

/** Which controller a System instantiates. */
enum class SchemeKind
{
    Plain,          //!< No encryption, no dedup.
    SecureBaseline, //!< CME + counter cache (the paper's baseline).
    DeWrite,        //!< The full scheme.
};

/** Complete description of one simulated configuration. */
struct SchemeOptions
{
    SchemeKind kind = SchemeKind::DeWrite;
    SecureBaselineController::Options baseline{};
    DeWriteController::Options dewrite{};
};

class System
{
  public:
    System(const SystemConfig &config, const SchemeOptions &scheme);

    System(const SystemConfig &config, const SchemeOptions &scheme,
           const AesKey &key);

    /** Runs @p max_events trace events and returns full accounting. */
    RunResult run(TraceSource &trace, std::uint64_t max_events);

    /**
     * Multi-core run: one trace per core, requests interleaved by
     * simulated time (see CoreModel::runMulti).
     */
    RunResult run(const std::vector<TraceSource *> &traces,
                  std::uint64_t max_events);

    /**
     * The end-of-run closure of a core-side @p result: fills its
     * memory-side fields (energy, device line traffic, programmed
     * bits), then runs the DEWRITE_AUDIT=1 run-end metadata audit.
     * Both run() overloads end with it; so does any caller that runs
     * this System's controller from its own CoreModel (the service).
     */
    void completeRun(RunResult &result) const;

    /** @{ Direct substrate API (absolute simulated time advances). */
    CtrlWriteResult write(LineAddr addr, const Line &data);
    CtrlReadResult read(LineAddr addr);
    /** @} */

    MemController &controller() { return *controller_; }
    const MemController &controller() const { return *controller_; }
    NvmDevice &device() { return device_; }
    const NvmDevice &device() const { return device_; }
    const SystemConfig &config() const { return config_; }

    /** Device + controller energy so far, pJ. */
    Energy totalEnergy() const;

    /** Current simulated time of the direct API. */
    Time now() const { return now_; }

    /**
     * The hierarchical metric registry covering every component
     * ("device.*", "controller.*", "cache.*", "system.*"). Built once
     * at construction; reading it is always safe and allocation-free
     * on the simulated hot path.
     */
    const obs::MetricRegistry &registry() const { return registry_; }

    /**
     * Allocates the write-pipeline event tracer (if not already on)
     * and attaches it to the controller. Per-write events land in a
     * fixed ring (see obs/trace_ring.hh); export them with
     * obs::writeChromeTrace / obs::writeEpochSeries.
     */
    obs::WriteTracer &enableTracing(
        const obs::TraceConfig &config = obs::TraceConfig());

    /** The attached tracer, or nullptr when tracing is off. */
    const obs::WriteTracer *tracer() const { return tracer_.get(); }

    /**
     * Dumps every component's statistics in a gem5-style flat text
     * format ("name value # description"), for diffing runs and for
     * tooling that already parses stats.txt files. Canonical registry
     * paths come first; the legacy flat StatSet view follows under a
     * "controller." prefix so historical key names stay greppable.
     */
    void dumpStats(std::FILE *out) const;

  private:
    SystemConfig config_;
    NvmDevice device_;
    std::unique_ptr<MemController> controller_;
    CoreModel core_;
    obs::MetricRegistry registry_;
    std::unique_ptr<obs::WriteTracer> tracer_;
    Time now_ = 0;
};

/** Well-known deterministic key for simulations and tests. */
AesKey defaultAesKey();

} // namespace dewrite

#endif // DEWRITE_SIM_SYSTEM_HH
