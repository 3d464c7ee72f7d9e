/**
 * @file
 * System implementation.
 */

#include "sim/system.hh"

#include "common/logging.hh"
#include "controller/plain_controller.hh"
#include "dedup/metadata_auditor.hh"
#include "trace/trace.hh"

namespace dewrite {

namespace {

std::unique_ptr<MemController>
makeController(const SystemConfig &config, NvmDevice &device,
               const SchemeOptions &scheme, const AesKey &key)
{
    switch (scheme.kind) {
      case SchemeKind::Plain:
        return std::make_unique<PlainController>(device);
      case SchemeKind::SecureBaseline:
        return std::make_unique<SecureBaselineController>(config, device,
                                                          key,
                                                          scheme.baseline);
      case SchemeKind::DeWrite:
        return std::make_unique<DeWriteController>(config, device, key,
                                                   scheme.dewrite);
    }
    panic("bad scheme kind");
}

} // namespace

AesKey
defaultAesKey()
{
    return AesKey{ 0xde, 0x77, 0x12, 0x17, 0xe5, 0xec, 0x12, 0x01,
                   0x8a, 0x5e, 0xcb, 0x1e, 0x00, 0x1c, 0xaf, 0xe5 };
}

System::System(const SystemConfig &config, const SchemeOptions &scheme,
               const AesKey &key)
    : config_(config), device_(config_), core_(config_.timing)
{
    validateConfig(config_);
    // Latch (and validate) DEWRITE_LOG up front so a malformed value
    // fails fast like DEWRITE_EVENTS, not on the first gated message.
    logLevel();
    controller_ = makeController(config_, device_, scheme, key);

    registry_.addGauge(
        "system.sim_picoseconds",
        [this] { return static_cast<double>(now_); },
        "simulated time of the direct API");
    device_.registerMetrics(registry_.scope("device"));
    core_.registerMetrics(registry_.scope("core"));
    controller_->registerMetrics(registry_);
}

obs::WriteTracer &
System::enableTracing(const obs::TraceConfig &config)
{
    if (!tracer_)
        tracer_ = std::make_unique<obs::WriteTracer>(config);
    controller_->attachTracer(tracer_.get());
    return *tracer_;
}

System::System(const SystemConfig &config, const SchemeOptions &scheme)
    : System(config, scheme, defaultAesKey())
{
}

// dewrite-analyze: root(determinism)
RunResult
System::run(TraceSource &trace, std::uint64_t max_events)
{
    RunResult result = core_.run(trace, *controller_, max_events);
    completeRun(result);
    return result;
}

// dewrite-analyze: root(determinism)
RunResult
System::run(const std::vector<TraceSource *> &traces,
            std::uint64_t max_events)
{
    RunResult result = core_.runMulti(traces, *controller_, max_events);
    completeRun(result);
    return result;
}

void
System::completeRun(RunResult &result) const
{
    result.totalEnergy = totalEnergy();
    result.nvmLineWrites = device_.numWrites();
    result.nvmLineReads = device_.numReads();
    result.bitsProgrammed = controller_->dataBitsProgrammed();

    // The epoch hook only fires on whole audit epochs; this closes the
    // partial tail so every run ends with a full consistency walk.
    if (!auditEnabled())
        return;
    if (const auto *dewrite =
            dynamic_cast<const DeWriteController *>(controller_.get())) {
        dewrite->auditNow("run-end");
    }
}

CtrlWriteResult
System::write(LineAddr addr, const Line &data)
{
    const CtrlWriteResult result = controller_->write(addr, data, now_);
    now_ += result.latency;
    return result;
}

CtrlReadResult
System::read(LineAddr addr)
{
    const CtrlReadResult result = controller_->read(addr, now_);
    now_ += result.latency;
    return result;
}

Energy
System::totalEnergy() const
{
    return device_.totalEnergy() + controller_->controllerEnergy();
}

void
System::dumpStats(std::FILE *out) const
{
    auto emit = [&](const char *name, double value, const char *desc) {
        std::fprintf(out, "%-40s %20.6g  # %s\n", name, value, desc);
    };

    std::fprintf(out, "---------- Begin Simulation Statistics "
                      "----------\n");
    std::fprintf(out, "# scheme: %s\n", controller_->name().c_str());

    // Canonical hierarchical view, registration order (components
    // register depth-first, so related metrics stay adjacent).
    for (const obs::MetricRegistry::Entry &entry : registry_.entries())
        emit(entry.path.c_str(), entry.read(), entry.desc.c_str());

    // Legacy flat view: the historical scheme-specific StatSet keys,
    // kept greppable for tooling that predates the registry.
    StatSet details;
    controller_->fillStats(details);
    for (const auto &[name, value] : details.all()) {
        const std::string qualified = "controller." + name;
        emit(qualified.c_str(), value, "scheme-specific (legacy name)");
    }
    std::fprintf(out, "---------- End Simulation Statistics "
                      "----------\n");
}

} // namespace dewrite
