/**
 * @file
 * Parallel experiment runner implementation.
 */

#include "sim/parallel_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/json_writer.hh"
#include "sim/thread_pool.hh"

namespace dewrite {

namespace {

using ProfileClock = std::chrono::steady_clock;

double
secondsBetween(ProfileClock::time_point from, ProfileClock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

double
RunnerProfile::busySeconds() const
{
    double total = 0.0;
    for (const CellProfile &cell : cells)
        total += cell.wallSeconds;
    return total;
}

double
RunnerProfile::utilization() const
{
    if (threads == 0 || wallSeconds <= 0.0)
        return 0.0;
    return std::min(1.0, busySeconds() / (threads * wallSeconds));
}

double
RunnerProfile::maxCellSeconds() const
{
    double worst = 0.0;
    for (const CellProfile &cell : cells)
        worst = std::max(worst, cell.wallSeconds);
    return worst;
}

void
RunnerProfile::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.field("threads", threads);
    w.field("wall_seconds", wallSeconds);
    w.field("busy_seconds", busySeconds());
    w.field("utilization", utilization());
    w.field("max_cell_seconds", maxCellSeconds());
    w.key("worker_busy_seconds");
    w.beginArray();
    for (double busy : workerBusySeconds)
        w.value(busy);
    w.endArray();
    w.key("cells");
    w.beginArray();
    for (const CellProfile &cell : cells) {
        w.beginObject();
        w.field("queue_seconds", cell.queueSeconds);
        w.field("wall_seconds", cell.wallSeconds);
        w.field("worker", cell.worker);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

unsigned
runnerThreads()
{
    if (const std::uint64_t parsed = envUint("DEWRITE_THREADS", 0, 1,
                                             4096)) {
        return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

RunnerProfile
parallelFor(std::size_t count,
            const std::function<void(std::size_t)> &body,
            unsigned threads)
{
    const unsigned workers = threads ? threads : runnerThreads();
    // One worker (or one task) degenerates to the plain serial loop —
    // same code path the determinism tests compare against.
    const bool serial = workers == 1 || count <= 1;

    RunnerProfile profile;
    profile.threads = serial ? 1 : workers;
    profile.cells.assign(count, CellProfile());
    profile.workerBusySeconds.assign(profile.threads, 0.0);
    if (count == 0)
        return profile;

    const ProfileClock::time_point begin = ProfileClock::now();

    if (serial) {
        for (std::size_t i = 0; i < count; ++i) {
            const ProfileClock::time_point start = ProfileClock::now();
            body(i);
            CellProfile &cell = profile.cells[i];
            cell.wallSeconds =
                secondsBetween(start, ProfileClock::now());
            cell.worker = 0;
            profile.workerBusySeconds[0] += cell.wallSeconds;
        }
        profile.wallSeconds =
            secondsBetween(begin, ProfileClock::now());
        return profile;
    }

    std::vector<ProfileClock::time_point> submitted(count);
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < count; ++i) {
        submitted[i] = ProfileClock::now();
        pool.submit([&body, &profile, &submitted, i] {
            const ProfileClock::time_point start = ProfileClock::now();
            body(i);
            const ProfileClock::time_point end = ProfileClock::now();

            // Each worker index is only ever written by its own
            // thread, so the per-worker accumulation is race-free.
            CellProfile &cell = profile.cells[i];
            cell.queueSeconds = secondsBetween(submitted[i], start);
            cell.wallSeconds = secondsBetween(start, end);
            cell.worker = ThreadPool::currentWorker();
            if (cell.worker >= 0 &&
                static_cast<std::size_t>(cell.worker) <
                    profile.workerBusySeconds.size()) {
                profile.workerBusySeconds[cell.worker] +=
                    cell.wallSeconds;
            }
        });
    }
    pool.wait();
    profile.wallSeconds = secondsBetween(begin, ProfileClock::now());
    return profile;
}

std::vector<ExperimentResult>
runMatrix(const std::vector<AppProfile> &apps,
          const std::vector<SchemeOptions> &schemes,
          const SystemConfig &config, std::uint64_t max_events,
          unsigned threads, RunnerProfile *profile)
{
    const std::uint64_t events =
        max_events ? max_events : experimentEvents();
    std::vector<ExperimentResult> results(apps.size() * schemes.size());
    RunnerProfile fanout = parallelFor(
        results.size(),
        [&](std::size_t cell) {
            const std::size_t a = cell / schemes.size();
            const std::size_t s = cell % schemes.size();
            results[cell] = runApp(apps[a], config, schemes[s], events,
                                   appSeed(apps[a]));
        },
        threads);
    if (profile)
        *profile = std::move(fanout);
    return results;
}

} // namespace dewrite
