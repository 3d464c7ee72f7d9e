/**
 * @file
 * Figure 4 — duplication-state prediction accuracy.
 *
 * Replays each application's ground-truth duplicate states through
 * history windows of one and three writes (plus a small sweep), as the
 * paper's predictor would observe them.
 *
 * Paper's shape: ~92.1% mean accuracy with one bit of history, rising
 * to ~93.6% with three; wider windows give negligible or negative
 * returns.
 */

#include <cstdio>

#include <array>
#include <unordered_map>

#include "common/table_printer.hh"
#include "dedup/predictor.hh"
#include "obs/bench_report.hh"
#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"
#include "trace/trace_gen.hh"

using namespace dewrite;

namespace {

/** Ground-truth duplicate state of each write, in stream order. */
std::vector<bool>
dupStates(const AppProfile &app, std::uint64_t events)
{
    SyntheticWorkload trace(app, appSeed(app));
    std::unordered_map<LineAddr, Line> image;
    std::unordered_map<Line, std::uint64_t, LineHash> live;
    std::vector<bool> states;

    MemEvent event;
    for (std::uint64_t i = 0; i < events && trace.next(event); ++i) {
        if (!event.isWrite)
            continue;
        states.push_back(live.find(event.data) != live.end());
        auto old = image.find(event.addr);
        if (old != image.end()) {
            auto it = live.find(old->second);
            if (it != live.end() && --it->second == 0)
                live.erase(it);
        }
        image[event.addr] = event.data;
        ++live[event.data];
    }
    return states;
}

double
accuracy(const std::vector<bool> &states, unsigned window)
{
    DupPredictor predictor(window);
    for (bool state : states)
        predictor.recordAndScore(state);
    return predictor.accuracy();
}

} // namespace

int
main()
{
    std::printf("Figure 4: prediction accuracy vs history window\n\n");

    const unsigned windows[] = { 1, 3, 5, 8 };
    const std::vector<AppProfile> &apps = appCatalog();
    std::vector<std::array<double, 4>> accs(apps.size());
    const RunnerProfile profile = parallelFor(
        apps.size(),
        [&](std::size_t a) {
            const std::vector<bool> states =
                dupStates(apps[a], experimentEvents());
            for (std::size_t w = 0; w < 4; ++w)
                accs[a][w] = accuracy(states, windows[w]);
        });

    obs::BenchReport report("fig04_prediction", experimentEvents(),
                            runnerThreads());
    obs::JsonWriter &json = report.json();
    json.key("apps");
    json.beginArray();

    // Appended rather than `"k" + std::to_string(...)`, which trips a
    // g++ 12 -Wrestrict false positive in Release builds.
    const auto windowKey = [&](std::size_t w) {
        std::string key = "k";
        key += std::to_string(windows[w]);
        return key;
    };

    TablePrinter table({ "app", "k=1", "k=3", "k=5", "k=8" });
    double sums[4] = {};
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::vector<std::string> row{ apps[a].name };
        json.beginObject();
        json.field("app", apps[a].name);
        for (std::size_t w = 0; w < 4; ++w) {
            sums[w] += accs[a][w];
            row.push_back(TablePrinter::percent(accs[a][w]));
            json.field(windowKey(w), accs[a][w]);
        }
        json.endObject();
        table.addRow(std::move(row));
    }
    const double n = static_cast<double>(appCatalog().size());
    table.addRow({ "AVERAGE", TablePrinter::percent(sums[0] / n),
                   TablePrinter::percent(sums[1] / n),
                   TablePrinter::percent(sums[2] / n),
                   TablePrinter::percent(sums[3] / n) });
    table.print();

    json.endArray();
    json.key("mean_accuracy");
    json.beginObject();
    for (std::size_t w = 0; w < 4; ++w)
        json.field(windowKey(w), sums[w] / n);
    json.endObject();
    json.key("profile");
    profile.writeJson(json);

    std::printf("\npaper: k=1 ~92.1%%, k=3 ~93.6%%, wider windows give "
                "negligible gains\n");
    if (!report.close()) {
        std::fprintf(stderr, "failed writing %s\n",
                     report.path().c_str());
        return 1;
    }
    return 0;
}
