/**
 * @file
 * Synthetic event-pump microbenchmark for the simulator core.
 *
 * Measures raw engine throughput with no simulated components in the way,
 * giving BENCH_simcore.json a lower bound to compare the fig09/fig17
 * attribution numbers against:
 *
 *  - micro.noop  : N independent no-op events, pre-scheduled in same-tick
 *                  groups in increasing tick order. Each lands at the
 *                  engine's FIFO lane tail, so this is the append + drain
 *                  cost fixed-delay timers pay (per-op deadlines no
 *                  longer do: a sim::DeadlineQueue keeps one event
 *                  pending per owner).
 *  - micro.heap  : the same events scheduled in decreasing tick order, so
 *                  all but the first tick's group go through the heap —
 *                  the push/pop + drain cost of a loaded heap.
 *  - micro.chain : N chained events, each scheduling its successor — the
 *                  near-empty-queue latency path every continuation
 *                  callback in the real simulation pays.
 *
 * All timing comes from telemetry::SimProfiler; this file never reads the
 * host clock itself (the draid-lint wall-clock rule bans that outside
 * src/telemetry/, here as everywhere in bench/).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "sim/simulator.h"
#include "telemetry/sim_profiler.h"

namespace {

struct Options
{
    std::uint64_t events = 1u << 20; ///< events per pump
    std::uint64_t seed = 1;          ///< no RNG; recorded for the row key
    std::string profilePath = "BENCH_simcore.json";
    bool ascii = false;
};

/** Group size for the same-tick batches of the no-op pump. */
constexpr std::uint64_t kBatchWidth = 64;

/**
 * Pre-schedule @p events no-op events, kBatchWidth to a tick, so the
 * queue holds all of them at its deepest and every tick exercises the
 * same-tick drain. @p descending picks decreasing tick order (the heap
 * path) over increasing order (the lane path).
 */
void
runNoopPump(draid::telemetry::SimProfiler &profiler, std::uint64_t events,
            bool descending, const char *label)
{
    draid::sim::Simulator sim;
    profiler.attach(sim);
    for (std::uint64_t i = 0; i < events; ++i) {
        const std::uint64_t slot = descending ? events - 1 - i : i;
        const draid::sim::Tick when =
            static_cast<draid::sim::Tick>(slot / kBatchWidth);
        sim.scheduleAt(draid::sim::Ticks{when}, label, []() {});
    }
    sim.run();
}

void
runChainPump(draid::telemetry::SimProfiler &profiler, std::uint64_t events)
{
    draid::sim::Simulator sim;
    profiler.attach(sim);
    std::uint64_t remaining = events;
    // Self-rescheduling chain: exactly one event queued at a time.
    std::function<void()> step = [&]() {
        if (--remaining > 0)
            sim.schedule(draid::sim::Ticks{1}, "micro.chain", step);
    };
    sim.schedule(draid::sim::Ticks{1}, "micro.chain", step);
    sim.run();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--events=", 0) == 0)
            opts.events = std::strtoull(arg.c_str() + 9, nullptr, 10);
        else if (arg.rfind("--seed=", 0) == 0)
            opts.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        else if (arg.rfind("--profile=", 0) == 0)
            opts.profilePath = arg.substr(10);
        else if (arg == "--profile-ascii")
            opts.ascii = true;
        else if (arg == "--no-profile")
            opts.profilePath.clear();
        else if (arg == "--strict-flags") {
            // micro_simcore is already strict: unknown flags exit 2.
        } else {
            std::fprintf(stderr,
                         "usage: micro_simcore [--events=N] [--seed=N] "
                         "[--profile=<path>] [--profile-ascii] "
                         "[--no-profile]\n");
            return 2;
        }
    }
    if (opts.events == 0)
        opts.events = 1;

    draid::telemetry::SimProfiler profiler;
    runNoopPump(profiler, opts.events, false, "micro.noop");
    runNoopPump(profiler, opts.events, true, "micro.heap");
    runChainPump(profiler, opts.events);

    const draid::telemetry::SimProfiler::Report report = profiler.report();
    std::printf("# micro_simcore: %llu events/pump, %.0f events/sec "
                "aggregate\n",
                static_cast<unsigned long long>(opts.events),
                report.eventsPerSec);
    if (!opts.profilePath.empty()) {
        std::ofstream os(opts.profilePath, std::ios::trunc);
        if (!os) {
            std::fprintf(stderr,
                         "error: could not write engine profile to %s\n",
                         opts.profilePath.c_str());
            return 1;
        }
        draid::telemetry::SimProfiler::writeJson(os, report,
                                                 "micro_simcore",
                                                 opts.seed);
    }
    if (opts.ascii) {
        std::ostringstream ss;
        draid::telemetry::SimProfiler::renderAscii(ss, report,
                                                   "micro_simcore");
        std::fputs(ss.str().c_str(), stderr);
    }
    return 0;
}
