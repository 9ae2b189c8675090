#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

namespace draid::telemetry {

namespace {

/**
 * Live recorders, for the crash handlers. The simulation is
 * single-threaded; construction/destruction order is the only concern.
 */
std::vector<FlightRecorder *> &
liveRecorders()
{
    static std::vector<FlightRecorder *> live;
    return live;
}

std::string &
crashTracePath()
{
    static std::string path;
    return path;
}

void
dumpEverythingToStderr(const char *why)
{
    // fprintf only: the abort path must not allocate more than it has to.
    std::fprintf(stderr, "\n=== FLIGHT RECORDER post-mortem (%s) ===\n",
                 why);
    std::ostringstream oss;
    FlightRecorder::dumpAll(oss);
    std::fputs(oss.str().c_str(), stderr);
    std::fflush(stderr);

    if (!crashTracePath().empty()) {
        std::ofstream f(crashTracePath());
        if (f) {
            // One trace per recorder would collide; dump the newest (the
            // cluster under test) which holds the relevant window.
            if (!liveRecorders().empty())
                liveRecorders().back()->writeChromeTrace(f);
            std::fprintf(stderr, "flight recorder: Chrome trace saved to "
                                 "%s\n",
                         crashTracePath().c_str());
        }
    }
}

void (*g_prevAbort)(int) = SIG_DFL;
void (*g_prevSegv)(int) = SIG_DFL;
std::terminate_handler g_prevTerminate = nullptr;

void
onFatalSignal(int sig)
{
    // Restore the previous disposition first so a second fault (or the
    // re-raise below) terminates instead of recursing.
    std::signal(SIGABRT, g_prevAbort);
    std::signal(SIGSEGV, g_prevSegv);
    dumpEverythingToStderr(sig == SIGABRT ? "abort" : "fatal signal");
    std::raise(sig);
}

[[noreturn]] void
onTerminate()
{
    dumpEverythingToStderr("std::terminate");
    if (g_prevTerminate)
        g_prevTerminate();
    std::abort();
}

} // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity)
{
    liveRecorders().push_back(this);
}

FlightRecorder::~FlightRecorder()
{
    auto &live = liveRecorders();
    live.erase(std::remove(live.begin(), live.end(), this), live.end());
}

void
FlightRecorder::note(const char *name, std::uint64_t id, sim::NodeId node,
                     sim::Tick tick)
{
    if (!enabled())
        return;
    ring_.push(TraceSpan{.traceId = id,
                         .node = node,
                         .lane = "event",
                         .name = name,
                         .start = tick,
                         .end = tick});
}

void
FlightRecorder::noteAbnormal(const char *name, std::uint64_t id,
                             sim::NodeId node, sim::Tick tick)
{
    note(name, id, node, tick);
    if (enabled() && dumpOnAbnormal_ && abnormalDumps_ < 3) {
        ++abnormalDumps_;
        std::cerr << "\n=== FLIGHT RECORDER post-mortem (" << name
                  << ") ===\n";
        dump(std::cerr);
        std::cerr.flush();
    }
}

void
FlightRecorder::dump(std::ostream &os, std::size_t max_records) const
{
    const auto records = snapshot();
    const std::size_t n = std::min(records.size(), max_records);
    os << "flight recorder: " << records.size() << " records held, "
       << ring_.total() << " total; last " << n << ":\n";
    char line[160];
    for (std::size_t i = records.size() - n; i < records.size(); ++i) {
        const TraceSpan &r = records[i];
        std::snprintf(line, sizeof(line),
                      "  [%12" PRId64 " .. %12" PRId64 " ns] node%-3u "
                      "%-7s %-22s trace=%" PRIu64 " tenant=%u\n",
                      r.start, r.end, r.node, r.lane, r.name, r.traceId,
                      r.tenant);
        os << line;
    }
}

void
FlightRecorder::writeChromeTrace(std::ostream &os) const
{
    Tracer ring;
    ring.setEnabled(true);
    for (const TraceSpan &r : snapshot())
        ring.recordSpan(r);
    ring.writeChromeTrace(os);
}

void
FlightRecorder::clear()
{
    ring_.clear();
    abnormalDumps_ = 0;
}

void
FlightRecorder::dumpAll(std::ostream &os, std::size_t max_records)
{
    if (liveRecorders().empty()) {
        os << "flight recorder: no live recorders\n";
        return;
    }
    for (FlightRecorder *fr : liveRecorders())
        fr->dump(os, max_records);
}

void
FlightRecorder::installCrashHandlers()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    g_prevAbort = std::signal(SIGABRT, onFatalSignal);
    g_prevSegv = std::signal(SIGSEGV, onFatalSignal);
    g_prevTerminate = std::set_terminate(onTerminate);
}

void
FlightRecorder::setCrashTracePath(std::string path)
{
    crashTracePath() = std::move(path);
}

} // namespace draid::telemetry
