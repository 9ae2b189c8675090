/**
 * @file
 * Windowed performance timeline: bins completed user ops into tick
 * windows (goodput, IOPS, p50/p99 latency per window), re-bins the
 * utilization sampler's busy fractions onto the same windows, flags
 * unhealthy windows (stalls, cross-server utilization imbalance), and
 * renders the result as JSON or as an ASCII sparkline with the event
 * journal's markers overlaid.
 *
 * This is the behaviour-over-time pillar of the telemetry subsystem: a
 * per-op span explains one op, the end-of-run aggregates summarize the
 * whole run, the timeline shows the regimes in between — the Fig. 17
 * foreground-goodput dip while a rebuild runs, degraded-mode transitions
 * after a drive failure, load staying (or not staying) balanced.
 *
 * Everything here is a pure function of already-recorded telemetry
 * (streamed op completions, journal events, sampler samples); nothing
 * touches the Simulator, so building a timeline cannot perturb event
 * ordering.
 */

#ifndef DRAID_TELEMETRY_TIMELINE_H
#define DRAID_TELEMETRY_TIMELINE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "sim/types.h"
#include "telemetry/event_journal.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace draid::telemetry {

/** One fixed-width window of completed-op statistics. */
struct TimelineWindow
{
    sim::Tick start = 0; ///< window covers [start, start + width)
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    double goodputMBps = 0.0;
    double kiops = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

/** One (node, counter) utilization series re-binned onto the windows. */
struct UtilizationSeries
{
    sim::NodeId node = 0;
    std::string name; ///< e.g. "ssd.util"
    // draid-lint: cap(kMaxBins windows after coalescing)
    std::vector<double> perWindow;
};

/** Unhealthy windows found by the detector. */
struct HealthFlags
{
    /** Windows with zero completions strictly between active windows. */
    // draid-lint: cap(kMaxBins; subset of report windows)
    std::vector<std::size_t> stalledWindows;

    /** One server far busier than its peers on the same resource. */
    struct Imbalance
    {
        std::size_t window = 0;
        std::string name; ///< the utilization counter, e.g. "ssd.util"
        sim::NodeId node = 0;
        double maxUtil = 0.0;
        double meanUtil = 0.0; ///< mean of the *other* nodes' series
    };
    // draid-lint: cap(at most one per node pair flagged; kMaxBins windows)
    std::vector<Imbalance> imbalances;
};

/**
 * Bins op completions into tick windows, fed incrementally at op
 * completion (it is a SpanSink), with memory bounded
 * independent of op count:
 *  - op and byte totals per bin are exact, always;
 *  - each bin's latencies live in a sim::SampleSet capped at
 *    kLatencySampleCap, so percentiles degrade gracefully to a
 *    deterministic uniform subsample instead of truncating the tail;
 *  - the bin width adapts to the (unknown) run length: it starts at
 *    kBaseTicks and doubles — merging bins pairwise — whenever the bin
 *    span would exceed kMaxBins.
 * Every decision is a pure function of the fed sequence: no RNG, no
 * clock, byte-identical across runs.
 */
class WindowedAggregator : public SpanSink
{
  public:
    /** Retained latency samples per bin before stride decimation. */
    static constexpr std::size_t kLatencySampleCap = 512;
    /** Bin budget; the width doubles to stay inside it. */
    static constexpr std::size_t kMaxBins = 256;
    /** Starting bin width. */
    static constexpr sim::Tick kBaseTicks = sim::kMicrosecond;

    sim::Ticks windowTicks() const { return sim::Ticks{windowTicks_}; }
    std::uint64_t opsAdded() const { return opsAdded_; }

    /** Record one completed op. */
    void addOp(sim::Ticks end, sim::Ticks latency, std::uint64_t bytes);

    /** SpanSink: stream each completed root op in. */
    void onOpComplete(const TraceSpan &root,
                      const std::vector<TraceSpan> &) override
    {
        addOp(sim::Ticks{root.end}, sim::Ticks{root.end - root.start},
              root.arg("bytes"));
    }

    /**
     * The contiguous window series covering every added op (empty if
     * none), re-binned so at most @p max_windows windows remain: runs of
     * adjacent bins merge by the smallest integral factor that fits, and
     * windows that saw no ops stay in (zero-filled) so stalls stay
     * visible. Goodput/IOPS use the window width as the denominator;
     * percentiles are nearest-rank over the retained samples; ops/bytes
     * are exact. coalesce(kMaxBins) returns every bin unmerged.
     */
    struct Coalesced
    {
        sim::Tick windowTicks = 0;
        // draid-lint: cap(kMaxBins; adaptive coalescing enforces it)
        std::vector<TimelineWindow> windows;
    };
    Coalesced coalesce(std::size_t max_windows) const;

    /** Latency samples dropped by per-bin decimation (totals stay exact). */
    std::uint64_t droppedLatencySamples() const;

    /** Approximate heap bytes retained (size-based, deterministic). */
    std::uint64_t retainedBytes() const;

  private:
    struct Accum
    {
        std::uint64_t bytes = 0;
        /** seen() is the exact op count, even when samples decimate. */
        sim::SampleSet lat{kLatencySampleCap};
    };
    using Bins = std::map<std::int64_t, Accum>;

    /** regroup() merge step: pool two bins. */
    static void mergeBin(Accum &dst, const Accum &src);

    // Raw Tick here is storage, not API: the tick-unit rule covers
    // parameters and returns; retained state stays on the wire format.
    sim::Tick windowTicks_ = kBaseTicks;
    std::uint64_t opsAdded_ = 0;
    // draid-lint: cap(kMaxBins; the width doubles on overflow)
    Bins bins_; ///< window index -> accum
};

/**
 * Average the sampler's busy-fraction rounds per window, one series per
 * (node, name) in that order. Windows with no sample carry the previous
 * window's value (utilization is a continuous quantity; the sampler may
 * tick slower than the timeline).
 */
std::vector<UtilizationSeries>
binUtilization(const UtilizationRounds &rounds, sim::Ticks from,
               sim::Ticks window_ticks, std::size_t num_windows);

/**
 * Flag stalled windows and cross-server utilization imbalance. A window
 * is imbalanced on a counter when at least three nodes report it, the
 * busiest is above 0.4, and it exceeds 2.5x the mean of the others.
 * @p host_node is excluded from imbalance checks (the host is *supposed*
 * to be the busiest NIC in host-centric baselines).
 */
HealthFlags detectHealth(const std::vector<TimelineWindow> &windows,
                         const std::vector<UtilizationSeries> &util,
                         sim::NodeId host_node);

/** The full timeline of one measured job. */
struct TimelineReport
{
    sim::Tick windowTicks = 0;
    sim::Tick startTick = 0; ///< start of windows[0]
    // draid-lint: cap(kMaxBins; adaptive coalescing enforces it)
    std::vector<TimelineWindow> windows;
    // draid-lint: cap(journal capacity; ring-bounded source)
    std::vector<EventJournal::Event> events; ///< within the window range
    // draid-lint: cap(one series per node lane; fixed topology)
    std::vector<UtilizationSeries> utilization;
    HealthFlags health;
};

/**
 * Assemble a report from an incrementally-fed aggregator: windowed stats
 * stay exact (the sink saw every completion) even when trace sampling
 * retains almost no spans. The aggregator's bins are coalesced to at
 * most ~64 windows; events and samples outside them are dropped.
 */
TimelineReport buildTimeline(const WindowedAggregator &agg,
                             const std::vector<EventJournal::Event> &events,
                             const UtilizationRounds &rounds,
                             sim::NodeId host_node);

/** One JSON object (windows + events + utilization + health), no newline. */
void writeTimelineJson(std::ostream &os, const TimelineReport &report);

/**
 * Terminal report: a goodput sparkline, one column per window, with the
 * journal's event markers overlaid on a second row, then a legend and
 * the health summary. Pure ASCII, '#'-prefixed (safe for stderr next to
 * diffable figure stdout).
 */
void renderTimelineAscii(std::ostream &os, const TimelineReport &report,
                         const std::string &title);

/** Single-character marker for the ASCII event row ('F', 'R', 'C'...). */
char eventMarker(EventType t);

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_TIMELINE_H
