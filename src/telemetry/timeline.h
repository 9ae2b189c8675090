/**
 * @file
 * Windowed performance timeline: bins completed user ops into fixed tick
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
 * (spans, journal events, sampler samples); nothing touches the
 * Simulator, so building a timeline cannot perturb event ordering.
 */

#ifndef DRAID_TELEMETRY_TIMELINE_H
#define DRAID_TELEMETRY_TIMELINE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

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
 * Bins op completions into fixed tick windows. Feed it either raw
 * (end tick, latency, bytes) triples or a recorded span stream; windows
 * between the first and last completion that saw no ops still appear
 * (zero-filled) so stalls stay visible.
 *
 * Built to be fed *incrementally* at op completion (it implements
 * OpCompletionSink), with memory bounded independent of op count:
 *  - op and byte totals per bin are exact, always;
 *  - per-bin latency samples are capped (kLatencySampleCap); on overflow
 *    the retained set is decimated in place (keep 1-in-stride, stride
 *    doubled), so percentiles degrade gracefully to a deterministic
 *    uniform subsample instead of truncating the tail;
 *  - with window_ticks == 0 the bin width adapts to the (unknown) run
 *    length: it starts at 1 us and doubles — merging bins pairwise —
 *    whenever the bin span would exceed kMaxBins.
 * Every decision is a pure function of the fed sequence: no RNG, no
 * clock, byte-identical across runs.
 */
class WindowedAggregator : public OpCompletionSink
{
  public:
    /** Retained latency samples per bin before stride decimation. */
    static constexpr std::size_t kLatencySampleCap = 512;
    /** Bin budget in adaptive (window_ticks == 0) mode. */
    static constexpr std::size_t kMaxBins = 256;
    /** Adaptive mode's starting bin width. */
    static constexpr sim::Tick kAutoBaseTicks = sim::kMicrosecond;

    /** @param window_ticks bin width; zero selects the adaptive mode */
    explicit WindowedAggregator(sim::Ticks window_ticks);

    sim::Ticks windowTicks() const { return sim::Ticks{windowTicks_}; }
    std::uint64_t opsAdded() const { return opsAdded_; }

    /** Record one completed op. */
    void addOp(sim::Ticks end, sim::Ticks latency, std::uint64_t bytes);

    /** OpCompletionSink: stream one completed root op in. */
    void onOpComplete(const TraceSpan &root) override
    {
        addOp(sim::Ticks{root.end}, sim::Ticks{root.end - root.start},
              root.arg("bytes"));
    }

    /**
     * Record every root op from a span stream: spans on the "op" lane,
     * using the span's [start, end) as the latency window and its
     * "bytes" arg as the payload size. Non-op spans are ignored.
     */
    void addOpSpans(const std::vector<TraceSpan> &spans);

    /**
     * Produce the contiguous window series covering every added op
     * (empty if none were added). Goodput/IOPS use the window width as
     * the denominator; percentiles use the nearest-rank method over the
     * retained (possibly decimated) samples; ops/bytes are exact.
     */
    std::vector<TimelineWindow> finalize() const;

    /** As finalize(), but covering at least [from, to). */
    std::vector<TimelineWindow> finalize(sim::Ticks from,
                                         sim::Ticks to) const;

    /** finalize() re-binned so at most @p max_windows windows remain
     *  (adjacent bins merged by an integral factor). */
    struct Coalesced
    {
        sim::Tick windowTicks = 0;
        // draid-lint: cap(kMaxBins; adaptive coalescing enforces it)
        std::vector<TimelineWindow> windows;
    };
    Coalesced coalesce(std::size_t max_windows) const;

    /** Latency samples dropped by per-bin decimation (totals stay exact). */
    std::uint64_t droppedLatencySamples() const { return droppedSamples_; }

    /** Approximate heap bytes retained (size-based, deterministic). */
    std::uint64_t retainedBytes() const;

  private:
    struct Accum
    {
        std::uint64_t bytes = 0;
        std::uint64_t ops = 0; ///< exact, even when samples are decimated
        // draid-lint: cap(kLatencySampleCap; decimated on overflow)
        std::vector<sim::Tick> latencies; ///< 1-in-stride retained subset
        std::uint64_t stride = 1;
        std::uint64_t seen = 0; ///< samples offered to this bin
    };

    /** Decimate one bin to half its retained samples (stride doubling). */
    static void decimateBin(Accum &bin, std::uint64_t &dropped);
    /** Adaptive mode: double the bin width, merging bins pairwise. */
    void widenBins();
    /** Window series for an arbitrary bin map (shared by finalize and
     *  coalesce). */
    static std::vector<TimelineWindow>
    makeWindows(const std::map<std::int64_t, Accum> &bins,
                sim::Ticks window_ticks, std::int64_t first,
                std::int64_t last);

    // Raw Tick here is storage, not API: the tick-unit rule covers
    // parameters and returns; retained state stays on the wire format.
    sim::Tick windowTicks_;
    bool adaptive_ = false;
    std::uint64_t opsAdded_ = 0;
    std::uint64_t droppedSamples_ = 0;
    // draid-lint: cap(kMaxBins; adaptive coalescing merges on overflow)
    std::map<std::int64_t, Accum> bins_; ///< window index -> accum
};

/**
 * Average the sampler's busy-fraction samples per window. Windows with
 * no sample carry the previous window's value (utilization is a
 * continuous quantity; the sampler may tick slower than the timeline).
 */
std::vector<UtilizationSeries>
binUtilization(const std::vector<UtilizationSampler::Sample> &samples,
               sim::Ticks from, sim::Ticks window_ticks,
               std::size_t num_windows);

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
 * Assemble a report from recorded telemetry. @p window_ticks == 0
 * auto-sizes to ~64 windows over the op completion range. Events and
 * samples outside the covered range are dropped.
 */
TimelineReport buildTimeline(const std::vector<TraceSpan> &spans,
                             const std::vector<EventJournal::Event> &events,
                             const std::vector<UtilizationSampler::Sample>
                                 &samples,
                             sim::Ticks window_ticks,
                             sim::NodeId host_node);

/**
 * As above, but from an incrementally-fed aggregator instead of a
 * retained span stream — the scale path: windowed stats stay exact (the
 * sink saw every completion) even when trace sampling retains almost no
 * spans. The aggregator's bins are coalesced to at most ~64 windows.
 */
TimelineReport buildTimeline(const WindowedAggregator &agg,
                             const std::vector<EventJournal::Event> &events,
                             const std::vector<UtilizationSampler::Sample>
                                 &samples,
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
