#include "telemetry/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

namespace draid::telemetry {

namespace {

/** Nearest-rank percentile of a sorted tick vector, in microseconds. */
double
percentileUs(const std::vector<sim::Tick> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    rank = std::min(rank, sorted.size());
    return static_cast<double>(sorted[rank - 1]) / sim::kMicrosecond;
}

/** Fixed-precision double (JSON-safe: never nan/inf, always has digits). */
std::string
num(double v, int precision = 3)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace

WindowedAggregator::WindowedAggregator(sim::Ticks window_ticks)
    : windowTicks_(window_ticks.raw() <= 0
                       ? kAutoBaseTicks
                       : std::max<sim::Tick>(window_ticks.raw(), 1)),
      adaptive_(window_ticks.raw() <= 0)
{
}

void
WindowedAggregator::decimateBin(Accum &bin, std::uint64_t &dropped)
{
    // Retained samples sit at arrival indices 0, stride, 2*stride, ...;
    // keeping the even positions leaves exactly the multiples of the
    // doubled stride, so `seen % stride == 0` stays the keep test.
    std::vector<sim::Tick> survivors;
    survivors.reserve(bin.latencies.size() / 2 + 1);
    for (std::size_t i = 0; i < bin.latencies.size(); ++i) {
        if (i % 2 == 0)
            survivors.push_back(bin.latencies[i]);
        else
            ++dropped;
    }
    bin.latencies = std::move(survivors);
    bin.stride *= 2;
}

void
WindowedAggregator::addOp(sim::Ticks end_ticks, sim::Ticks latency_ticks,
                          std::uint64_t bytes)
{
    const sim::Tick end = end_ticks.raw();
    const sim::Tick latency = latency_ticks.raw();
    if (adaptive_) {
        // Widen until this op's bin fits inside the kMaxBins budget
        // spanned from the earliest bin.
        while (!bins_.empty()) {
            const std::int64_t idx = end / windowTicks_;
            const std::int64_t lo =
                std::min(idx, bins_.begin()->first);
            const std::int64_t hi =
                std::max(idx, bins_.rbegin()->first);
            if (static_cast<std::uint64_t>(hi - lo) <
                static_cast<std::uint64_t>(kMaxBins))
                break;
            widenBins();
        }
    }
    Accum &bin = bins_[end / windowTicks_];
    bin.bytes += bytes;
    ++bin.ops;
    if (bin.seen % bin.stride == 0) {
        if (bin.latencies.size() >= kLatencySampleCap)
            decimateBin(bin, droppedSamples_);
        bin.latencies.push_back(latency);
    } else {
        ++droppedSamples_;
    }
    ++bin.seen;
    ++opsAdded_;
}

void
WindowedAggregator::widenBins()
{
    std::map<std::int64_t, Accum> merged;
    for (auto &[idx, bin] : bins_) {
        Accum &dst = merged[idx >= 0 ? idx / 2 : (idx - 1) / 2];
        if (dst.ops == 0) {
            dst = std::move(bin);
            continue;
        }
        dst.bytes += bin.bytes;
        dst.ops += bin.ops;
        dst.seen += bin.seen;
        // Pooling two decimated subsamples biases toward the
        // lower-stride half; acceptable — the totals stay exact and the
        // percentiles are documented as approximate once decimation has
        // kicked in.
        dst.stride = std::max(dst.stride, bin.stride);
        dst.latencies.insert(dst.latencies.end(), bin.latencies.begin(),
                             bin.latencies.end());
        while (dst.latencies.size() > kLatencySampleCap)
            decimateBin(dst, droppedSamples_);
    }
    bins_ = std::move(merged);
    windowTicks_ *= 2;
}

void
WindowedAggregator::addOpSpans(const std::vector<TraceSpan> &spans)
{
    for (const TraceSpan &span : spans) {
        if (std::strcmp(span.lane, "op") != 0)
            continue;
        addOp(sim::Ticks{span.end}, sim::Ticks{span.end - span.start},
              span.arg("bytes"));
    }
}

std::vector<TimelineWindow>
WindowedAggregator::finalize() const
{
    if (bins_.empty())
        return {};
    const std::int64_t first = bins_.begin()->first;
    const std::int64_t last = bins_.rbegin()->first;
    return finalize(sim::Ticks{first * windowTicks_},
                    sim::Ticks{(last + 1) * windowTicks_});
}

std::vector<TimelineWindow>
WindowedAggregator::makeWindows(const std::map<std::int64_t, Accum> &bins,
                                sim::Ticks window_ticks, std::int64_t first,
                                std::int64_t last)
{
    std::vector<TimelineWindow> out;
    out.reserve(static_cast<std::size_t>(last - first + 1));
    const double windowSec = static_cast<double>(window_ticks.raw()) /
                             (sim::kMillisecond * 1000.0);
    for (std::int64_t idx = first; idx <= last; ++idx) {
        TimelineWindow w;
        w.start = idx * window_ticks.raw();
        auto it = bins.find(idx);
        if (it != bins.end()) {
            std::vector<sim::Tick> lat = it->second.latencies;
            std::sort(lat.begin(), lat.end());
            w.ops = it->second.ops;
            w.bytes = it->second.bytes;
            w.goodputMBps =
                static_cast<double>(w.bytes) / 1e6 / windowSec;
            w.kiops = static_cast<double>(w.ops) / 1e3 / windowSec;
            w.p50Us = percentileUs(lat, 50.0);
            w.p99Us = percentileUs(lat, 99.0);
        }
        out.push_back(std::move(w));
    }
    return out;
}

std::vector<TimelineWindow>
WindowedAggregator::finalize(sim::Ticks from_ticks, sim::Ticks to_ticks) const
{
    const sim::Tick from = from_ticks.raw();
    const sim::Tick to = to_ticks.raw();
    std::int64_t first = from / windowTicks_;
    std::int64_t last = to <= from ? first : (to - 1) / windowTicks_;
    if (!bins_.empty()) {
        first = std::min(first, bins_.begin()->first);
        last = std::max(last, bins_.rbegin()->first);
    }
    return makeWindows(bins_, sim::Ticks{windowTicks_}, first, last);
}

WindowedAggregator::Coalesced
WindowedAggregator::coalesce(std::size_t max_windows) const
{
    Coalesced out;
    out.windowTicks = windowTicks_;
    if (bins_.empty() || max_windows == 0)
        return out;
    const std::int64_t first = bins_.begin()->first;
    const std::int64_t last = bins_.rbegin()->first;
    const auto span = static_cast<std::uint64_t>(last - first + 1);
    const std::uint64_t factor =
        (span + max_windows - 1) / max_windows;
    if (factor <= 1) {
        out.windows =
            makeWindows(bins_, sim::Ticks{windowTicks_}, first, last);
        return out;
    }
    // Merge each run of `factor` adjacent bins. Grouping by idx/factor
    // (floor toward -inf) keeps window starts on multiples of the merged
    // width, matching how a wider aggregator would have binned.
    std::map<std::int64_t, Accum> merged;
    std::uint64_t dropped = 0;
    const auto f = static_cast<std::int64_t>(factor);
    for (const auto &[idx, bin] : bins_) {
        const std::int64_t g = idx >= 0 ? idx / f : (idx - f + 1) / f;
        Accum &dst = merged[g];
        dst.bytes += bin.bytes;
        dst.ops += bin.ops;
        dst.seen += bin.seen;
        dst.stride = std::max(dst.stride, bin.stride);
        dst.latencies.insert(dst.latencies.end(), bin.latencies.begin(),
                             bin.latencies.end());
        while (dst.latencies.size() > kLatencySampleCap)
            decimateBin(dst, dropped);
    }
    out.windowTicks = windowTicks_ * f;
    out.windows = makeWindows(merged, sim::Ticks{out.windowTicks},
                              merged.begin()->first,
                              merged.rbegin()->first);
    return out;
}

std::uint64_t
WindowedAggregator::retainedBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &[idx, bin] : bins_)
        bytes += sizeof(Accum) + sizeof(std::int64_t) +
                 bin.latencies.size() * sizeof(sim::Tick);
    return bytes;
}

std::vector<UtilizationSeries>
binUtilization(const std::vector<UtilizationSampler::Sample> &samples,
               sim::Ticks from_ticks, sim::Ticks window_ticks_in,
               std::size_t num_windows)
{
    const sim::Tick from = from_ticks.raw();
    const sim::Tick window_ticks = window_ticks_in.raw();
    if (window_ticks <= 0 || num_windows == 0)
        return {};

    struct SeriesAccum
    {
        // draid-lint: cap(window count of the coalesced timeline; kMaxBins)
        std::vector<double> sum;
        // draid-lint: cap(parallel to sum; kMaxBins)
        std::vector<std::uint32_t> count;
    };
    // Keyed by (node, name); std::map keeps the output ordering stable.
    std::map<std::pair<sim::NodeId, std::string>, SeriesAccum> accums;
    const sim::Tick to = from + static_cast<sim::Tick>(num_windows)
        * window_ticks;
    for (const UtilizationSampler::Sample &s : samples) {
        if (s.tick < from || s.tick >= to)
            continue;
        SeriesAccum &acc = accums[{s.node, s.name}];
        if (acc.sum.empty()) {
            acc.sum.assign(num_windows, 0.0);
            acc.count.assign(num_windows, 0);
        }
        const auto idx =
            static_cast<std::size_t>((s.tick - from) / window_ticks);
        acc.sum[idx] += s.value;
        acc.count[idx] += 1;
    }

    std::vector<UtilizationSeries> out;
    out.reserve(accums.size());
    for (auto &[key, acc] : accums) {
        UtilizationSeries series;
        series.node = key.first;
        series.name = key.second;
        series.perWindow.resize(num_windows, 0.0);
        double carry = 0.0;
        for (std::size_t i = 0; i < num_windows; ++i) {
            if (acc.count[i] > 0)
                carry = acc.sum[i] / acc.count[i];
            series.perWindow[i] = carry;
        }
        out.push_back(std::move(series));
    }
    return out;
}

HealthFlags
detectHealth(const std::vector<TimelineWindow> &windows,
             const std::vector<UtilizationSeries> &util,
             sim::NodeId host_node)
{
    HealthFlags flags;

    // Stalled windows: zero completions strictly between active windows.
    std::size_t firstActive = windows.size();
    std::size_t lastActive = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        if (windows[i].ops > 0) {
            firstActive = std::min(firstActive, i);
            lastActive = i;
        }
    }
    if (firstActive < windows.size()) {
        for (std::size_t i = firstActive + 1; i < lastActive; ++i) {
            if (windows[i].ops == 0)
                flags.stalledWindows.push_back(i);
        }
    }

    // Imbalance: per window and counter name, across non-host nodes.
    std::map<std::string, std::vector<const UtilizationSeries *>> byName;
    for (const UtilizationSeries &s : util) {
        if (s.node != host_node)
            byName[s.name].push_back(&s);
    }
    for (const auto &[name, group] : byName) {
        if (group.size() < 3)
            continue;
        const std::size_t n = group.front()->perWindow.size();
        for (std::size_t w = 0; w < n; ++w) {
            double maxV = -1.0;
            double sum = 0.0;
            const UtilizationSeries *maxSeries = nullptr;
            for (const UtilizationSeries *s : group) {
                const double v = s->perWindow[w];
                sum += v;
                if (v > maxV) {
                    maxV = v;
                    maxSeries = s;
                }
            }
            const double meanOthers =
                (sum - maxV) / static_cast<double>(group.size() - 1);
            if (maxV > 0.4 && maxV > 2.5 * meanOthers) {
                HealthFlags::Imbalance im;
                im.window = w;
                im.name = name;
                im.node = maxSeries->node;
                im.maxUtil = maxV;
                im.meanUtil = meanOthers;
                flags.imbalances.push_back(im);
            }
        }
    }
    return flags;
}

TimelineReport
buildTimeline(const std::vector<TraceSpan> &spans,
              const std::vector<EventJournal::Event> &events,
              const std::vector<UtilizationSampler::Sample> &samples,
              sim::Ticks window_ticks_in, sim::NodeId host_node)
{
    sim::Tick window_ticks = window_ticks_in.raw();
    TimelineReport report;

    // The op completion range drives the window grid.
    sim::Tick firstEnd = std::numeric_limits<sim::Tick>::max();
    sim::Tick lastEnd = 0;
    for (const TraceSpan &span : spans) {
        if (std::strcmp(span.lane, "op") != 0)
            continue;
        firstEnd = std::min(firstEnd, span.end);
        lastEnd = std::max(lastEnd, span.end);
    }
    if (firstEnd > lastEnd)
        return report; // no ops recorded

    if (window_ticks <= 0) {
        // Auto-size to ~64 windows over the run, min 1 us each.
        window_ticks = std::max<sim::Tick>((lastEnd - firstEnd + 1) / 64,
                                           sim::kMicrosecond);
    }

    WindowedAggregator agg(sim::Ticks{window_ticks});
    agg.addOpSpans(spans);
    report.windowTicks = agg.windowTicks().raw();
    report.windows = agg.finalize();
    report.startTick = report.windows.empty() ? 0 : report.windows.front().start;
    const sim::Tick endTick = report.startTick
        + static_cast<sim::Tick>(report.windows.size()) * report.windowTicks;

    for (const EventJournal::Event &e : events) {
        if (e.tick >= report.startTick && e.tick < endTick)
            report.events.push_back(e);
    }
    report.utilization = binUtilization(samples,
                                        sim::Ticks{report.startTick},
                                        sim::Ticks{report.windowTicks},
                                        report.windows.size());
    report.health =
        detectHealth(report.windows, report.utilization, host_node);
    return report;
}

TimelineReport
buildTimeline(const WindowedAggregator &agg,
              const std::vector<EventJournal::Event> &events,
              const std::vector<UtilizationSampler::Sample> &samples,
              sim::NodeId host_node)
{
    TimelineReport report;
    if (agg.opsAdded() == 0)
        return report; // no ops streamed in

    const WindowedAggregator::Coalesced c = agg.coalesce(64);
    report.windowTicks = c.windowTicks;
    report.windows = c.windows;
    report.startTick =
        report.windows.empty() ? 0 : report.windows.front().start;
    const sim::Tick endTick = report.startTick
        + static_cast<sim::Tick>(report.windows.size()) * report.windowTicks;

    for (const EventJournal::Event &e : events) {
        if (e.tick >= report.startTick && e.tick < endTick)
            report.events.push_back(e);
    }
    report.utilization = binUtilization(samples,
                                        sim::Ticks{report.startTick},
                                        sim::Ticks{report.windowTicks},
                                        report.windows.size());
    report.health =
        detectHealth(report.windows, report.utilization, host_node);
    return report;
}

void
writeTimelineJson(std::ostream &os, const TimelineReport &report)
{
    os << "{\"window_us\":"
       << num(static_cast<double>(report.windowTicks) / sim::kMicrosecond)
       << ",\"start_tick\":" << report.startTick << ",\"windows\":[";
    for (std::size_t i = 0; i < report.windows.size(); ++i) {
        const TimelineWindow &w = report.windows[i];
        if (i)
            os << ",";
        os << "{\"t\":" << w.start << ",\"ops\":" << w.ops << ",\"bytes\":"
           << w.bytes << ",\"mbps\":" << num(w.goodputMBps, 1)
           << ",\"kiops\":" << num(w.kiops) << ",\"p50_us\":"
           << num(w.p50Us, 2) << ",\"p99_us\":" << num(w.p99Us, 2) << "}";
    }
    os << "],\"events\":[";
    for (std::size_t i = 0; i < report.events.size(); ++i) {
        const EventJournal::Event &e = report.events[i];
        if (i)
            os << ",";
        os << "{\"tick\":" << e.tick << ",\"type\":\""
           << eventTypeName(e.type) << "\",\"node\":" << e.node
           << ",\"a\":" << e.a << ",\"b\":" << e.b << "}";
    }
    os << "],\"util\":[";
    for (std::size_t i = 0; i < report.utilization.size(); ++i) {
        const UtilizationSeries &s = report.utilization[i];
        if (i)
            os << ",";
        os << "{\"node\":" << s.node << ",\"name\":\"" << s.name
           << "\",\"v\":[";
        for (std::size_t j = 0; j < s.perWindow.size(); ++j) {
            if (j)
                os << ",";
            os << num(s.perWindow[j]);
        }
        os << "]}";
    }
    os << "],\"health\":{\"stalled_windows\":[";
    for (std::size_t i = 0; i < report.health.stalledWindows.size(); ++i) {
        if (i)
            os << ",";
        os << report.health.stalledWindows[i];
    }
    os << "],\"imbalances\":[";
    for (std::size_t i = 0; i < report.health.imbalances.size(); ++i) {
        const HealthFlags::Imbalance &im = report.health.imbalances[i];
        if (i)
            os << ",";
        os << "{\"window\":" << im.window << ",\"name\":\"" << im.name
           << "\",\"node\":" << im.node << ",\"max\":" << num(im.maxUtil)
           << ",\"mean\":" << num(im.meanUtil) << "}";
    }
    os << "]}}";
}

char
eventMarker(EventType t)
{
    switch (t) {
      case EventType::kDriveFailed: return 'F';
      case EventType::kDriveRecovered: return 'f';
      case EventType::kTargetDown: return 'X';
      case EventType::kTargetRecovered: return 'x';
      case EventType::kRebuildStarted: return 'R';
      case EventType::kRebuildProgress: return 'r';
      case EventType::kRebuildCompleted: return 'C';
      case EventType::kScrubPass: return 'S';
      case EventType::kDegradedReadServed: return 'd';
      case EventType::kStripeLockConvoy: return 'L';
      case EventType::kHotSpareSwap: return 'H';
      case EventType::kOpTimeout: return 'T';
      case EventType::kSlowDriveDetected: return 'G';
      case EventType::kLatentSectorError: return 'E';
      case EventType::kTargetFlap: return 'p';
      case EventType::kSwitchPortDegraded: return 'B';
      case EventType::kDataLoss: return '!';
    }
    return '?';
}

namespace {

/**
 * When several events land in the same window column, the rarer / more
 * structural one wins the marker slot: a RebuildStarted must not be
 * hidden under hundreds of DegradedReadServed records.
 */
int
markerPriority(EventType t)
{
    switch (t) {
      case EventType::kDataLoss: return 7; ///< never hidden by anything
      case EventType::kRebuildStarted:
      case EventType::kRebuildCompleted: return 6;
      case EventType::kDriveFailed:
      case EventType::kTargetDown:
      case EventType::kTargetFlap: return 5;
      case EventType::kHotSpareSwap:
      case EventType::kDriveRecovered:
      case EventType::kTargetRecovered:
      case EventType::kSlowDriveDetected:
      case EventType::kSwitchPortDegraded: return 4;
      case EventType::kOpTimeout: return 3;
      case EventType::kRebuildProgress:
      case EventType::kScrubPass:
      case EventType::kLatentSectorError: return 2;
      case EventType::kStripeLockConvoy: return 1;
      case EventType::kDegradedReadServed: return 0;
    }
    return 0;
}

std::string
fmtMs(sim::Tick tick)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(2)
       << static_cast<double>(tick) / sim::kMillisecond << " ms";
    return ss.str();
}

} // namespace

void
renderTimelineAscii(std::ostream &os, const TimelineReport &report,
                    const std::string &title)
{
    const std::size_t n = report.windows.size();
    if (n == 0) {
        os << "## timeline: " << title << " (no ops recorded)\n";
        return;
    }

    double peak = 0.0;
    for (const TimelineWindow &w : report.windows)
        peak = std::max(peak, w.goodputMBps);

    os << "## timeline: " << title << " (" << n << " windows x "
       << num(static_cast<double>(report.windowTicks) / sim::kMicrosecond, 1)
       << " us, peak " << num(peak, 1) << " MB/s)\n";

    // Goodput sparkline: 8-level ramp, one column per window.
    static const char kRamp[] = " .:-=+*#";
    std::string spark(n, ' ');
    for (std::size_t i = 0; i < n; ++i) {
        const double v = report.windows[i].goodputMBps;
        if (v <= 0.0 || peak <= 0.0)
            continue;
        // A trickle still renders as '.': only a truly idle window is
        // blank, so stalls stay distinguishable from slow windows.
        auto level = static_cast<std::size_t>(v / peak * 7.0 + 0.5);
        level = std::min<std::size_t>(std::max<std::size_t>(level, 1), 7);
        spark[i] = kRamp[level];
    }
    os << "## goodput |" << spark << "|\n";

    // Event marker row: highest-priority event per window column.
    std::string markers(n, '.');
    std::vector<int> priority(n, -1);
    for (const EventJournal::Event &e : report.events) {
        const auto idx = static_cast<std::size_t>(
            (e.tick - report.startTick) / report.windowTicks);
        if (idx >= n)
            continue;
        const int p = markerPriority(e.type);
        if (p > priority[idx]) {
            priority[idx] = p;
            markers[idx] = eventMarker(e.type);
        }
    }
    os << "## events  |" << markers << "|\n";

    // Legend: rare event types listed individually, frequent ones counted.
    struct TypeStats
    {
        std::uint64_t count = 0;
        sim::Tick firstTick = 0;
    };
    std::map<EventType, TypeStats> byType;
    for (const EventJournal::Event &e : report.events) {
        TypeStats &st = byType[e.type];
        if (st.count == 0)
            st.firstTick = e.tick;
        ++st.count;
    }
    for (const EventJournal::Event &e : report.events) {
        if (byType[e.type].count > 3)
            continue;
        os << "##   [" << eventMarker(e.type) << "] " << std::left
           << std::setw(18) << eventTypeName(e.type) << std::right
           << " @ " << fmtMs(e.tick) << "  node=" << e.node << " a=" << e.a
           << " b=" << e.b << "\n";
    }
    for (const auto &[type, st] : byType) {
        if (st.count <= 3)
            continue;
        os << "##   [" << eventMarker(type) << "] " << std::left
           << std::setw(18) << eventTypeName(type) << std::right << " x "
           << st.count << " (first @ " << fmtMs(st.firstTick) << ")\n";
    }

    // Health summary.
    os << "## health: " << report.health.stalledWindows.size()
       << " stalled window(s)";
    if (!report.health.imbalances.empty()) {
        const HealthFlags::Imbalance *worst = nullptr;
        for (const HealthFlags::Imbalance &im : report.health.imbalances) {
            if (!worst || im.maxUtil > worst->maxUtil)
                worst = &im;
        }
        os << "; " << report.health.imbalances.size()
           << " imbalanced window(s), worst node" << worst->node << " "
           << worst->name << " " << num(worst->maxUtil, 2) << " vs "
           << num(worst->meanUtil, 2) << " mean @ window " << worst->window;
    } else {
        os << "; utilization balanced";
    }
    os << "\n";
}

} // namespace draid::telemetry
