#include "telemetry/critical_path.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "sim/stats.h"

namespace draid::telemetry {

namespace {

/** A clamped resource span inside one op's window. */
struct Interval
{
    sim::Tick start;
    sim::Tick end;
    Phase phase;
};

/**
 * Max total duration over non-overlapping subsets (weighted interval
 * scheduling). Intervals may overlap arbitrarily across lanes.
 */
sim::Tick
longestChain(std::vector<Interval> ivs)
{
    std::sort(ivs.begin(), ivs.end(),
              [](const Interval &a, const Interval &b) {
                  return a.end < b.end;
              });
    // best[i]: the longest chain among the first i intervals by end.
    std::vector<sim::Tick> best{0};
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        // Intervals ending at or before this one's start.
        const auto first = ivs.begin();
        const auto p = std::upper_bound(
                           first, first + static_cast<std::ptrdiff_t>(i),
                           ivs[i].start,
                           [](sim::Tick t, const Interval &iv) {
                               return t < iv.end;
                           }) -
                       first;
        best.push_back(std::max(best[i], best[static_cast<std::size_t>(p)] +
                                             (ivs[i].end - ivs[i].start)));
    }
    return best.back();
}

/**
 * Exact partition of [start, end) across phases by boundary sweep: between
 * consecutive span boundaries, the highest phase with a covering span owns
 * the elementary interval (kQueue when none covers it).
 */
void
partition(sim::Tick start, sim::Tick end, const std::vector<Interval> &ivs,
          std::array<sim::Tick, kNumPhases> &out)
{
    // (tick, phase, +1 where a span starts / -1 where it ends)
    std::vector<std::tuple<sim::Tick, std::size_t, int>> edges;
    edges.reserve(2 * ivs.size());
    for (const Interval &iv : ivs) {
        const auto p = static_cast<std::size_t>(iv.phase);
        edges.emplace_back(iv.start, p, 1);
        edges.emplace_back(iv.end, p, -1);
    }
    std::sort(edges.begin(), edges.end());

    std::array<int, kNumPhases> covering{};
    sim::Tick at = start;
    auto chargeUntil = [&](sim::Tick tick) {
        std::size_t best = kNumPhases - 1;
        while (best > 0 && covering[best] == 0)
            --best;
        out[best] += tick - at;
        at = tick;
    };
    for (const auto &[tick, phase, delta] : edges) {
        chargeUntil(tick);
        covering[phase] += delta;
    }
    chargeUntil(end);
}

/** Lanes that model an occupiable resource (verdict candidates). */
constexpr const char *kResourceLanes[] = {"nic.tx", "nic.rx", "cpu", "ssd"};
constexpr std::size_t kNumResourceLanes = std::size(kResourceLanes);

/** Classify one span's phase; kQueue if the lane carries no phase. */
Phase
classifySpan(const TraceSpan &span)
{
    const std::string_view lane(span.lane);
    if (lane == "ssd")
        return Phase::kSsd;
    if (lane == "cpu") {
        return std::string_view(span.name).starts_with("reduce.")
                   ? Phase::kReduce
                   : Phase::kCpu;
    }
    if (lane == "nic.tx" || lane == "nic.rx")
        return Phase::kNic;
    if (lane == "fabric")
        return Phase::kFabric;
    if (lane == "lock")
        return Phase::kLockWait;
    return Phase::kQueue;
}

} // namespace

const char *
phaseName(Phase p)
{
    static constexpr const char *kNames[kNumPhases] = {
        "queue", "lock", "fabric", "nic", "cpu", "reduce", "ssd"};
    return kNames[static_cast<std::size_t>(p)];
}

OpBreakdown
breakdownOp(const TraceSpan &root, const std::vector<TraceSpan> &chain)
{
    OpBreakdown op{.traceId = root.traceId,
                   .name = root.name,
                   .start = root.start,
                   .end = root.end};
    std::vector<Interval> ivs;
    for (const TraceSpan &c : chain) {
        const Phase p = classifySpan(c);
        if (p == Phase::kQueue)
            continue; // the root, "event", "rebuild": no phase lane
        const sim::Tick lo = std::max(c.start, op.start);
        const sim::Tick hi = std::min(c.end, op.end);
        if (hi > lo)
            ivs.push_back(Interval{lo, hi, p});
    }
    partition(op.start, op.end, ivs, op.phaseTicks);
    op.chainTicks = longestChain(std::move(ivs));
    return op;
}

void
CriticalPathFold::onOpComplete(const TraceSpan &root,
                               const std::vector<TraceSpan> &chain)
{
    if (sampler_ != nullptr && !sampler_->sampled(root.traceId))
        return;
    const bool first = folded_.ops.empty();
    folded_.windowStart =
        first ? root.start : std::min(folded_.windowStart, root.start);
    folded_.windowEnd =
        first ? root.end : std::max(folded_.windowEnd, root.end);
    folded_.ops.push_back(breakdownOp(root, chain));
}

void
CriticalPathFold::onSpan(const TraceSpan &span)
{
    const auto k = static_cast<std::size_t>(
        std::find(std::begin(kResourceLanes), std::end(kResourceLanes),
                  std::string_view(span.lane)) -
        std::begin(kResourceLanes));
    if (k == kNumResourceLanes ||
        (sampler_ != nullptr && !sampler_->sampled(span.traceId)))
        return;
    spanWindow_ = Run{std::min(spanWindow_.start, span.start),
                      std::max(spanWindow_.end, span.end)};

    const std::size_t idx = span.node * kNumResourceLanes + k;
    if (idx >= lanes_.size())
        lanes_.resize(idx + 1);
    Lane &lane = lanes_[idx];
    assert((!lane.seen || span.start >= lane.open.start) &&
           "resource spans out of start order");
    if (lane.seen && span.start <= lane.open.end) {
        lane.open.end = std::max(lane.open.end, span.end);
        return;
    }
    // Start order: no later span can reach back into the closed run.
    if (lane.seen)
        lane.pending.push_back(lane.open);
    lane.seen = true;
    lane.open = Run{span.start, span.end};
    while (!folded_.ops.empty() && !lane.pending.empty() &&
           lane.pending.front().start >= folded_.windowStart &&
           lane.pending.front().end <= folded_.windowEnd) {
        lane.settled += lane.pending.front().end - lane.pending.front().start;
        lane.pending.pop_front();
    }
}

CriticalPathReport
CriticalPathFold::report() const
{
    CriticalPathReport report = folded_;
    if (report.ops.empty() && !lanes_.empty()) {
        report.windowStart = spanWindow_.start;
        report.windowEnd = spanWindow_.end;
    }

    // --- per-phase aggregates (ticks are ns; summaries report us) ---
    auto toUs = [](sim::Tick t) {
        return static_cast<double>(t) / static_cast<double>(sim::kMicrosecond);
    };
    std::uint64_t grand = 0;
    for (std::size_t p = 0; p < kNumPhases && !report.ops.empty(); ++p) {
        std::vector<sim::Tick> ticks;
        for (const OpBreakdown &op : report.ops)
            ticks.push_back(op.phaseTicks[p]);
        PhaseSummary &ps = report.phases[p];
        for (sim::Tick t : ticks)
            ps.totalTicks += static_cast<std::uint64_t>(t);
        grand += ps.totalTicks;
        ps.meanUs = toUs(static_cast<sim::Tick>(ps.totalTicks)) /
                    static_cast<double>(ticks.size());
        std::sort(ticks.begin(), ticks.end());
        ps.p50Us = toUs(sim::nearestRank(ticks, 50.0));
        ps.p99Us = toUs(sim::nearestRank(ticks, 99.0));
    }
    if (grand > 0) {
        for (PhaseSummary &ps : report.phases)
            ps.share = static_cast<double>(ps.totalTicks) /
                       static_cast<double>(grand);
    }

    // --- resource busy fractions over the run window ---
    // Every resource span counts, including ones from rootless traces
    // (rebuild traffic competes for the same NICs and SSDs). A lane's
    // runs are disjoint, so clamping each to the window and summing is
    // the union.
    const sim::Tick from = report.windowStart;
    const sim::Tick to = report.windowEnd;
    auto clamped = [from, to](const Run &r) {
        return std::max<sim::Tick>(std::min(r.end, to) -
                                       std::max(r.start, from),
                                   0);
    };
    for (std::size_t idx = 0; idx < lanes_.size(); ++idx) {
        const Lane &lane = lanes_[idx];
        if (!lane.seen)
            continue;
        ResourceBusy rb;
        rb.node = static_cast<sim::NodeId>(idx / kNumResourceLanes);
        rb.lane = kResourceLanes[idx % kNumResourceLanes];
        rb.busyTicks = lane.settled + clamped(lane.open);
        for (const Run &run : lane.pending)
            rb.busyTicks += clamped(run);
        rb.busyFraction = to > from ? static_cast<double>(rb.busyTicks) /
                                          static_cast<double>(to - from)
                                    : 0.0;
        report.resources.push_back(std::move(rb));
    }
    // Busiest first; ties by node, then lane.
    std::sort(report.resources.begin(), report.resources.end(),
              [](const ResourceBusy &a, const ResourceBusy &b) {
                  return std::tie(b.busyTicks, a.node, a.lane) <
                         std::tie(a.busyTicks, b.node, b.lane);
              });
    return report;
}

CriticalPathReport
analyzeCriticalPath(const std::vector<TraceSpan> &spans)
{
    // A root sees every span of its id wherever it sits in the vector,
    // and each lane's spans are folded in start order.
    std::unordered_map<std::uint64_t, std::vector<TraceSpan>> chains;
    for (const TraceSpan &s : spans) {
        if (s.traceId != 0)
            chains[s.traceId].push_back(s);
    }
    CriticalPathFold fold;
    for (const TraceSpan &s : spans) {
        if (std::string_view(s.lane) == "op")
            fold.onOpComplete(s, chains[s.traceId]);
    }
    std::vector<TraceSpan> byStart = spans;
    std::stable_sort(byStart.begin(), byStart.end(),
                     [](const TraceSpan &a, const TraceSpan &b) {
                         return a.start < b.start;
                     });
    for (const TraceSpan &s : byStart)
        fold.onSpan(s); // roots are on no resource lane
    return fold.report();
}

} // namespace draid::telemetry
