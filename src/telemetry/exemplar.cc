#include "telemetry/exemplar.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "telemetry/critical_path.h"

namespace draid::telemetry {

namespace {

using Exemplar = ExemplarReservoir::Exemplar;

/** Slowest first; equal latencies by ascending trace id. */
bool
slowerFirst(const Exemplar &a, const Exemplar &b)
{
    return std::pair(b.latency(), a.root.traceId) <
           std::pair(a.latency(), b.root.traceId);
}

/** slowerFirst() over the pointers that collect() and all() return. */
void
sortSlowestFirst(std::vector<const Exemplar *> &out)
{
    std::sort(out.begin(), out.end(),
              [](auto *a, auto *b) { return slowerFirst(*a, *b); });
}

} // namespace

ExemplarReservoir::ExemplarReservoir(sim::Tick window_ticks,
                                     std::size_t per_window,
                                     std::size_t max_windows)
    : windowTicks_(std::max<sim::Tick>(window_ticks, 1)),
      perWindow_(std::max<std::size_t>(per_window, 1)),
      maxWindows_(std::max<std::size_t>(max_windows, 1))
{
    wantsSpans_ = false;
}

bool
ExemplarReservoir::offer(const TraceSpan &root,
                         const std::vector<TraceSpan> &chain)
{
    if (!enabled() || root.traceId == 0)
        return false;
    ++offered_;
    const std::int64_t idx =
        static_cast<std::int64_t>(root.end / windowTicks_);
    Window &win = windows_[idx];

    std::size_t slot = win.slots.size();
    if (win.slots.size() >= perWindow_) {
        // Displace only a strictly faster exemplar; on a latency tie the
        // incumbent (earlier completion, smaller id) wins, so the kept
        // set is order-independent for equal-latency ops.
        slot = static_cast<std::size_t>(
            std::max_element(win.slots.begin(), win.slots.end(),
                             slowerFirst) -
            win.slots.begin());
        if (win.slots[slot].latency() >= root.end - root.start)
            return false;
        held_.erase(win.slots[slot].root.traceId);
        ++evicted_;
        win.slots[slot] = Exemplar{root, chain};
    } else {
        win.slots.push_back(Exemplar{root, chain});
    }
    held_[root.traceId] = {idx, slot};
    ++kept_;

    // Window budget: evict the oldest window whole. Keeping the newest
    // windows matches how the reservoir is consumed (the bench collects
    // the measured job's tick range, which is always the most recent).
    while (windows_.size() > maxWindows_) {
        auto oldest = windows_.begin();
        for (const Exemplar &e : oldest->second.slots) {
            held_.erase(e.root.traceId);
            ++evicted_;
        }
        windows_.erase(oldest);
        ++windowsEvicted_;
    }
    return held_.count(root.traceId) != 0;
}

bool
ExemplarReservoir::appendIfHeld(const TraceSpan &span)
{
    // held_ mirrors the live slots: displacement and window eviction
    // erase an id together with its slot.
    const auto it = held_.find(span.traceId);
    if (it == held_.end())
        return false;
    windows_.at(it->second.first).slots.at(it->second.second)
        .chain.push_back(span);
    return true;
}

std::vector<const ExemplarReservoir::Exemplar *>
ExemplarReservoir::collect(sim::Tick from, sim::Tick to) const
{
    std::vector<const Exemplar *> out;
    for (const auto &[idx, win] : windows_) {
        for (const Exemplar &e : win.slots) {
            if (e.root.end >= from && e.root.end < to)
                out.push_back(&e);
        }
    }
    sortSlowestFirst(out);
    return out;
}

std::vector<const ExemplarReservoir::Exemplar *>
ExemplarReservoir::all() const
{
    std::vector<const Exemplar *> out;
    for (const auto &[idx, win] : windows_) {
        std::vector<const Exemplar *> ordered;
        for (const Exemplar &e : win.slots)
            ordered.push_back(&e);
        sortSlowestFirst(ordered);
        out.insert(out.end(), ordered.begin(), ordered.end());
    }
    return out;
}

std::uint64_t
ExemplarReservoir::retainedBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &[idx, win] : windows_) {
        for (const Exemplar &e : win.slots)
            bytes += sizeof(Exemplar) + e.chain.size() * sizeof(TraceSpan);
    }
    return bytes;
}

void
ExemplarReservoir::clear()
{
    windows_.clear();
    held_.clear();
    offered_ = 0;
    kept_ = 0;
    evicted_ = 0;
    windowsEvicted_ = 0;
}

void
writeExemplarsJsonl(std::ostream &os, const ExemplarReservoir &res)
{
    char buf[256];
    for (const ExemplarReservoir::Exemplar *e : res.all()) {
        const TraceSpan &root = e->root;
        const OpBreakdown op = breakdownOp(root, e->chain);
        std::snprintf(buf, sizeof(buf),
                      "{\"trace\":%" PRIu64 ",\"name\":\"%s\","
                      "\"tenant_id\":%u,"
                      "\"window_start\":%" PRId64 ",\"start\":%" PRId64
                      ",\"end\":%" PRId64 ",\"latency_us\":%.3f,"
                      "\"bytes\":%" PRIu64 ",\"spans\":%zu",
                      root.traceId, root.name, root.tenant,
                      (root.end / res.windowTicks()) * res.windowTicks(),
                      root.start, root.end,
                      static_cast<double>(e->latency()) / sim::kMicrosecond,
                      root.arg("bytes"), e->chain.size());
        os << buf;
        os << ",\"phase_us\":{";
        bool first = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            const sim::Tick t = op.phaseTicks[p];
            if (t == 0)
                continue;
            if (!first)
                os << ",";
            first = false;
            std::snprintf(buf, sizeof(buf), "\"%s\":%.3f",
                          phaseName(static_cast<Phase>(p)),
                          static_cast<double>(t) / sim::kMicrosecond);
            os << buf;
        }
        os << "},\"dominant\":\"" << phaseName(op.dominant()) << "\"}\n";
    }
}

} // namespace draid::telemetry
