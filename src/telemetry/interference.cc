#include "telemetry/interference.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "telemetry/metrics.h"

namespace draid::telemetry {

namespace {

/** Fixed-precision double — deterministic formatting for the byte gate. */
void
putF(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    os << buf;
}

double
ticksToUs(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kMicrosecond);
}

} // namespace

const char *
ContentionTracker::kindName(ResourceKind kind)
{
    switch (kind) {
    case ResourceKind::NicTx: return "nic.tx";
    case ResourceKind::NicRx: return "nic.rx";
    case ResourceKind::SsdChannel: return "ssd.channel";
    case ResourceKind::Cpu: return "cpu";
    case ResourceKind::StripeLock: return "lock.stripe";
    }
    return "?";
}

void
ContentionTracker::setWindowTicks(sim::Tick ticks)
{
    assert(ticks > 0);
    windowTicks_ = ticks;
    baseWindowTicks_ = ticks;
}

TenantId
ContentionTracker::registerTenant(std::string name)
{
    if (tenants_.empty()) {
        Tenant untracked;
        untracked.name = "untracked";
        tenants_.push_back(std::move(untracked));
    }
    if (tenants_.size() <= kMaxTenants) {
        Tenant named;
        named.name = std::move(name);
        tenants_.push_back(std::move(named));
        return static_cast<TenantId>(tenants_.size() - 1);
    }
    // Cardinality bound hit: collapse into the reserved "other" tenant.
    if (overflowTenant_ == 0) {
        Tenant other;
        other.name = "other";
        tenants_.push_back(std::move(other));
        overflowTenant_ = static_cast<TenantId>(tenants_.size() - 1);
    }
    return overflowTenant_;
}

const std::string &
ContentionTracker::tenantName(TenantId tenant) const
{
    static const std::string kUntrackedName = "untracked";
    if (tenant >= tenants_.size())
        return kUntrackedName;
    return tenants_[tenant].name;
}

void
ContentionTracker::setSloTargetTicks(TenantId tenant, sim::Tick p99)
{
    if (tenant < tenants_.size())
        tenants_[tenant].sloTarget = p99;
}

void
ContentionTracker::noteOpStart(std::uint64_t trace, TenantId tenant)
{
    if (!enabled_ || trace == 0 || tenant == kUntracked)
        return;
    if (liveOps_.size() >= kMaxLiveOps)
        liveOps_.erase(liveOps_.begin());
    liveOps_[trace] = tenant;
}

TenantId
ContentionTracker::tenantOf(std::uint64_t trace) const
{
    if (trace == 0)
        return kUntracked;
    const auto it = liveOps_.find(trace);
    return it == liveOps_.end() ? kUntracked : it->second;
}

void
ContentionTracker::noteOpComplete(std::uint64_t trace, sim::Tick end,
                                  sim::Tick latency, std::uint64_t bytes)
{
    if (!enabled_)
        return;
    const TenantId tenant = tenantOf(trace);
    liveOps_.erase(trace);
    if (tenant >= tenants_.size())
        return;

    Tenant &t = tenants_[tenant];
    t.ops += 1;
    t.bytes += bytes;
    t.latencySum += latency;
    t.lat.cap = kTenantSampleCap;
    t.lat.push(latency);

    const std::int64_t w = windowOf(end);
    touchWindow(w);
    SloWindow &win = t.windows[w];
    win.ops += 1;
    win.bytes += bytes;
    win.latencySum += latency;
    win.lat.push(latency);
    widenWindows();

    if (metrics_ != nullptr && tenant != kUntracked) {
        const std::string prefix = "tenant." + t.name;
        metrics_->counter(prefix + ".ops").inc();
        metrics_->counter(prefix + ".bytes").inc(bytes);
        metrics_->histogram(prefix + ".latency_us", latencyBucketsUs())
            .observe(ticksToUs(latency));
    }
}

ContentionTracker::ResourceId
ContentionTracker::registerResource(sim::NodeId node, ResourceKind kind)
{
    Resource r;
    r.node = node;
    r.kind = kind;
    resources_.push_back(std::move(r));
    return static_cast<ResourceId>(resources_.size() - 1);
}

void
ContentionTracker::noteOccupancy(ResourceId res, std::uint64_t trace,
                                 sim::Tick start, sim::Tick end,
                                 std::uint64_t key)
{
    if (!enabled_ || end <= start)
        return;
    const TenantId tenant = tenantOf(trace);
    auto &dq = resources_.at(res).segs[key];
    // Merge back-to-back occupancy by the same tenant (a saturating
    // aggressor otherwise costs one segment per transfer).
    if (!dq.empty() && dq.back().end == start && dq.back().tenant == tenant) {
        dq.back().end = end;
        return;
    }
    dq.push_back(Segment{.start = start, .end = end, .tenant = tenant});
    while (dq.size() > kMaxSegmentsPerKey) {
        dq.pop_front();
        ++droppedSegments_;
    }
}

void
ContentionTracker::openOccupancy(ResourceId res, std::uint64_t trace,
                                 sim::Tick start, std::uint64_t key)
{
    if (!enabled_)
        return;
    auto &dq = resources_.at(res).segs[key];
    dq.push_back(Segment{.start = start,
                         .end = kOpenEnd,
                         .tenant = tenantOf(trace)});
    while (dq.size() > kMaxSegmentsPerKey) {
        dq.pop_front();
        ++droppedSegments_;
    }
}

void
ContentionTracker::closeOccupancy(ResourceId res, sim::Tick end,
                                  std::uint64_t key)
{
    if (!enabled_)
        return;
    auto &dq = resources_.at(res).segs[key];
    // Exclusive resources hold at most one open segment, always newest.
    for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
        if (it->end == kOpenEnd) {
            it->end = end;
            return;
        }
    }
}

void
ContentionTracker::attributeWait(ResourceId res, std::uint64_t trace,
                                 sim::Tick arrival, sim::Tick serviceStart,
                                 std::uint64_t key)
{
    if (!enabled_ || trace == 0 || serviceStart <= arrival)
        return;
    Resource &r = resources_.at(res);
    const TenantId victim = tenantOf(trace);
    const sim::Tick wait = serviceStart - arrival;
    const std::int64_t w = windowOf(arrival);

    r.waitTicks += wait;
    r.waitedOps += 1;
    totalWait_ += wait;
    waitedOps_ += 1;

    auto &dq = r.segs[key];
    // Per-key arrivals are non-decreasing (FIFO service), so segments
    // wholly before this arrival can never be blamed again.
    while (!dq.empty() && dq.front().end != kOpenEnd &&
           dq.front().end <= arrival)
        dq.pop_front();

    sim::Tick covered = 0;
    for (const Segment &s : dq) {
        if (s.start >= serviceStart)
            break;
        const sim::Tick lo = std::max(s.start, arrival);
        const sim::Tick hi =
            std::min(s.end == kOpenEnd ? serviceStart : s.end, serviceStart);
        if (hi > lo) {
            addBlame(victim, s.tenant, r.kind, w, hi - lo);
            covered += hi - lo;
        }
    }
    // FIFO tiling makes covered == wait whenever every occupant was
    // recorded; anything else (pre-enable occupancy, dropped segments,
    // untraced work) degrades to "untracked" so the invariant holds.
    if (covered < wait)
        addBlame(victim, kUntracked, r.kind, w, wait - covered);
    widenWindows();
}

void
ContentionTracker::addBlame(TenantId victim, TenantId aggressor,
                            ResourceKind kind, std::int64_t window,
                            sim::Tick ticks)
{
    Cell &cell = matrix_[{victim, aggressor,
                          static_cast<std::uint8_t>(kind)}];
    cell.total += ticks;
    cell.byWindow[window] += ticks;
    totalBlame_ += ticks;
    touchWindow(window);
}

void
ContentionTracker::touchWindow(std::int64_t window)
{
    if (maxWindow_ < minWindow_) {
        minWindow_ = window;
        maxWindow_ = window;
        return;
    }
    minWindow_ = std::min(minWindow_, window);
    maxWindow_ = std::max(maxWindow_, window);
}

void
ContentionTracker::widenWindows()
{
    while (maxWindow_ >= minWindow_ &&
           maxWindow_ - minWindow_ + 1 >
               static_cast<std::int64_t>(kMaxWindows)) {
        windowTicks_ *= 2;
        ++windowMerges_;
        for (auto &[key, cell] : matrix_) {
            std::map<std::int64_t, sim::Tick> merged;
            for (const auto &[w, t] : cell.byWindow)
                merged[w / 2] += t;
            cell.byWindow = std::move(merged);
        }
        for (Tenant &t : tenants_) {
            std::map<std::int64_t, SloWindow> merged;
            for (auto &[w, win] : t.windows) {
                SloWindow &dst = merged[w / 2];
                dst.ops += win.ops;
                dst.bytes += win.bytes;
                dst.latencySum += win.latencySum;
                dst.lat.mergeFrom(win.lat);
            }
            t.windows = std::move(merged);
        }
        minWindow_ /= 2;
        maxWindow_ /= 2;
    }
}

sim::Tick
ContentionTracker::blameTicks(TenantId victim, TenantId aggressor,
                              ResourceKind kind) const
{
    const auto it = matrix_.find({victim, aggressor,
                                  static_cast<std::uint8_t>(kind)});
    return it == matrix_.end() ? 0 : it->second.total;
}

sim::Tick
ContentionTracker::blameTicks(TenantId victim, TenantId aggressor) const
{
    sim::Tick total = 0;
    for (const auto &[key, cell] : matrix_)
        if (std::get<0>(key) == victim && std::get<1>(key) == aggressor)
            total += cell.total;
    return total;
}

TenantId
ContentionTracker::dominantAggressor(TenantId victim,
                                     ResourceKind kind) const
{
    TenantId best = kUntracked;
    sim::Tick bestTicks = 0;
    for (const auto &[key, cell] : matrix_) {
        if (std::get<0>(key) != victim ||
            std::get<2>(key) != static_cast<std::uint8_t>(kind))
            continue;
        if (cell.total > bestTicks) {
            bestTicks = cell.total;
            best = std::get<1>(key);
        }
    }
    return best;
}

void
ContentionTracker::resetAccounting()
{
    matrix_.clear();
    liveOps_.clear();
    for (Resource &r : resources_) {
        r.segs.clear();
        r.waitTicks = 0;
        r.waitedOps = 0;
    }
    for (Tenant &t : tenants_) {
        t.ops = 0;
        t.bytes = 0;
        t.latencySum = 0;
        t.lat = SampleSet{};
        t.windows.clear();
    }
    windowTicks_ = baseWindowTicks_;
    windowMerges_ = 0;
    minWindow_ = 0;
    maxWindow_ = -1;
    totalWait_ = 0;
    totalBlame_ = 0;
    waitedOps_ = 0;
    droppedSegments_ = 0;
}

std::uint64_t
ContentionTracker::retainedBytes() const
{
    std::uint64_t bytes = 0;
    bytes += liveOps_.size() * 48;
    for (const Resource &r : resources_)
        for (const auto &[key, dq] : r.segs)
            bytes += 64 + dq.size() * sizeof(Segment);
    for (const auto &[key, cell] : matrix_)
        bytes += 96 + cell.byWindow.size() * 48;
    for (const Tenant &t : tenants_) {
        bytes += 128 + t.lat.samples.capacity() * sizeof(sim::Tick);
        for (const auto &[w, win] : t.windows)
            bytes += 128 + win.lat.samples.capacity() * sizeof(sim::Tick);
    }
    return bytes;
}

// --- SampleSet ---

void
ContentionTracker::SampleSet::push(sim::Tick latency)
{
    // Stride decimation: keep 1-in-stride arrivals; on overflow drop every
    // 2nd retained sample and double the stride, so coverage stays
    // end-to-end at reduced resolution (the timeline aggregator's trick).
    if (seq++ % stride == 0) {
        samples.push_back(latency);
        if (samples.size() > cap) {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < samples.size(); i += 2)
                samples[kept++] = samples[i];
            samples.resize(kept);
            stride *= 2;
        }
    }
}

void
ContentionTracker::SampleSet::mergeFrom(const SampleSet &other)
{
    cap = std::max(cap, other.cap);
    stride = std::max(stride, other.stride);
    seq += other.seq;
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    while (samples.size() > cap) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < samples.size(); i += 2)
            samples[kept++] = samples[i];
        samples.resize(kept);
        stride *= 2;
    }
}

sim::Tick
ContentionTracker::SampleSet::percentile(double p) const
{
    if (samples.empty())
        return 0;
    std::vector<sim::Tick> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank.
    const double rank = p / 100.0 * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank)
        ++idx;
    if (idx > 0)
        --idx;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

std::uint64_t
ContentionTracker::activeWindows(TenantId tenant) const
{
    if (tenant >= tenants_.size())
        return 0;
    std::uint64_t active = 0;
    for (const auto &[w, win] : tenants_[tenant].windows)
        if (win.ops > 0)
            ++active;
    return active;
}

std::uint64_t
ContentionTracker::burnWindows(TenantId tenant) const
{
    if (tenant >= tenants_.size())
        return 0;
    const Tenant &t = tenants_[tenant];
    if (t.sloTarget <= 0)
        return 0;
    std::uint64_t burning = 0;
    for (const auto &[w, win] : t.windows)
        if (win.ops > 0 && win.lat.percentile(99.0) > t.sloTarget)
            ++burning;
    return burning;
}

// --- export ---

void
ContentionTracker::writeJsonRow(std::ostream &os, const std::string &label,
                                std::uint64_t seed) const
{
    os << "{\"label\":";
    writeJsonString(os, label);
    os << ",\"seed\":" << seed << ",\"window_us\":";
    putF(os, ticksToUs(windowTicks_));
    os << ",\"window_merges\":" << windowMerges_
       << ",\"waited_ops\":" << waitedOps_
       << ",\"wait_ns_total\":" << totalWait_
       << ",\"blame_ns_total\":" << totalBlame_
       << ",\"dropped_segments\":" << droppedSegments_;

    os << ",\"tenants\":[";
    bool first = true;
    for (std::size_t id = 0; id < tenants_.size(); ++id) {
        const Tenant &t = tenants_[id];
        if (!first)
            os << ",";
        first = false;
        os << "{\"id\":" << id << ",\"name\":";
        writeJsonString(os, t.name);
        os << ",\"slo_target_us\":";
        putF(os, ticksToUs(t.sloTarget));
        os << "}";
    }
    os << "]";

    os << ",\"matrix\":[";
    first = true;
    for (const auto &[key, cell] : matrix_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"victim\":";
        writeJsonString(os, tenantName(std::get<0>(key)));
        os << ",\"aggressor\":";
        writeJsonString(os, tenantName(std::get<1>(key)));
        os << ",\"resource\":\""
           << kindName(static_cast<ResourceKind>(std::get<2>(key)))
           << "\",\"blame_ns\":" << cell.total << ",\"windows\":[";
        bool wfirst = true;
        for (const auto &[w, t] : cell.byWindow) {
            if (!wfirst)
                os << ",";
            wfirst = false;
            os << "[" << w << "," << t << "]";
        }
        os << "]}";
    }
    os << "]";

    os << ",\"slo\":[";
    first = true;
    for (std::size_t id = 0; id < tenants_.size(); ++id) {
        const Tenant &t = tenants_[id];
        if (t.ops == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        std::uint64_t active = 0;
        std::uint64_t burning = 0;
        for (const auto &[w, win] : t.windows) {
            if (win.ops == 0)
                continue;
            ++active;
            if (t.sloTarget > 0 && win.lat.percentile(99.0) > t.sloTarget)
                ++burning;
        }
        os << "{\"tenant\":";
        writeJsonString(os, t.name);
        os << ",\"target_p99_us\":";
        putF(os, ticksToUs(t.sloTarget));
        os << ",\"ops\":" << t.ops << ",\"bytes\":" << t.bytes
           << ",\"mean_us\":";
        putF(os, t.ops == 0
                     ? 0.0
                     : ticksToUs(t.latencySum) /
                           static_cast<double>(t.ops));
        os << ",\"p50_us\":";
        putF(os, ticksToUs(t.lat.percentile(50.0)));
        os << ",\"p99_us\":";
        putF(os, ticksToUs(t.lat.percentile(99.0)));
        os << ",\"active_windows\":" << active
           << ",\"burn_windows\":" << burning << ",\"burn_rate\":";
        putF(os, active == 0 ? 0.0
                             : static_cast<double>(burning) /
                                   static_cast<double>(active));
        os << ",\"windows\":[";
        bool wfirst = true;
        for (const auto &[w, win] : t.windows) {
            if (win.ops == 0)
                continue;
            if (!wfirst)
                os << ",";
            wfirst = false;
            const sim::Tick p99 = win.lat.percentile(99.0);
            const bool burn = t.sloTarget > 0 && p99 > t.sloTarget;
            os << "[" << w << "," << win.ops << ",";
            putF(os, ticksToUs(p99));
            os << "," << (burn ? 1 : 0) << "]";
        }
        os << "]}";
    }
    os << "]";

    os << ",\"resources\":[";
    first = true;
    for (const Resource &r : resources_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"node\":" << r.node << ",\"resource\":\""
           << kindName(r.kind) << "\",\"waited_ops\":" << r.waitedOps
           << ",\"wait_ns\":" << r.waitTicks << "}";
    }
    os << "]}";
}

void
ContentionTracker::renderAsciiHeatmap(std::ostream &os) const
{
    // Victims/aggressors that appear in any matrix cell, ascending id.
    std::vector<TenantId> ids;
    for (std::size_t id = 0; id < tenants_.size(); ++id) {
        bool used = false;
        for (const auto &[key, cell] : matrix_)
            if (std::get<0>(key) == id || std::get<1>(key) == id) {
                used = true;
                break;
            }
        if (used)
            ids.push_back(static_cast<TenantId>(id));
    }
    os << "interference heatmap (victim rows x aggressor cols, blame ms)\n";
    if (ids.empty()) {
        os << "  (no queue-wait attributed)\n";
        return;
    }

    sim::Tick maxCell = 0;
    for (const TenantId v : ids)
        for (const TenantId a : ids)
            maxCell = std::max(maxCell, blameTicks(v, a));

    char buf[64];
    os << "  " << std::string(12, ' ');
    for (const TenantId a : ids) {
        std::snprintf(buf, sizeof buf, " %10.10s",
                      tenantName(a).c_str());
        os << buf;
    }
    os << "\n";
    const char shades[] = " .:=*#@";
    for (const TenantId v : ids) {
        std::snprintf(buf, sizeof buf, "  %-12.12s",
                      tenantName(v).c_str());
        os << buf;
        std::string bar;
        for (const TenantId a : ids) {
            const sim::Tick t = blameTicks(v, a);
            std::snprintf(buf, sizeof buf, " %10.2f",
                          static_cast<double>(t) /
                              static_cast<double>(sim::kMillisecond));
            os << buf;
            const std::size_t level =
                maxCell == 0
                    ? 0
                    : static_cast<std::size_t>(
                          static_cast<double>(t) /
                          static_cast<double>(maxCell) * 6.0);
            bar += shades[std::min<std::size_t>(level, 6)];
        }
        os << "  |" << bar << "|";
        // Dominant aggressor + resource annotation for this victim.
        TenantId bestA = kUntracked;
        ResourceKind bestK = ResourceKind::NicTx;
        sim::Tick bestT = 0;
        for (const auto &[key, cell] : matrix_) {
            if (std::get<0>(key) != v)
                continue;
            if (cell.total > bestT) {
                bestT = cell.total;
                bestA = std::get<1>(key);
                bestK = static_cast<ResourceKind>(std::get<2>(key));
            }
        }
        if (bestT > 0)
            os << "  worst: " << tenantName(bestA) << " on "
               << kindName(bestK);
        os << "\n";
    }
}

} // namespace draid::telemetry
