/**
 * @file
 * ContentionTracker: per-tenant contention attribution with an exact
 * sums-to-wait contract.
 *
 * The instrument ROADMAP item 4 (multi-tenant QoS) needs: for every op
 * that queues at a contended resource — a NIC port direction, an SSD
 * channel, a CPU core, a stripe lock — record how much of its measured
 * queue-wait overlapped each *other* tenant's occupancy of that resource.
 * Because every such resource is FIFO (`start = max(now, busyUntil)` for
 * pipes/cores; strict grant order for stripe locks), the wait interval
 * `[arrival, serviceStart)` is exactly tiled by previously recorded
 * occupancy segments, so the per-aggressor blame split *sums to the wait
 * by construction* — the same exactness contract the critical-path
 * analyzer provides for per-phase latency. Any portion not covered by a
 * known tenant's segment (occupancy from before the tracker was enabled,
 * untraced internal work, segments dropped by the memory bound) is
 * charged to the reserved "untracked" tenant so the invariant
 * totalBlameTicks() == totalWaitTicks() holds unconditionally.
 *
 * Aggregation: blame lands in a tenant×tenant×resource-kind matrix,
 * bucketed into tick windows (kBaseWindowTicks wide to start); per-tenant
 * completion stats feed a windowed SLO series with burn flags (window p99
 * above the tenant's target). Both stores are bounded and share one
 * window grid: when the observed window span exceeds kMaxWindows the
 * width doubles and both merge pairwise through sim::regroup(). Latency
 * samples per tenant and per SLO window are sim::SampleSets, so memory is
 * O(1) in run length.
 *
 * Cardinality bounds: at most kMaxTenants named tenants; registration
 * beyond that collapses into one reserved "other" tenant, so labeled
 * metrics ("tenant.<name>.ops" etc.) can never explode the registry.
 *
 * Like everything in src/telemetry/: observe-only (no Simulator access,
 * no scheduling), draw-free (no RNG — enforced by draid-lint's raw-rng
 * telemetry scope), and a pure function of the recorded event stream, so
 * the exported BENCH_interference.json row is byte-identical across
 * same-seed runs (CI double-run gate).
 */

#ifndef DRAID_TELEMETRY_INTERFERENCE_H
#define DRAID_TELEMETRY_INTERFERENCE_H

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/stats.h"
#include "sim/types.h"

namespace draid::telemetry {

class MetricsRegistry;

/** Tenant (== volume owner) dimension; 0 is reserved for "untracked". */
using TenantId = std::uint32_t;

/** Per-tenant queue-wait blame attribution at FIFO resources. */
class ContentionTracker
{
  public:
    /** Resource kinds the matrix aggregates over. */
    enum class ResourceKind : std::uint8_t
    {
        NicTx = 0,
        NicRx,
        SsdChannel,
        Cpu,
        StripeLock,
    };
    static constexpr std::size_t kNumKinds = 5;

    /** Stable display name ("nic.tx", "ssd.channel", "lock.stripe"...). */
    static const char *kindName(ResourceKind kind);

    /** Handle for one registered (node, kind) resource instance. */
    using ResourceId = std::uint32_t;

    /** Reserved tenant ids. */
    static constexpr TenantId kUntracked = 0;

    /** Cardinality bounds (see file header). */
    static constexpr std::size_t kMaxTenants = 16;
    static constexpr std::size_t kMaxWindows = 256;
    /** Per-(resource, key) occupancy-segment bound; the oldest segment is
     *  dropped first and its coverage degrades to "untracked" blame. */
    static constexpr std::size_t kMaxSegmentsPerKey = 4096;
    /** Retained latency samples per SLO window / per tenant overall. */
    static constexpr std::size_t kWindowSampleCap = 64;
    static constexpr std::size_t kTenantSampleCap = 4096;
    /** Bound on concurrently tracked trace->tenant bindings. */
    static constexpr std::size_t kMaxLiveOps = 65536;

    /** Window width before any merge-doubling. */
    static constexpr sim::Tick kBaseWindowTicks = sim::kMillisecond;

    /** Ships disabled; every hook is one predictable branch while off. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Current aggregation window width. */
    sim::Tick windowTicks() const { return windowTicks_; }
    /** Times the window width doubled to stay under kMaxWindows. */
    std::uint64_t windowMerges() const { return windowMerges_; }

    /** Optional registry for bounded per-tenant labeled metrics
     *  (tenant.<name>.{ops,bytes,wait_blamed_us}). */
    void bindMetrics(MetricsRegistry *metrics) { metrics_ = metrics; }

    // --- tenant registry (bounded cardinality) ---

    /**
     * Register a tenant and return its id. At most kMaxTenants named
     * tenants; further registrations all map to one reserved "other"
     * tenant, so total cardinality is bounded at kMaxTenants + 2
     * (untracked + named + other).
     */
    TenantId registerTenant(std::string name);

    /** Registered tenants including reserved ids ("untracked", "other"). */
    std::size_t tenantCount() const { return tenants_.size(); }
    const std::string &tenantName(TenantId tenant) const;

    /** Per-tenant SLO target for the windowed burn flags (0 = no SLO). */
    void setSloTargetTicks(TenantId tenant, sim::Tick p99);

    // --- op binding (issue-site context -> trace id) ---

    /**
     * Workload-generator context: ops minted while @p tenant is current
     * bind to it. Safe as plain state because issuance and minting run
     * synchronously on the single-threaded event loop.
     */
    void setCurrentTenant(TenantId tenant) { current_ = tenant; }
    TenantId currentTenant() const { return current_; }

    /** Bind @p trace to the current tenant (entry-point mint sites). */
    void noteOpStart(std::uint64_t trace) { noteOpStart(trace, current_); }
    void noteOpStart(std::uint64_t trace, TenantId tenant);

    /** Tenant bound to @p trace; kUntracked when unknown. */
    TenantId tenantOf(std::uint64_t trace) const;

    /**
     * Op completion: feeds the tenant's SLO window (end tick decides the
     * window), bumps labeled metrics, and releases the trace binding.
     */
    void noteOpComplete(std::uint64_t trace, sim::Tick end,
                        sim::Tick latency, std::uint64_t bytes);

    // --- resource registry + occupancy/blame recording ---

    ResourceId registerResource(sim::NodeId node, ResourceKind kind);
    std::size_t resourceCount() const { return resources_.size(); }

    /**
     * Record that @p trace occupied resource @p res over [start, end).
     * @p key sub-divides keyed resources (stripe id for lock tables);
     * FIFO order must hold per key. Pipes/cores use key 0.
     */
    void noteOccupancy(ResourceId res, std::uint64_t trace, sim::Tick start,
                       sim::Tick end, std::uint64_t key = 0);

    /** Open-ended occupancy (lock hold begins at grant time)... */
    void openOccupancy(ResourceId res, std::uint64_t trace, sim::Tick start,
                       std::uint64_t key = 0);
    /** ...closed at release. Must precede granting the next waiter. */
    void closeOccupancy(ResourceId res, sim::Tick end, std::uint64_t key = 0);

    /**
     * Attribute the queue-wait [arrival, serviceStart) of @p trace on
     * @p res: every overlap with a recorded occupancy segment becomes
     * blame against that segment's tenant; the uncovered residual is
     * blamed on "untracked". No-op when serviceStart <= arrival (no
     * wait) or @p trace is 0. Call before noteOccupancy for the same op.
     * Per key, calls must arrive in non-decreasing @p arrival order
     * (FIFO service order guarantees this).
     */
    void attributeWait(ResourceId res, std::uint64_t trace,
                       sim::Tick arrival, sim::Tick serviceStart,
                       std::uint64_t key = 0);

    // --- the sums-to-wait contract ---

    /** Total queue-wait ever attributed (ticks). */
    sim::Tick totalWaitTicks() const { return totalWait_; }
    /** Total blame ever assigned (ticks); == totalWaitTicks() always. */
    sim::Tick totalBlameTicks() const { return totalBlame_; }
    /** Waiting ops attributed. */
    std::uint64_t waitedOps() const { return waitedOps_; }
    /** Occupancy segments dropped by the per-key bound. */
    std::uint64_t droppedSegments() const { return droppedSegments_; }

    // --- queries (tests + heatmap) ---

    /** Blame @p victim accumulated against @p aggressor on @p kind. */
    sim::Tick blameTicks(TenantId victim, TenantId aggressor,
                         ResourceKind kind) const;
    /** As above, summed over every resource kind. */
    sim::Tick blameTicks(TenantId victim, TenantId aggressor) const;

    /** The aggressor with the most blame against @p victim on @p kind
     *  (kUntracked when the victim never waited there). */
    TenantId dominantAggressor(TenantId victim, ResourceKind kind) const;

    /** Windows in which @p tenant completed at least one op. */
    std::uint64_t activeWindows(TenantId tenant) const;
    /** Active windows whose p99 exceeded the tenant's SLO target
     *  (always 0 without a target). */
    std::uint64_t burnWindows(TenantId tenant) const;

    /**
     * Reset accumulated accounting (matrix, SLO windows, occupancy
     * segments, totals) while keeping tenants, resources, SLO targets and
     * the enable state — the harness calls this between warm-up and the
     * measured run so the exported row covers exactly one job.
     */
    void resetAccounting();

    /** Approximate heap bytes retained (size-based, deterministic). */
    std::uint64_t retainedBytes() const;

    // --- export ---

    /**
     * One self-contained JSON object on a single line (JSONL row for
     * BENCH_interference.json): tenant table, matrix cells with exact
     * blame_ns + per-window splits, per-tenant SLO series with burn
     * flags, per-resource totals, and the wait/blame invariant fields.
     */
    void writeJsonRow(std::ostream &os, const std::string &label,
                      std::uint64_t seed) const;

    /**
     * Victim×aggressor ASCII heatmap (blame summed over resources),
     * with per-victim dominant resource annotations.
     */
    void renderAsciiHeatmap(std::ostream &os) const;

  private:
    /** One recorded occupancy interval. kOpenEnd marks a held lock. */
    static constexpr sim::Tick kOpenEnd =
        std::numeric_limits<sim::Tick>::max();
    struct Segment
    {
        sim::Tick start = 0;
        sim::Tick end = 0;
        TenantId tenant = kUntracked;
    };

    struct Resource
    {
        sim::NodeId node = 0;
        ResourceKind kind = ResourceKind::NicTx;
        sim::Tick waitTicks = 0;
        std::uint64_t waitedOps = 0;
        /** key (0 for pipes/cores; stripe for locks) -> FIFO segments. */
        // draid-lint: cap(kMaxSegmentsPerKey per key; keys bounded by live stripes)
        std::map<std::uint64_t, std::deque<Segment>> segs;
    };

    /** One matrix cell: lifetime total + per-window split. */
    struct Cell
    {
        sim::Tick total = 0;
        // draid-lint: cap(kMaxWindows; width doubles on overflow)
        std::map<std::int64_t, sim::Tick> byWindow;
    };

    /** Completion stats; lat.seen() is the exact op count. */
    struct SloWindow
    {
        std::uint64_t bytes = 0;
        sim::Tick latencySum = 0;
        sim::SampleSet lat{kWindowSampleCap};
    };

    struct Tenant
    {
        std::string name;
        sim::Tick sloTarget = 0; ///< p99 target in ticks; 0 = none
        std::uint64_t bytes = 0;
        sim::Tick latencySum = 0;
        sim::SampleSet lat{kTenantSampleCap};
        // draid-lint: cap(kMaxWindows; width doubles on overflow)
        std::map<std::int64_t, SloWindow> windows;
    };

    std::int64_t windowOf(sim::Tick tick) const
    {
        return static_cast<std::int64_t>(tick / windowTicks_);
    }
    void addBlame(TenantId victim, TenantId aggressor, ResourceKind kind,
                  std::int64_t window, sim::Tick ticks);
    void touchWindow(std::int64_t window);
    /** Double the window width and merge retained windows pairwise until
     *  the observed span fits kMaxWindows again. */
    void widenWindows();

    bool enabled_ = false;
    sim::Tick windowTicks_ = kBaseWindowTicks;
    std::uint64_t windowMerges_ = 0;
    std::int64_t minWindow_ = 0;
    std::int64_t maxWindow_ = -1; ///< < minWindow_ means none observed
    MetricsRegistry *metrics_ = nullptr;

    /** Index is the tenant id; [0] is "untracked". */
    // draid-lint: cap(kMaxTenants + 2)
    std::vector<Tenant> tenants_;
    TenantId overflowTenant_ = 0; ///< lazily created "other" id
    TenantId current_ = kUntracked;

    // draid-lint: cap(kMaxLiveOps; oldest evicted)
    std::map<std::uint64_t, TenantId> liveOps_;
    // draid-lint: cap(one entry per registered resource; fixed topology)
    std::vector<Resource> resources_;
    // draid-lint: cap((kMaxTenants + 2)^2 x resource kinds)
    std::map<std::tuple<TenantId, TenantId, std::uint8_t>, Cell> matrix_;

    sim::Tick totalWait_ = 0;
    sim::Tick totalBlame_ = 0;
    std::uint64_t waitedOps_ = 0;
    std::uint64_t droppedSegments_ = 0;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_INTERFERENCE_H
