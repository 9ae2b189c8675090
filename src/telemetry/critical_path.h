/**
 * @file
 * Critical-path analyzer: turns the span stream of a run into an exact
 * per-op latency breakdown and a per-run bottleneck verdict.
 *
 * For every completed user op (a root span on the "op" lane) the analyzer
 * partitions the op's latency window across phases — queueing, NIC
 * serialization, fabric propagation, server/host CPU, SSD channel, parity
 * reduce, stripe-lock wait — by sweeping the elementary intervals between
 * span boundaries and charging each to the highest-priority phase covering
 * it. The partition is exact by construction: the phase ticks of one op sum
 * to its measured latency, with no double counting even when spans overlap
 * (an SSD read under an in-flight NIC transfer counts once, as SSD).
 *
 * It also computes each op's longest *resource chain* — the maximum total
 * time of any non-overlapping subset of its resource spans (weighted
 * interval scheduling) — a lower bound on how fast the op could finish if
 * all queueing vanished, and, across the run, the per-(node, resource) busy
 * fraction over the run window, whose maximum is the bottleneck verdict:
 * the resource that bounds throughput. CriticalPathFold does all of this
 * as spans arrive, so no span store is needed; it never touches the
 * simulator.
 */

#ifndef DRAID_TELEMETRY_CRITICAL_PATH_H
#define DRAID_TELEMETRY_CRITICAL_PATH_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.h"
#include "telemetry/trace.h"

namespace draid::telemetry {

/**
 * Latency phases, in partition priority order (later entries win an
 * overlapping elementary interval; kQueue is the uncovered remainder).
 */
enum class Phase : std::uint8_t
{
    kQueue = 0,   ///< no recorded activity: host queues, waitNum barriers
    kLockWait,    ///< stripe-lock wait behind another writer
    kFabric,      ///< wire + switch propagation
    kNic,         ///< NIC tx/rx serialization
    kCpu,         ///< host/server command handling
    kReduce,      ///< parity/reconstruction XOR-GF reduce
    kSsd,         ///< SSD channel occupancy
};

inline constexpr std::size_t kNumPhases = 7;

/** Short stable name: "queue", "lock", "fabric", "nic", "cpu", ... */
const char *phaseName(Phase p);

/** Exact latency partition of one completed op. */
struct OpBreakdown
{
    std::uint64_t traceId = 0;
    std::string name; ///< root span name, e.g. "draid.write"
    sim::Tick start = 0;
    sim::Tick end = 0;

    /** Ticks charged to each phase; sums exactly to latency(). */
    std::array<sim::Tick, kNumPhases> phaseTicks{};

    /**
     * Longest resource chain: max total duration over non-overlapping
     * subsets of this op's resource spans. latency() - chainTicks is an
     * upper bound on what eliminating all waiting could save.
     */
    sim::Tick chainTicks = 0;

    sim::Tick latency() const { return end - start; }
    sim::Tick phase(Phase p) const
    {
        return phaseTicks[static_cast<std::size_t>(p)];
    }

    /** The phase with the most ticks; ties go to the lower phase. */
    Phase
    dominant() const
    {
        return static_cast<Phase>(
            std::max_element(phaseTicks.begin(), phaseTicks.end()) -
            phaseTicks.begin());
    }
};

/** Aggregate of one phase across every analyzed op. */
struct PhaseSummary
{
    std::uint64_t totalTicks = 0;
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** totalTicks / sum of all phases' totalTicks (share of latency). */
    double share = 0.0;
};

/** Busy time of one (node, resource-lane) over the run window. */
struct ResourceBusy
{
    sim::NodeId node = 0;
    std::string lane; ///< "nic.tx", "nic.rx", "cpu", "ssd"
    sim::Tick busyTicks = 0;
    double busyFraction = 0.0; ///< of the run window
};

/** Everything the analyzer derives from one run's span stream. */
struct CriticalPathReport
{
    // draid-lint: cap(one breakdown per root; the fold resets per job)
    std::vector<OpBreakdown> ops; ///< completion (root-end) order
    std::array<PhaseSummary, kNumPhases> phases{};

    /** Run window: [earliest root start, latest root end]. */
    sim::Tick windowStart = 0;
    sim::Tick windowEnd = 0;

    /** Per-resource busy, sorted by descending busy fraction. */
    // draid-lint: cap(one row per resource lane; fixed topology)
    std::vector<ResourceBusy> resources;

    bool hasVerdict() const { return !resources.empty(); }
    /** The bottleneck: the busiest resource. @pre hasVerdict() */
    const ResourceBusy &bottleneck() const { return resources.front(); }

    const PhaseSummary &phase(Phase p) const
    {
        return phases[static_cast<std::size_t>(p)];
    }
};

/** Exact breakdown of @p root's window across the phases of the spans
 *  in @p chain (which may include @p root itself). */
OpBreakdown breakdownOp(const TraceSpan &root,
                        const std::vector<TraceSpan> &chain);

/**
 * The analyzer as a span sink: each completed op is broken down from its
 * chain at completion, and each resource span merges into its
 * (node, lane)'s busy runs. Such a lane is one FIFO resource that records
 * a span when it commits work, so its spans arrive in start order. A
 * closed run inside the window seen so far (earliest root start to latest
 * root end) joins a running total, since the window only grows and
 * clamping can no longer change it; report() clamps the rest.
 */
class CriticalPathFold : public SpanSink
{
  public:
    /** Fold only the ids @p sampler keeps (Tracer::sampled(), the set the
     *  Chrome export retains); nullptr folds every id. */
    explicit CriticalPathFold(const Tracer *sampler = nullptr)
        : sampler_(sampler)
    {
        wantsChains_ = true;
    }

    void onSpan(const TraceSpan &span) override;
    void onOpComplete(const TraceSpan &root,
                      const std::vector<TraceSpan> &chain) override;

    /** Everything folded since construction or reset(). Rootless spans
     *  (rebuild stripes, orphaned ids) count toward resource busy only. */
    CriticalPathReport report() const;
    void reset() { *this = CriticalPathFold(sampler_); }

  private:
    struct Run
    {
        sim::Tick start = 0;
        sim::Tick end = 0;
    };
    struct Lane
    {
        bool seen = false;
        Run open; ///< the run later spans may still extend
        /** Closed runs not yet inside the window, oldest first. */
        // draid-lint: cap(runs in flight past the latest root end)
        std::deque<Run> pending;
        sim::Tick settled = 0; ///< busy ticks of runs inside the window
    };

    const Tracer *sampler_;
    CriticalPathReport folded_; ///< the ops and their window so far
    /** The window when no root was folded (empty until a span is). */
    Run spanWindow_{std::numeric_limits<sim::Tick>::max(),
                    std::numeric_limits<sim::Tick>::min()};
    // draid-lint: cap(four resource lanes per node; fixed topology)
    std::vector<Lane> lanes_; ///< index node * 4 + resource lane
};

/** Replay a span vector (tests) through a CriticalPathFold. */
CriticalPathReport analyzeCriticalPath(const std::vector<TraceSpan> &spans);

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_CRITICAL_PATH_H
