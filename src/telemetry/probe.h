/**
 * @file
 * Probe: how one component reports to telemetry.
 *
 * A probe is a small copyable value — the cluster's Telemetry bundle plus
 * the node the component reports as — and the only telemetry handle a
 * component keeps. Spans, op completions, journal events and contention
 * attribution all go through it, so the gating (trace id nonzero, tracer
 * active, tracker enabled) and the span format live in one place instead
 * of at every recording site.
 *
 * A default-constructed probe is dark: it mints no ids and records
 * nothing. Like the sinks behind it, a probe is observe-only and never
 * touches the Simulator.
 */

#ifndef DRAID_TELEMETRY_PROBE_H
#define DRAID_TELEMETRY_PROBE_H

#include <cstdint>

#include "sim/types.h"
#include "telemetry/event_journal.h"
#include "telemetry/span.h"

namespace draid::telemetry {

class ContentionTracker;
class Histogram;
class Telemetry;

/** A component's handle on the telemetry bundle. */
class Probe
{
  public:
    /** A dark probe. */
    Probe() = default;
    Probe(Telemetry &telemetry, sim::NodeId node)
        : telemetry_(&telemetry), node_(node)
    {
    }

    /** The same sinks, reporting as node @p node. */
    Probe
    at(sim::NodeId node) const
    {
        Probe p = *this;
        p.node_ = node;
        return p;
    }

    bool attached() const { return telemetry_ != nullptr; }
    Telemetry *telemetry() const { return telemetry_; }
    sim::NodeId node() const { return node_; }

    /** A fresh trace id; 0 while dark or while the tracer is inactive. */
    std::uint64_t mint() const;

    /** mint() for a user op at an array entry point: the id is also bound
     *  to the contention tracker's current tenant. */
    std::uint64_t mintOp() const;

    /** The contention tracker while attached and enabled, else nullptr. */
    ContentionTracker *contention() const;

    /**
     * Record one span on this probe's node, tagged with the op's tenant.
     * A no-op unless @p trace is nonzero and the tracer is active.
     */
    void
    span(std::uint64_t trace, const char *lane, const char *name,
         sim::Tick start, sim::Tick end, SpanArg a0 = {},
         SpanArg a1 = {}) const
    {
        record(true, trace, lane, name, start, end, a0, a1);
    }

    /** As span(), never tenant-tagged (fabric propagation and rebuild
     *  stripes are not charged to a tenant). */
    void
    untaggedSpan(std::uint64_t trace, const char *lane, const char *name,
                 sim::Tick start, sim::Tick end, SpanArg a0 = {},
                 SpanArg a1 = {}) const
    {
        record(false, trace, lane, name, start, end, a0, a1);
    }

    /**
     * A user op of @p bytes finished: observe its latency into
     * @p latency_us (may be nullptr), release its tenant binding into the
     * SLO windows, and record its root "op" span through the tracer's
     * op-completion path (every sink's onOpComplete()).
     */
    void opComplete(std::uint64_t trace, const char *name, sim::Ticks start,
                    sim::Ticks end, std::uint64_t bytes,
                    Histogram *latency_us) const;

    /** Append one cluster journal event as this probe's node. */
    void event(EventType type, sim::Tick tick, std::uint64_t a = 0,
               std::uint64_t b = 0) const;

  private:
    void record(bool tagged, std::uint64_t trace, const char *lane,
                const char *name, sim::Tick start, sim::Tick end,
                SpanArg a0, SpanArg a1) const;

    Telemetry *telemetry_ = nullptr;
    sim::NodeId node_ = 0;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_PROBE_H
