/**
 * @file
 * Per-operation trace spans with Chrome trace_event export.
 *
 * Every user I/O gets a trace id minted at the array entry point
 * (DraidHost or a baseline); the id rides in proto::Capsule (simulation
 * metadata — never charged to the wire) so every hop — host queue, NIC tx,
 * fabric pipe, server CPU, SSD channel, reduce engine, completion —
 * records a timed span against the deterministic sim clock.
 *
 * Design rules, enforced by construction:
 *  - Zero overhead when off: mint() returns 0 while neither export tracing
 *    nor a bound sink wants spans, and every recording call is gated on a
 *    nonzero id, so the fully-dark path costs one predictable branch.
 *  - Observe only, never schedule: recording hands spans to in-memory
 *    sinks; the tracer holds no Simulator reference and cannot create
 *    events, so enabling tracing cannot perturb event ordering.
 *
 * Export is Chrome trace_event JSON ("X" complete events + "C" counter
 * samples + "M" metadata), loadable in chrome://tracing or Perfetto.
 */

#ifndef DRAID_TELEMETRY_TRACE_H
#define DRAID_TELEMETRY_TRACE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "telemetry/sampling.h"
#include "telemetry/span.h"

namespace draid::telemetry {

/**
 * The utilization sampler's store, which the Chrome export reads as "C"
 * counter tracks: each source's (node, name) once, and one row per
 * retained sampling round holding one value per source, in source order.
 * Rows are keyed by retained round index 0..n-1, so merging adjacent
 * rows is a sim::regroup by 2.
 */
struct UtilizationRounds
{
    struct Source
    {
        sim::NodeId node = 0;
        std::string name; ///< e.g. "nic.tx.util"
    };
    struct Round
    {
        sim::Tick tick = 0; ///< the interval boundary closing the round
        /** Busy fraction over the round's window, [0,1], per source. */
        // draid-lint: cap(one value per source; fixed topology)
        std::vector<double> values;
    };

    // draid-lint: cap(one entry per registered resource lane)
    std::vector<Source> sources;
    // draid-lint: cap(the sampler's cap; rounds merged pairwise past it)
    std::map<std::int64_t, Round> rounds;

    /** Retained samples: rounds x sources. */
    std::size_t samples() const { return rounds.size() * sources.size(); }
};

/**
 * A consumer of the span stream, bound with Tracer::bind(). Each bound
 * sink, in bind order, gets every sub-span and every completed op in
 * record order. The flight recorder, the exemplar reservoir, the
 * streaming timeline and the critical-path fold are sinks; the tracer's
 * own span vector is kept only for the Chrome export.
 */
class SpanSink
{
  public:
    virtual ~SpanSink() = default;

    /** One sub-span of an op, or a span of a rootless trace (rebuild). */
    virtual void onSpan(const TraceSpan &) {}

    /** One completed op: its root span on the "op" lane and, while any
     *  bound sink wantsChains(), the sub-spans recorded under its id
     *  before completion, in record order, then @p root; else empty.
     *  By default the root is one more span. */
    virtual void onOpComplete(const TraceSpan &root,
                              const std::vector<TraceSpan> &)
    {
        onSpan(root);
    }

    /** Whether this sink keeps Tracer::active(), so spans get built. */
    bool wantsSpans() const { return wantsSpans_; }

    /** Whether the tracer must buffer each op's sub-spans for it. */
    bool wantsChains() const { return wantsChains_; }

  protected:
    // Flags, not virtual calls: the tracer reads them on every span.
    bool wantsSpans_ = true;
    bool wantsChains_ = false;
};

/** Span sink + trace-id mint. */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Whether recording sites should build spans: export tracing is on OR
     * a bound sink wants the stream. This is the gate every recording
     * site checks; enabled() gates retention for the Chrome export only.
     */
    bool
    active() const
    {
        return enabled_ ||
               std::any_of(sinks_.begin(), sinks_.end(),
                           [](const SpanSink *s) { return s->wantsSpans(); });
    }

    /** Next per-op trace id; 0 while inactive. Ids start at 1. */
    std::uint64_t
    mint()
    {
        return active() ? nextId_++ : 0;
    }

    /** Deliver one span to every bound sink; retained for export only
     *  while enabled(), the id is sampled and the span cap is not hit. */
    void recordSpan(const TraceSpan &span);

    /** As recordSpan() for the root "op" span of a completed user op,
     *  which the sinks get through onOpComplete() with its chain. */
    void recordOpCompletion(const TraceSpan &span);

    /** Attach @p sink to the span stream (after the ones already bound). */
    void bind(SpanSink *sink) { sinks_.push_back(sink); }
    /** Detach @p sink; a no-op when it is not bound. */
    void unbind(SpanSink *sink) { std::erase(sinks_, sink); }

    /**
     * Deterministic head sampling: retain spans of 1-in-@p period trace
     * ids, decided by the seeded hash of the id (sampling.h) — never by
     * the engine RNG, so enabling sampling cannot perturb the simulation
     * and the sampled set is byte-identical across runs. 0/1 disables.
     * Orthogonal to mint(): ids are minted for every op regardless, and
     * id 0 is always kept.
     */
    void setSamplePeriod(std::uint64_t period)
    {
        samplePeriod_ = period == 0 ? 1 : period;
    }
    std::uint64_t samplePeriod() const { return samplePeriod_; }
    /** Keep decision for @p traceId under the current period. */
    bool sampled(std::uint64_t traceId) const
    {
        return traceSampled(traceId, samplePeriod_);
    }
    /** Spans skipped by the sampling decision (not an overflow drop). */
    std::uint64_t sampledOutSpans() const { return sampledOut_; }

    /** Human name for a node ("host0", "node3"), used as process_name. */
    void setNodeName(sim::NodeId node, std::string name);

    const std::vector<TraceSpan> &spans() const { return spans_; }
    std::uint64_t droppedSpans() const { return dropped_; }
    /** Op chains evicted at the pending-op cap (truncated if the op
     *  later completes). */
    std::uint64_t evictedChains() const { return evictedChains_; }

    /**
     * Bound on retained spans; further spans are counted but dropped so a
     * long bench with tracing on cannot exhaust memory.
     */
    void setSpanCap(std::size_t cap) { spanCap_ = cap; }

    /**
     * Host-clock self-timing of the recording paths, for the
     * telemetry.* rows and the telemetry_overhead block in
     * BENCH_simcore.json. Off by default (two clock reads per span are
     * not free); the harness enables it only when profiling. Wall-clock
     * reads are legal here — src/telemetry/ is the lint-exempt scope —
     * and never influence what is recorded.
     */
    void setSelfTiming(bool on) { selfTiming_ = on; }
    struct SelfCost
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
    };
    const SelfCost &spanCost() const { return spanCost_; }
    const SelfCost &opCost() const { return opCost_; }
    /** The utilization sampler's rounds, charged by chargeCounters(). */
    const SelfCost &counterCost() const { return counterCost_; }

    /** Self-timing stamp opening a recording path (0 when off). */
    std::uint64_t selfClock() const;
    /** Charge @p samples counter samples, recorded since the selfClock()
     *  stamp @p since, to counterCost(); a no-op when self-timing is off. */
    void
    chargeCounters(std::uint64_t samples, std::uint64_t since)
    {
        charge(counterCost_, samples, since);
    }

    /** Approximate heap bytes retained (spans + pending op chains;
     *  size-based, so deterministic across runs). */
    std::uint64_t retainedBytes() const;

    /**
     * Emit the whole trace as Chrome trace_event JSON, with @p counters
     * as "C" counter tracks (round-major, in source order) and
     * @p droppedCounters, the samples the sampler merged away, in the
     * truncation metadata.
     */
    void writeChromeTrace(std::ostream &os,
                          const UtilizationRounds &counters = {},
                          std::uint64_t droppedCounters = 0) const;
    std::string toChromeTraceJson(const UtilizationRounds &counters = {},
                                  std::uint64_t droppedCounters = 0) const;

    void clear();

  private:
    /** Whether any bound sink asks for per-op chains. */
    bool
    wantsChains() const
    {
        return std::any_of(sinks_.begin(), sinks_.end(),
                           [](const SpanSink *s) { return s->wantsChains(); });
    }
    /** Retention for the Chrome export (enabled, sampled, under cap). */
    void retain(const TraceSpan &span);
    /** Add @p calls and the host ns since @p since to @p cost. */
    void charge(SelfCost &cost, std::uint64_t calls, std::uint64_t since);

    bool enabled_ = false;
    std::uint64_t nextId_ = 1;
    std::size_t spanCap_ = 4'000'000;
    std::uint64_t dropped_ = 0;
    std::uint64_t sampledOut_ = 0;
    std::uint64_t samplePeriod_ = 1;
    std::uint64_t evictedChains_ = 0;
    bool selfTiming_ = false;
    SelfCost spanCost_;
    SelfCost opCost_;
    SelfCost counterCost_;
    // draid-lint: cap(one entry per bound consumer; code-defined set)
    std::vector<SpanSink *> sinks_;
    // draid-lint: cap(spanCap_; recording stops at the cap)
    std::vector<TraceSpan> spans_;
    /** In-flight sub-span chains keyed by trace id, kept only while a
     *  bound sink wantsChains(); bounded by kPendingOpCap (oldest —
     *  smallest id — evicted first). */
    // draid-lint: cap(kPendingOpCap; oldest evicted)
    std::map<std::uint64_t, std::vector<TraceSpan>> pendingChains_;
    static constexpr std::size_t kPendingOpCap = 1024;
    // draid-lint: cap(one name per registered node; fixed topology)
    std::map<sim::NodeId, std::string> nodeNames_;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_TRACE_H
