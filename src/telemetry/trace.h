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
 *    nor the flight recorder is active, and every recording call is gated
 *    on a nonzero id, so the fully-dark path costs one predictable branch.
 *  - Observe only, never schedule: recording appends to an in-memory
 *    vector; the tracer holds no Simulator reference and cannot create
 *    events, so enabling tracing cannot perturb event ordering.
 *
 * Export is Chrome trace_event JSON ("X" complete events + "C" counter
 * samples + "M" metadata), loadable in chrome://tracing or Perfetto.
 */

#ifndef DRAID_TELEMETRY_TRACE_H
#define DRAID_TELEMETRY_TRACE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/sampling.h"
#include "telemetry/span.h"

namespace draid::telemetry {

class ExemplarReservoir;

/** One sample of a counter timeline (utilization plots). */
struct CounterSample
{
    sim::NodeId node = 0;
    std::string name; ///< e.g. "nic.tx.util"
    sim::Tick tick = 0;
    double value = 0.0;
};

/**
 * Sink notified once per completed user op (root span on the "op" lane).
 * The streaming timeline aggregator implements this so windowed stats see
 * EVERY completion even when sampling drops the op's spans from retention.
 */
class OpCompletionSink
{
  public:
    virtual ~OpCompletionSink() = default;
    virtual void onOpComplete(const TraceSpan &root) = 0;
};

/** Span sink + trace-id mint. */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Whether recording sites should build spans: export tracing is on OR
     * an attached flight recorder wants the stream. This is the gate every
     * recording site checks; enabled() gates retention/export only.
     */
    bool
    active() const
    {
        return enabled_ || (recorder_ && recorder_->enabled());
    }

    /** Next per-op trace id; 0 while inactive. Ids start at 1. */
    std::uint64_t
    mint()
    {
        return active() ? nextId_++ : 0;
    }

    /**
     * Append one span. Always mirrored into the attached flight recorder's
     * ring; retained for export only while enabled(), the trace id is
     * sampled, and the span cap is not hit.
     */
    void recordSpan(const TraceSpan &span);

    /**
     * Append the root "op" span of a completed user op. Beyond the normal
     * recordSpan() path this (in order): notifies the bound
     * OpCompletionSink, offers the op — with its buffered sub-span chain —
     * to the bound exemplar reservoir, then retains the span like any
     * other. Probe::opComplete() calls this instead of recordSpan() for
     * the root span.
     */
    void recordOpCompletion(const TraceSpan &span);

    /** Streaming consumer of op completions (nullptr detaches). */
    void bindOpSink(OpCompletionSink *sink) { opSink_ = sink; }

    /** Tail-exemplar reservoir fed at op completion (nullptr detaches).
     *  While the reservoir is enabled the tracer buffers every traced
     *  sub-span per op so a kept exemplar carries its whole chain. */
    void bindExemplars(ExemplarReservoir *reservoir)
    {
        exemplars_ = reservoir;
    }
    ExemplarReservoir *exemplars() const { return exemplars_; }

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

    /** Attach a flight recorder that shadows every recorded span. */
    void bindFlightRecorder(FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }
    FlightRecorder *flightRecorder() const { return recorder_; }

    /** Append one counter sample (utilization timelines). */
    void recordCounter(sim::NodeId node, std::string name, sim::Tick tick,
                       double value);

    /** Human name for a node ("host0", "node3"), used as process_name. */
    void setNodeName(sim::NodeId node, std::string name);

    const std::vector<TraceSpan> &spans() const { return spans_; }
    const std::vector<CounterSample> &counterSamples() const
    {
        return counters_;
    }
    std::uint64_t droppedSpans() const { return dropped_; }
    std::uint64_t droppedCounters() const { return droppedCounters_; }

    /**
     * Bound on retained spans; further spans are counted but dropped so a
     * long bench with tracing on cannot exhaust memory.
     */
    void setSpanCap(std::size_t cap) { spanCap_ = cap; }

    /**
     * Bound on retained counter samples. Unlike the span cap, hitting it
     * does not truncate the tail: the retained set is decimated in place
     * (every 2nd sample per series dropped, stride doubled), so coverage
     * stays end-to-end at reduced resolution and memory stays O(cap).
     */
    void setCounterCap(std::size_t cap)
    {
        counterCap_ = cap == 0 ? 1 : cap;
    }
    /** Current per-series keep stride (1 until the cap is first hit). */
    std::uint64_t counterStride() const { return counterStride_; }

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
    const SelfCost &counterCost() const { return counterCost_; }

    /** Approximate heap bytes retained (spans + counters + pending
     *  exemplar chains; size-based, so deterministic across runs). */
    std::uint64_t retainedBytes() const;

    /** Emit the whole trace as Chrome trace_event JSON. */
    void writeChromeTrace(std::ostream &os) const;
    std::string toChromeTraceJson() const;

    void clear();

  private:
    /** Shared retention path; @p completion marks a root op span (already
     *  routed through sink/reservoir, so no pending-chain stash). */
    void ingestSpan(const TraceSpan &span, bool completion);
    /** Buffer a sub-span until its op completes (exemplar chains). */
    void stashPending(const TraceSpan &span);
    /** Halve retained counter resolution (stride doubling). */
    void decimateCounters();

    bool enabled_ = false;
    FlightRecorder *recorder_ = nullptr;
    std::uint64_t nextId_ = 1;
    std::size_t spanCap_ = 4'000'000;
    std::uint64_t dropped_ = 0;
    std::uint64_t sampledOut_ = 0;
    std::uint64_t samplePeriod_ = 1;
    std::size_t counterCap_ = 262'144;
    std::uint64_t counterStride_ = 1;
    std::uint64_t droppedCounters_ = 0;
    bool selfTiming_ = false;
    SelfCost spanCost_;
    SelfCost opCost_;
    SelfCost counterCost_;
    OpCompletionSink *opSink_ = nullptr;
    ExemplarReservoir *exemplars_ = nullptr;
    // draid-lint: cap(spanCap_; recording stops at the cap)
    std::vector<TraceSpan> spans_;
    // draid-lint: cap(counterCap_; stride decimation past the cap)
    std::vector<CounterSample> counters_;
    /** Per-series arrival index driving the counter keep stride. */
    std::map<std::pair<sim::NodeId, std::string>, std::uint64_t>
        // draid-lint: cap(one entry per (node, series); code-defined set)
        counterSeq_;
    /** In-flight sub-span chains keyed by trace id, kept only while an
     *  enabled reservoir is bound; bounded by kPendingOpCap (oldest —
     *  smallest id — evicted first). */
    // draid-lint: cap(kPendingOpCap; oldest evicted)
    std::map<std::uint64_t, std::vector<TraceSpan>> pendingChains_;
    static constexpr std::size_t kPendingOpCap = 1024;
    // draid-lint: cap(one name per registered node; fixed topology)
    std::map<sim::NodeId, std::string> nodeNames_;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_TRACE_H
