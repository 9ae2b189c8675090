/**
 * @file
 * Always-on flight recorder: a fixed-size ring of the most recent span and
 * event records, cheap enough to leave running on every cluster, dumped as
 * a readable post-mortem when something goes wrong (a run aborts, an op
 * times out, or a test assertion fires).
 *
 * The recorder is a sink behind the Tracer: recording sites are unchanged
 * and the observe-only invariant holds — the recorder never touches the
 * Simulator, so leaving it on cannot perturb event ordering (the
 * determinism guard test covers it). Unlike the Tracer's unbounded span
 * vector, the ring overwrites the oldest record, so memory stays constant
 * no matter how long the run is.
 */

#ifndef DRAID_TELEMETRY_FLIGHT_RECORDER_H
#define DRAID_TELEMETRY_FLIGHT_RECORDER_H

#include <cstdint>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.h"
#include "telemetry/span.h"

namespace draid::telemetry {

/** Bounded ring of recent spans, stored as recorded (no heap). */
class FlightRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    std::size_t capacity() const { return ring_.size(); }
    /** Records currently held (== capacity once the ring has wrapped). */
    std::size_t size() const;
    /** Total records ever pushed (size() + overwritten). */
    std::uint64_t totalRecorded() const { return total_; }

    /** Append one span record. No-op while disabled. */
    void record(const TraceSpan &span);

    /**
     * Append one out-of-band event record (lane "event"): op timeouts,
     * aborts, externally observed anomalies. @p name must be a static
     * string. Records even a disabled recorder would want to keep are
     * still gated on enabled() so a dark run stays dark.
     */
    void note(const char *name, std::uint64_t id, sim::NodeId node,
              sim::Tick tick);

    /**
     * As note(), and additionally dumps the ring to stderr when
     * dumpOnAbnormal() is set (at most three times per recorder, so a
     * timeout cascade cannot flood the log).
     */
    void noteAbnormal(const char *name, std::uint64_t id, sim::NodeId node,
                      sim::Tick tick);

    /**
     * Dump abnormal events (noteAbnormal) immediately to stderr. Off by
     * default: tests inject timeouts on purpose; the bench harness turns
     * it on because a bench timeout is always a bug.
     */
    void setDumpOnAbnormal(bool on) { dumpOnAbnormal_ = on; }
    bool dumpOnAbnormal() const { return dumpOnAbnormal_; }

    /** The retained records, oldest first. */
    std::vector<TraceSpan> snapshot() const;

    /**
     * Human-readable post-mortem: the last @p max_records records, oldest
     * first, one line each (tick window, node, lane, name, trace id).
     */
    void dump(std::ostream &os, std::size_t max_records = 64) const;

    /** The ring as a minimal Chrome trace_event JSON ("X" events). */
    void writeChromeTrace(std::ostream &os) const;

    void clear();

    // --- process-wide post-mortem hooks ---

    /** Dump every live recorder to @p os (newest-constructed last). */
    static void dumpAll(std::ostream &os, std::size_t max_records = 64);

    /**
     * Install SIGABRT/SIGSEGV handlers and a std::terminate handler that
     * dump every live recorder to stderr (and, when a crash-trace path is
     * set, write a Chrome trace there) before the process dies.
     * Idempotent.
     */
    static void installCrashHandlers();

    /** Chrome-trace file written by the crash handlers; "" disables. */
    static void setCrashTracePath(std::string path);

  private:
    void push(const TraceSpan &rec);

    bool enabled_ = true;
    bool dumpOnAbnormal_ = false;
    int abnormalDumps_ = 0;
    std::uint64_t total_ = 0;
    // draid-lint: cap(capacity ctor arg; ring overwrite, never grows)
    std::vector<TraceSpan> ring_;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_FLIGHT_RECORDER_H
