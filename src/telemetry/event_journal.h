/**
 * @file
 * Cluster event journal: typed, tick-stamped records of the rare but
 * load-bearing events of a run — drive failures, rebuild lifecycle,
 * degraded reads, scrub passes, stripe-lock convoys, hot-spare swaps.
 *
 * The journal answers "what happened when" at cluster granularity, the
 * layer between per-op spans (one op) and end-of-run aggregates (whole
 * run). Overlaid on the windowed performance timeline it makes regime
 * transitions visible: the Fig. 17 foreground dip sits exactly between
 * the RebuildStarted and RebuildCompleted records.
 *
 * Same discipline as the flight recorder: a fixed-size ring of
 * fixed-size records (no heap per event), observe-only — recording never
 * touches the Simulator, so an enabled journal cannot perturb event
 * ordering (the determinism guard test covers it). The ring overwrites
 * the oldest record, bounding memory on arbitrarily long runs.
 */

#ifndef DRAID_TELEMETRY_EVENT_JOURNAL_H
#define DRAID_TELEMETRY_EVENT_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.h"
#include "telemetry/ring.h"

namespace draid::telemetry {

/**
 * Event vocabulary. The two payload words `a`/`b` are typed per event;
 * see the per-enumerator comments.
 */
enum class EventType : std::uint8_t
{
    kDriveFailed = 0,    ///< a = member device index
    kDriveRecovered,     ///< a = member device index (failed state cleared)
    kTargetDown,         ///< a = cluster target index (taken off the fabric)
    kTargetRecovered,    ///< a = cluster target index (back on the fabric)
    kRebuildStarted,     ///< a = stripes to rebuild, b = chunk bytes
    kRebuildProgress,    ///< a = stripes done, b = stripes total
    kRebuildCompleted,   ///< a = stripes done, b = failures
    kScrubPass,          ///< a = stripe, b = 0 clean / 1 inconsistent / 2 repaired
    kDegradedReadServed, ///< a = stripe, b = reconstructed bytes
    kStripeLockConvoy,   ///< a = stripe, b = waiters queued behind the holder
    kHotSpareSwap,       ///< a = member device index, b = spare target index
    kOpTimeout,          ///< a = operation id
    kSlowDriveDetected,  ///< a = target index, b = latency factor x100
    kLatentSectorError,  ///< a = media byte offset, b = byte length
    kTargetFlap,         ///< a = target index, b = down/up cycles
    kSwitchPortDegraded, ///< a = fabric node, b = remaining goodput %
    kDataLoss,           ///< a = device or stripe, b = 0 drives / 1 stripe
};

inline constexpr std::size_t kNumEventTypes = 17;

/** Stable short name: "DriveFailed", "RebuildStarted", ... */
const char *eventTypeName(EventType t);

/** Bounded ring of cluster events. */
class EventJournal
{
  public:
    /** One fixed-size record. */
    struct Event
    {
        EventType type = EventType::kDriveFailed;
        sim::NodeId node = 0; ///< emitting node (host for controller events)
        sim::Tick tick = 0;
        std::uint64_t a = 0; ///< payload word, typed per EventType
        std::uint64_t b = 0; ///< payload word, typed per EventType
    };

    static constexpr std::size_t kDefaultCapacity = 8192;

    explicit EventJournal(std::size_t capacity = kDefaultCapacity)
        : ring_(capacity)
    {
    }

    /**
     * The journal ships enabled: events are orders of magnitude rarer
     * than spans and the ring write is a few stores. setEnabled(false)
     * makes every record() a no-op (the determinism guard compares an
     * enabled run against a disabled one).
     */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    std::size_t capacity() const { return ring_.capacity(); }
    /** Records currently held (== capacity once the ring has wrapped). */
    std::size_t size() const { return ring_.size(); }
    /** Total records ever pushed (size() + overwritten). */
    std::uint64_t totalRecorded() const { return ring_.total(); }

    /** Append one event. No-op while disabled. */
    void record(EventType type, sim::NodeId node, sim::Tick tick,
                std::uint64_t a = 0, std::uint64_t b = 0);

    /** The retained events, oldest first. */
    std::vector<Event> snapshot() const { return ring_.snapshot(); }

    /**
     * The retained events whose tick lies in [from, to), oldest first.
     * Used to attach journal context to one measured job's window.
     */
    std::vector<Event> snapshotRange(sim::Tick from, sim::Tick to) const;

    /**
     * JSONL export: one {"tick","type","node","a","b"} object per line,
     * oldest first.
     */
    void writeJsonl(std::ostream &os) const;

    void clear() { ring_.clear(); }

  private:
    bool enabled_ = true;
    Ring<Event> ring_;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_EVENT_JOURNAL_H
