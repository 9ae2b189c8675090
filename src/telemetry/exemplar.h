/**
 * @file
 * Tail-exemplar reservoir: the K slowest ops per timeline window, kept
 * with their FULL span chains.
 *
 * Head sampling (sampling.h) is blind to latency — at 1/1000 it keeps one
 * p99.9 outlier per million ops, which is not enough to explain a tail
 * regression. The reservoir is the complement: every completed op is
 * *offered* at completion, and the K slowest per fixed tick window are
 * retained whole (root span + every sub-span recorded under its trace
 * id), so the critical-path analyzer can still produce an exact phase
 * breakdown for the outliers no matter how aggressive sampling is.
 *
 * Bounds, all deterministic:
 *  - at most K exemplars per window, displaced only by a strictly slower
 *    op (ties keep the earlier op — smaller trace id — so insertion
 *    order cannot leak in);
 *  - at most maxWindows windows; the oldest window is evicted whole when
 *    the budget is exceeded, so retained bytes are O(K * maxWindows *
 *    chain length) regardless of run length.
 *
 * Like everything in src/telemetry/: observe-only, no Simulator access,
 * no RNG, no wall clock on the recording path — the exemplar set is a
 * pure function of the span stream and is byte-compared across double
 * runs in CI.
 */

#ifndef DRAID_TELEMETRY_EXEMPLAR_H
#define DRAID_TELEMETRY_EXEMPLAR_H

#include <cstdint>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "telemetry/trace.h"

namespace draid::telemetry {

/** Bounded reservoir of the K slowest ops per tick window. */
class ExemplarReservoir
{
  public:
    /** One retained slow op: its root span plus the whole chain. */
    struct Exemplar
    {
        std::uint64_t traceId = 0;
        const char *name = ""; ///< root span name, e.g. "draid.read"
        sim::Tick start = 0;
        sim::Tick end = 0;
        std::uint64_t bytes = 0; ///< the root span's "bytes" argument
        std::uint32_t tenant = 0; ///< owning tenant; 0 = untracked
        /** Every span recorded under the trace id, in record order; the
         *  root op span is last. */
        // draid-lint: cap(spans of a single op; bounded op fan-out)
        std::vector<TraceSpan> chain;

        sim::Tick latency() const { return end - start; }
    };

    static constexpr sim::Tick kDefaultWindowTicks = sim::kMillisecond;
    static constexpr std::size_t kDefaultPerWindow = 4;
    static constexpr std::size_t kDefaultMaxWindows = 256;

    explicit ExemplarReservoir(sim::Tick window_ticks = kDefaultWindowTicks,
                               std::size_t per_window = kDefaultPerWindow,
                               std::size_t max_windows = kDefaultMaxWindows);

    /** The reservoir ships disarmed; the tracer skips chain buffering
     *  entirely while it is off. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    sim::Tick windowTicks() const { return windowTicks_; }
    std::size_t perWindow() const { return perWindow_; }

    /**
     * Offer one completed op. Keeps it (with @p chain) when its window
     * has a free slot or the op is strictly slower than the window's
     * current fastest exemplar. @return true when retained.
     */
    bool offer(const TraceSpan &root, std::vector<TraceSpan> chain);

    /**
     * Append a span recorded *after* its op completed (e.g. a straggler
     * ack) to an exemplar still holding the trace id. @return false when
     * the id is not retained (caller drops the span).
     */
    bool appendIfHeld(const TraceSpan &span);

    /** Exemplars currently held. */
    std::size_t size() const;

    std::uint64_t offered() const { return offered_; }
    std::uint64_t kept() const { return kept_; }
    /** Exemplars displaced by slower ops or evicted with old windows. */
    std::uint64_t evicted() const { return evicted_; }
    std::uint64_t windowsEvicted() const { return windowsEvicted_; }

    /**
     * Exemplars whose root completed in [from, to), slowest first (ties
     * by ascending trace id). Pointers are valid until the next mutation.
     */
    std::vector<const Exemplar *> collect(sim::Tick from, sim::Tick to) const;

    /** All exemplars, oldest window first, slowest first within one. */
    std::vector<const Exemplar *> all() const;

    /** Approximate heap bytes retained (size-based, deterministic). */
    std::uint64_t retainedBytes() const;

    void clear();

  private:
    struct Window
    {
        // draid-lint: cap(per-window slot budget; worst evicted on overflow)
        std::vector<Exemplar> slots; ///< unordered; collect() sorts
    };

    sim::Tick windowTicks_;
    std::size_t perWindow_;
    std::size_t maxWindows_;
    bool enabled_ = false;
    std::uint64_t offered_ = 0;
    std::uint64_t kept_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t windowsEvicted_ = 0;
    // draid-lint: cap(retained window span; oldest windows evicted)
    std::map<std::int64_t, Window> windows_; ///< window index -> slots
    /** trace id -> (window index, slot) for appendIfHeld. */
    // draid-lint: cap(mirrors live slots across retained windows)
    std::map<std::uint64_t, std::pair<std::int64_t, std::size_t>> held_;
};

/**
 * One JSON line per exemplar (oldest window first, slowest first within a
 * window): trace id, window, latency, an exact per-phase breakdown of the
 * chain from the critical-path analyzer, and the dominant phase.
 */
void writeExemplarsJsonl(std::ostream &os, const ExemplarReservoir &res);

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_EXEMPLAR_H
