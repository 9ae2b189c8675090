/**
 * @file
 * Discrete-event simulator core: a virtual clock and an event queue.
 *
 * The simulator is single-threaded and fully deterministic: events that are
 * scheduled for the same tick fire in scheduling order (FIFO tie-break by a
 * monotonically increasing sequence number). Pending events sit in a
 * binary heap or in a FIFO lane beside it; the lane takes every event that
 * is later than its tail, so fixed-delay timers skip the heap. Per-op
 * deadlines do not enter the queue one by one: a sim::DeadlineQueue keeps
 * a single event pending at its oldest live deadline, under the sequence
 * number reserved when that deadline was armed (reserveSeq()), so each
 * timeout fires exactly where an event of its own would have and a
 * disarmed deadline costs nothing. Heap and lane hold only 24-byte
 * (when, seq, slot) keys; each event's label and closure stay put in a
 * slab slot, recycled through a free list, until the event fires. There
 * is deliberately no access to wall-clock time anywhere in the
 * simulation; host-time measurement of the engine itself happens through
 * the observe-only EngineObserver hook, whose implementations live in
 * src/telemetry/ (the only directory the draid-lint wall-clock rule
 * exempts).
 *
 * All simulated-time parameters and returns are the strong sim::Ticks type
 * (draid-lint rule tick-unit): a raw integer can never silently cross the
 * scheduling boundary with the wrong unit.
 */

#ifndef DRAID_SIM_SIMULATOR_H
#define DRAID_SIM_SIMULATOR_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/slot_pool.h"
#include "sim/types.h"

namespace draid::sim {

/** An event callback. Fired exactly once at its scheduled tick. */
using EventFn = std::function<void()>;

/**
 * Observe-only hook into the engine's own machinery, mirroring the
 * clock-observer contract: implementations MUST NOT schedule events, call
 * run()/stop(), or otherwise mutate the simulation. The hooks exist so a
 * profiler (telemetry::SimProfiler) can attribute *host* wall-clock cost
 * to event sources without perturbing event order — simulated output must
 * be byte-identical whether an observer is installed or not.
 *
 * Labels passed to the hooks are the static strings given to the labeled
 * schedule()/scheduleAt() overloads; nullptr means the call site was not
 * tagged. The engine itself never reads host time: any clock access
 * belongs in the observer implementation under src/telemetry/.
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /** An event was pushed; @p pending counts events now queued. */
    virtual void onSchedule(Ticks when, const char *label,
                            std::size_t pending) = 0;

    /**
     * All events at tick @p when were just drained into the run batch.
     * @p batch is the same-tick batch size, @p heap_before the queue
     * depth immediately before the drain.
     */
    virtual void onBatchDrain(Ticks when, std::size_t batch,
                              std::size_t heap_before) = 0;

    /** Fired immediately before an event callback executes. */
    virtual void onEventStart(Ticks now, const char *label) = 0;

    /** Fired immediately after the event callback returns. */
    virtual void onEventEnd() = 0;

    /** run()/runUntil() entered. */
    virtual void onRunStart() = 0;

    /** run()/runUntil() returned. */
    virtual void onRunEnd() = 0;
};

/**
 * The discrete-event engine.
 *
 * All simulated components (pipes, CPU cores, NICs, SSDs, controllers) hold
 * a reference to one Simulator and schedule continuation callbacks on it.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Ticks now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * @pre delay >= zero
     */
    void schedule(Ticks delay, EventFn fn);

    /**
     * As above, tagged with a cost-attribution label for the engine
     * profiler. @p label must point at storage that outlives the event
     * (in practice: a string literal). The label has no effect on the
     * simulation; it only reaches the EngineObserver.
     */
    void schedule(Ticks delay, const char *label, EventFn fn);

    /**
     * Schedule @p fn to run at absolute tick @p when.
     * @pre when >= now()
     */
    void scheduleAt(Ticks when, EventFn fn);

    /** Labeled variant of scheduleAt(); see the labeled schedule(). */
    void scheduleAt(Ticks when, const char *label, EventFn fn);

    /**
     * Take the sequence number the next scheduled event would get, as if
     * an event were scheduled now, and hand it to the caller. Passing it
     * to the seq overload of scheduleAt() later fires that event exactly
     * where an event scheduled at reservation time would have fired.
     */
    std::uint64_t reserveSeq() { return seq_++; }

    /**
     * Schedule @p fn at @p when with the sequence number @p seq taken
     * from reserveSeq(), so it fires at (when, seq) among the other
     * events. A key at the current tick that precedes every queued event
     * joins the current batch in seq order.
     * @pre when >= now(), and (when, seq) is later than the event running
     *      now: the key is not in the past.
     */
    void scheduleAt(Ticks when, std::uint64_t seq, const char *label,
                    EventFn fn);

    /**
     * Run until the event queue drains or stop() is called. Not
     * reentrant: events must not call run()/runUntil() themselves (use
     * stop() and resume from the driver instead; draid-lint rule
     * callback-discipline enforces this statically).
     */
    void run();

    /**
     * Run until the clock reaches @p deadline (inclusive of events at the
     * deadline tick) or the queue drains. The clock is advanced to
     * @p deadline even if the queue drains earlier.
     */
    void runUntil(Ticks deadline);

    /** Run for @p duration ticks from the current time. */
    void runFor(Ticks duration) { runUntil(now_ + duration); }

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopped_ = true; }

    /** Number of events executed so far (for tests and sanity checks). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Number of events currently pending (heap + lane + undrained batch). */
    std::size_t pendingEvents() const
    {
        return queuedEvents() + (batch_.size() - batchPos_);
    }

    /**
     * Install an observe-only hook fired whenever the clock advances to a
     * new tick (before the first event at that tick executes). Used by the
     * telemetry utilization sampler. The observer MUST NOT schedule events
     * or otherwise mutate the simulation — it exists precisely so that
     * sampling cannot perturb event ordering. Pass nullptr to remove.
     */
    void setClockObserver(std::function<void(Ticks)> fn)
    {
        clockObserver_ = std::move(fn);
    }

    /**
     * Install the engine profiling hook (see EngineObserver). Observe-only
     * under the same contract as the clock observer; the pointer must
     * outlive the simulator or be cleared with nullptr first.
     */
    void setEngineObserver(EngineObserver *observer)
    {
        engineObserver_ = observer;
    }

  private:
    /**
     * What the heap, the lane and the batch order: firing order is
     * (when, seq); @c slot names the event's entry in slab_.
     */
    struct Key
    {
        Ticks when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct KeyOrder
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** An event's payload; it stays in place while its key moves. */
    struct Slot
    {
        const char *label; ///< static attribution tag; may be nullptr
        EventFn fn;        ///< emptied when the event fires
    };

    /** Events in the heap and the lane (not yet drained to batch_). */
    std::size_t queuedEvents() const
    {
        return heap_.size() + lane_.size();
    }

    /** Whether @p a fires before @p b. */
    static bool
    before(const Key &a, const Key &b)
    {
        return KeyOrder{}(b, a);
    }

    /** The earliest queued key. @pre queuedEvents() > 0 */
    const Key &queueFront() const;

    /**
     * Put @p key in the lane when it is later than the lane's tail, else
     * on the heap, and report the schedule to the engine observer.
     */
    void enqueue(const Key &key, const char *label);

    /**
     * Move the key of every event at tick @p when from the lane and the
     * heap, merged by seq, into batch_, amortizing per-event pop cost
     * across the same-tick batch.
     */
    void drainTick(Ticks when);

    /**
     * Execute one drained event, bracketing it with the observer hooks.
     * The closure leaves its slot, and the slot returns to the free list,
     * before the call, so the callback may schedule (and reuse the slot)
     * freely and whatever the closure holds is released when it returns.
     */
    void execute(const Key &key);

    /** Advance the clock to @p when, firing the clock observer. */
    void advanceTo(Ticks when);

    // draid-lint: cap(pending events; drained to batch_ every tick)
    std::vector<Key> heap_; ///< binary min-heap under KeyOrder
    /**
     * FIFO lane: keys appended in increasing (when, seq) order. An event
     * earlier than the tail goes to heap_ instead, so the lane front is
     * always the lane's minimum and the next event is the smaller of the
     * heap top and the lane front.
     */
    // draid-lint: cap(pending events; drained to batch_ every tick)
    std::deque<Key> lane_;
    SlotPool<Slot> slab_; ///< label and closure of every pending event
    // draid-lint: cap(same-tick batch; cleared before every drain)
    std::vector<Key> batch_; ///< current same-tick batch, FIFO order
    std::size_t batchPos_ = 0; ///< next unexecuted event in batch_
    std::function<void(Ticks)> clockObserver_;
    EngineObserver *engineObserver_ = nullptr;
    Ticks now_;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stopped_ = false;
    bool running_ = false; ///< reentrancy guard (assert-only)
};

} // namespace draid::sim

#endif // DRAID_SIM_SIMULATOR_H
