/**
 * @file
 * RebuildJob: drives the reconstruction of a failed drive onto a spare,
 * stripe by stripe, with a bounded in-flight window (paper §6, Fig. 17a).
 *
 * The job is system-agnostic: it calls a per-stripe reconstruction
 * function, so the same driver measures dRAID (peer-to-peer reduce into
 * the spare) and the host-centric baselines.
 */

#ifndef DRAID_CORE_RECONSTRUCT_H
#define DRAID_CORE_RECONSTRUCT_H

#include <cstdint>
#include <functional>

#include "sim/simulator.h"
#include "sim/types.h"
#include "telemetry/metrics.h"
#include "telemetry/probe.h"

namespace draid::core {

/** Background rebuild of one failed device. */
class RebuildJob
{
  public:
    /** Reconstructs the failed chunk of one stripe; reports success. */
    using StripeFn =
        std::function<void(std::uint64_t, std::function<void(bool)>)>;

    /**
     * @param sim          owning simulator
     * @param fn           per-stripe reconstruction
     * @param num_stripes  stripes to rebuild
     * @param chunk_bytes  bytes recovered per stripe (for throughput)
     * @param window       maximum stripes in flight
     */
    RebuildJob(sim::Simulator &sim, StripeFn fn, std::uint64_t num_stripes,
               std::uint32_t chunk_bytes, int window = 8);

    /** Begin rebuilding; @p done fires when every stripe has been tried. */
    void start(std::function<void(bool)> done);

    /**
     * Report to telemetry through @p probe: each stripe's
     * issue-to-completion window becomes an untagged "rebuild.stripe"
     * span (lane "rebuild"), and the job journals RebuildStarted /
     * RebuildProgress (roughly every eighth of the job) /
     * RebuildCompleted. Observe-only.
     */
    void attach(telemetry::Probe probe) { probe_ = probe; }

    /** Register progress probes (stripes_done, failures, in_flight). */
    void registerMetrics(telemetry::MetricScope scope);

    /**
     * Injectable fault hook (fault campaigns): called with the stripe
     * index whenever a stripe's reconstruction reports failure, before
     * the job's own failure accounting. Lets a campaign promote the
     * stripe to data loss while the rebuild keeps sweeping.
     */
    void onStripeFailed(std::function<void(std::uint64_t)> hook)
    {
        stripeFailed_ = std::move(hook);
    }

    std::uint64_t stripesDone() const { return done_; }
    std::uint64_t failures() const { return failures_; }

    /** Rebuilt bytes per second over the job's lifetime, in MB/s. */
    double throughputMBps() const;

    bool finished() const { return finished_; }

  private:
    void pump();
    void onStripeDone(bool ok);

    sim::Simulator &sim_;
    StripeFn fn_;
    telemetry::Probe probe_;
    std::uint64_t numStripes_;
    std::uint64_t progressStride_;
    std::uint32_t chunkBytes_;
    int window_;

    std::uint64_t next_ = 0;
    std::uint64_t done_ = 0;
    std::uint64_t failures_ = 0;
    int inFlight_ = 0;
    bool finished_ = false;
    sim::Ticks startTick_;
    sim::Ticks endTick_;
    std::function<void(bool)> onFinished_;
    std::function<void(std::uint64_t)> stripeFailed_;
};

} // namespace draid::core

#endif // DRAID_CORE_RECONSTRUCT_H
