/**
 * @file
 * FIO-style workload driver (paper §9.1): random block accesses against a
 * BlockDevice at a fixed queue depth, measuring bandwidth and latency the
 * way the paper's FIO runs do.
 */

#ifndef DRAID_WORKLOAD_FIO_H
#define DRAID_WORKLOAD_FIO_H

#include <cstdint>
#include <functional>
#include <vector>

#include "blockdev/block_device.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace draid::telemetry {
class ContentionTracker;
}

namespace draid::workload {

/** Job description. */
struct FioConfig
{
    std::uint32_t ioSize = 128 * 1024;
    double readRatio = 0.0; ///< fraction of operations that are reads
    int ioDepth = 32;       ///< operations kept in flight
    std::uint64_t numOps = 2000;
    bool sequential = false;
    /** Restrict offsets to the first N bytes; 0 = whole device. */
    std::uint64_t workingSetBytes = 0;
    /**
     * RNG seed for offset/ratio draws. When the job runs through the
     * bench harness this is overwritten by the --seed flag (default 1):
     * workloads never choose their own seed, the invocation does.
     */
    std::uint64_t seed = 1;

    /**
     * Optional custom offset generator (overrides the uniform picker).
     * Used by benches that target specific regions, e.g. the all-degraded
     * read sweeps of Fig. 17.
     */
    std::function<std::uint64_t(sim::Rng &)> offsetPicker;

    /**
     * Tenant (== volume) dimension for contention attribution: when
     * @p contention is set, the job marks @p tenant as the current tenant
     * before every issue, so the op minted at the array entry point binds
     * to it and every queue-wait it suffers is blamed per aggressor
     * tenant. Both default off — existing jobs are unchanged.
     */
    std::uint32_t tenant = 0;
    telemetry::ContentionTracker *contention = nullptr;
};

/** Job results in the paper's units. */
struct FioResult
{
    double bandwidthMBps = 0.0;
    double avgLatencyUs = 0.0;
    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double kiops = 0.0;
    std::uint64_t errors = 0;
};

/** Drives one workload to completion on the simulator. */
class FioJob
{
  public:
    FioJob(sim::Simulator &sim, blockdev::BlockDevice &dev,
           const FioConfig &config);

    /**
     * Run the job: issues ops at the configured depth and runs the
     * simulator until every operation completes.
     */
    FioResult run();

    /**
     * Concurrent-mode start: issue the initial depth without running the
     * simulator; @p on_all_complete fires when the last op completes (the
     * caller owns the run loop). Use runConcurrent() for the common case.
     */
    void start(std::function<void()> on_all_complete);

    /** Results so far (complete once on_all_complete has fired). */
    FioResult result() const;

    bool done() const { return completed_ >= cfg_.numOps; }

  private:
    void issueNext();
    void onComplete(sim::Ticks issued, bool ok);
    std::uint64_t pickOffset();

    sim::Simulator &sim_;
    blockdev::BlockDevice &dev_;
    FioConfig cfg_;
    sim::Rng rng_;

    std::uint64_t slots_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t seqPos_ = 0;
    sim::LatencyRecorder latency_;
    sim::ThroughputMeter meter_;
    std::function<void()> onAllComplete_;
};

/**
 * Run several jobs concurrently on one simulator (multi-tenant traffic
 * mixes): every job issues its initial depth, the simulator runs until
 * the last job drains, and each job's own stats are returned in order.
 */
std::vector<FioResult> runConcurrent(sim::Simulator &sim,
                                     std::vector<FioJob *> jobs);

} // namespace draid::workload

#endif // DRAID_WORKLOAD_FIO_H
