/**
 * @file
 * Host-centric parity RAID over plain NVMe-oF — the architecture of both
 * comparison systems (paper §9.1): the Intel SPDK RAID-5 POC (enhanced
 * with ISA-L and RAID-6 by the authors) and Linux software RAID (MD).
 *
 * All parity work happens at the host: a read-modify-write reads the old
 * data and parity *through the host NIC*, XORs locally, and writes back —
 * 2x outbound bytes per user byte for RAID-5 (3x for RAID-6), which is
 * precisely the bandwidth wall dRAID removes (§2.3). Degraded reads pull
 * n-1 chunks to the host.
 *
 * The two baselines differ only in their Tuning: lock behaviour, per-page
 * kernel costs, and queueing delays.
 */

#ifndef DRAID_BASELINES_HOST_RAID_H
#define DRAID_BASELINES_HOST_RAID_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "blockdev/block_device.h"
#include "blockdev/nvmf_initiator.h"
#include "blockdev/nvmf_target.h"
#include "blockdev/read_join.h"
#include "cluster/cluster.h"
#include "net/fabric.h"
#include "raid/stripe_lock.h"
#include "raid/write_plan.h"

namespace draid::baselines {

/** Cost/behaviour knobs distinguishing the SPDK POC from Linux MD. */
struct HostRaidTuning
{
    /** Extra fixed host CPU per user operation (kernel path for MD). */
    sim::Ticks perOpCost = sim::Ticks::zero();

    /** Stripe lock acquire+release CPU cost; 0 disables the charge. */
    sim::Ticks lockCost = sim::Ticks::zero();

    /** Whether normal reads take the stripe lock (SPDK POC does, §8). */
    bool lockReads = false;

    /**
     * Host data-path throughput in bytes/s: every byte moved through the
     * host RAID engine on the *write and reconstruction* paths is charged
     * at this rate (the single MD thread's 4 KB-page handling). Very
     * large for the SPDK POC (lock-light user-space datapath).
     */
    double dataPathBw = 1e12;

    /**
     * Normal-read path throughput. MD reads bypass the stripe cache and
     * go straight to the member devices, so this is much higher than the
     * write path.
     */
    double readPathBw = 1e12;

    /** Parity arithmetic rates (ISA-L class for both, per §9.1). */
    double xorBw = 12e9;
    double gfBw = 6e9;

    /** Fixed extra submission latency per user op (kernel I/O stack). */
    sim::Ticks queueDelay = sim::Ticks::zero();

    /**
     * Multiplier on the data-path charge of degraded-read reconstruction.
     * MD reconstructs through serialized stripe-cache handling, which
     * costs far more than its streaming write path (Fig. 15: ~834 MB/s).
     */
    double degradedPathFactor = 1.0;

    int maxRetries = 3;
};

/** Operation counters for benches and tests. */
struct HostRaidCounters
{
    std::uint64_t fullStripeWrites = 0;
    std::uint64_t rmwWrites = 0;
    std::uint64_t rcwWrites = 0;
    std::uint64_t normalReads = 0;
    std::uint64_t degradedReads = 0;
    std::uint64_t degradedWrites = 0;
    std::uint64_t retries = 0;
};

/** A complete host-centric RAID system: host engine + NVMe-oF targets. */
class HostCentricRaid : public blockdev::BlockDevice, public net::Endpoint
{
  public:
    HostCentricRaid(cluster::Cluster &cluster, raid::RaidLevel level,
                    std::uint32_t chunk_size, std::uint32_t width,
                    const HostRaidTuning &tuning);

    // --- BlockDevice ---
    std::uint64_t sizeBytes() const override;
    void read(std::uint64_t offset, std::uint32_t length,
              blockdev::ReadCallback cb) override;
    void write(std::uint64_t offset, ec::Buffer data,
               blockdev::WriteCallback cb) override;

    // --- Endpoint (completions for the initiator) ---
    void onMessage(const net::Message &msg) override;

    // --- array management ---
    void markFailed(std::uint32_t device);
    void clearFailed() { failed_.reset(); }
    bool isDegraded() const { return failed_.has_value(); }
    std::optional<std::uint32_t> failedDevice() const { return failed_; }

    /** Host-centric rebuild of one stripe's failed chunk onto a spare. */
    void reconstructChunk(std::uint64_t stripe, std::uint32_t spare_target,
                          std::function<void(bool)> done);

    const raid::Geometry &geometry() const { return geom_; }
    const HostRaidCounters &counters() const { return counters_; }

  protected:
    // --- write path ---
    struct StripeWrite
    {
        raid::StripeWritePlan plan;
        // draid-lint: cap(plan.writes; at most stripe width)
        std::vector<ec::Buffer> segData;
        int retriesLeft = 0;
        std::optional<std::uint32_t> suspect; ///< device that timed out
        std::function<void(bool)> done;
        std::uint64_t traceId = 0; ///< telemetry trace of the user op
    };

    void executeStripeWrite(std::shared_ptr<StripeWrite> sw);
    void doFullStripe(std::shared_ptr<StripeWrite> sw);
    void doRmw(std::shared_ptr<StripeWrite> sw);
    void doRcw(std::shared_ptr<StripeWrite> sw);
    void doParityLess(std::shared_ptr<StripeWrite> sw);
    /**
     * Degraded write of segment @p pos, which lies on the failed chunk
     * (raid::DegradedKind::kTargeted): update the parity window directly
     * from the survivors' slices of the written range plus the new data
     * (host-centric version of dRAID's targeted path).
     */
    void doDegradedTargeted(std::shared_ptr<StripeWrite> sw,
                            std::size_t pos);
    void retryStripe(std::shared_ptr<StripeWrite> sw);

    /**
     * Retry @p sw after its failed batch @p r: a suspect @p r names
     * replaces the earlier one, and none keeps it.
     */
    void retryAfter(std::shared_ptr<StripeWrite> sw,
                    const blockdev::BatchResult &r);

    /** A batch callback that ends @p sw, or retries it on failure. */
    blockdev::BatchCallback finishStripe(std::shared_ptr<StripeWrite> sw);

    /**
     * Charge the host data path for the bytes of @p ios, then submit
     * them as one batch.
     */
    void submitCharged(std::vector<blockdev::BatchIo> ios,
                       std::uint64_t trace, blockdev::BatchCallback cb);

    // --- read path ---
    // Every read runs through one blockdev::ReadJoin: it owns the
    // caller's callback and the result, and each stripe group lands its
    // pieces in it and settles once, when its batch completes.
    void readStripeGroup(std::uint64_t stripe,
                         raid::PlacedExtents extents,
                         std::shared_ptr<blockdev::ReadJoin> join);
    void degradedStripeRead(std::uint64_t stripe,
                            raid::PlacedExtents extents,
                            std::shared_ptr<blockdev::ReadJoin> join);

    /** Settle one piece of @p join as this host (probe, read histogram). */
    void settleRead(blockdev::ReadJoin &join, bool ok);

    /** Charge the host data path for moving @p bytes, then run @p fn. */
    void chargeDataPath(std::uint64_t bytes, sim::EventFn fn,
                        std::uint64_t trace = 0);

    /** Charge the (cheaper) normal-read path. */
    void chargeReadPath(std::uint64_t bytes, sim::EventFn fn,
                        std::uint64_t trace = 0);
    void chargeXor(std::uint64_t bytes, sim::EventFn fn,
                   std::uint64_t trace = 0);
    void chargeGf(std::uint64_t bytes, sim::EventFn fn,
                  std::uint64_t trace = 0);

    cluster::Cluster &cluster_;
    HostRaidTuning tuning_;
    std::uint32_t width_;
    raid::Geometry geom_;
    raid::WritePlanner planner_;
    blockdev::CommandIdAllocator ids_;
    blockdev::NvmfInitiator initiator_;
    raid::StripeLockTable locks_;
    std::optional<std::uint32_t> failed_;
    HostRaidCounters counters_;
    // draid-lint: cap(one NVMf target per member device; fixed topology)
    std::vector<std::unique_ptr<blockdev::NvmfTarget>> targets_;
    telemetry::Histogram *readLatencyUs_ = nullptr;
    telemetry::Histogram *writeLatencyUs_ = nullptr;
    telemetry::Probe probe_;
};

} // namespace draid::baselines

#endif // DRAID_BASELINES_HOST_RAID_H
