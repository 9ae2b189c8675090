/**
 * @file
 * Per-stripe write planning: pick the write mode (full-stripe,
 * read-modify-write, or reconstruct write) and enumerate the device I/Os
 * every mode needs, and decide how a stripe write is served while one
 * device is down. Used by the host-side controllers of dRAID and of both
 * baselines, so all systems make identical mode and degraded-write
 * decisions (§9.1's fairness requirement).
 */

#ifndef DRAID_RAID_WRITE_PLAN_H
#define DRAID_RAID_WRITE_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "raid/geometry.h"

namespace draid::raid {

/** The three RAID write modes (§2.1). */
enum class WriteMode
{
    kFullStripe,      ///< all data chunks fully covered; no remote reads
    kReadModifyWrite, ///< read old data + parity, apply deltas
    kReconstructWrite,///< read untouched chunks, rebuild parity from scratch
};

/** One data chunk receiving new bytes in a stripe write. */
struct WriteSegment
{
    std::uint32_t dataIdx; ///< data-chunk index within the stripe
    std::uint32_t offset;  ///< byte offset within the chunk
    std::uint32_t length;  ///< byte length
};

/** Plan for the portion of a write that falls in one stripe. */
struct StripeWritePlan
{
    std::uint64_t stripe = 0;
    WriteMode mode = WriteMode::kFullStripe;

    /** Chunks receiving new data, ordered by dataIdx. */
    // draid-lint: cap(chunks of one stripe; at most data width)
    std::vector<WriteSegment> writes;

    /** Untouched data chunks to read whole (reconstruct write only). */
    // draid-lint: cap(untouched chunks of one stripe; at most data width)
    std::vector<std::uint32_t> rcwReads;

    /** Parity byte range to update (union of deltas for RMW; whole chunk
     * for RCW/FSW). */
    std::uint32_t parityOffset = 0;
    std::uint32_t parityLength = 0;

    /** Partial parities the parity bdev must wait for (dRAID wait-num). */
    std::uint32_t waitNum = 0;

    /** Bytes of user data written in this stripe. */
    std::uint64_t userBytes() const;

    /**
     * Narrow the plan to read-modify-write: no untouched-chunk reads, the
     * parity window is the union of the written ranges, and the parity
     * bdevs wait for one partial per written chunk. A chunk outside
     * `writes` then never enters the parity update, which is what lets a
     * stripe with a lost data chunk be written without reading it.
     */
    void forceRmw();
};

/** How a stripe write is served while one member device is down. */
enum class DegradedKind
{
    /** Run the returned plan's own mode. The lost device is a RAID-6 P
     * or Q that the flow skips, or the plan is a full-stripe write, or
     * the lost data chunk is not written (the plan is then forced to
     * RMW so that chunk's unknown content cancels out). */
    kAsPlanned,
    /** RAID-5 stripe whose P is lost: write the data segments only. */
    kParityLess,
    /** The write touches the lost data chunk: its new bytes go straight
     * into the parity window (the survivors contribute their slices of
     * that range), after the returned RMW plan writes the surviving
     * segments. */
    kTargeted,
};

/** The single-failure decision for one stripe write. */
struct DegradedRoute
{
    DegradedKind kind = DegradedKind::kAsPlanned;
    /** kTargeted: index of the lost chunk's segment in the input plan's
     * `writes` (and in any array parallel to it). */
    std::size_t failedPos = 0;
    /** The plan to run. For kTargeted it holds the surviving segments,
     * forced to RMW, and has no writes when only the lost chunk is
     * written. */
    StripeWritePlan plan;
};

/**
 * Splits a logical write into per-stripe plans and decides each stripe's
 * mode by comparing the *bytes that must be read* from the drives:
 *   RMW reads  = written bytes (old data) + parity window (x parities)
 *   RCW reads  = untouched chunks + uncovered parts of written chunks
 * choosing RMW iff it reads strictly fewer bytes. With the paper's default
 * RAID-5 geometry (k=7, 512 KB chunks) this yields the §9.3 regime
 * boundaries — RMW below 1536 KB, reconstruct write from 1536 KB to
 * 3584 KB, full stripe at 3584 KB — while still picking RMW for small
 * partial-chunk writes on narrow arrays (the Fig. 12 width-4 case).
 */
class WritePlanner
{
  public:
    explicit WritePlanner(const Geometry &geom) : geom_(geom) {}

    /** Plan the write [offset, offset+length). */
    std::vector<StripeWritePlan> plan(std::uint64_t offset,
                                      std::uint64_t length) const;

    /** Plan a single stripe given its write segments. */
    StripeWritePlan planStripe(std::uint64_t stripe,
                               std::vector<WriteSegment> segs) const;

    /**
     * Route @p plan while device @p failed is the array's only failed
     * member (see DegradedKind). @p plan itself is left unchanged, so a
     * retry can still replay every segment.
     */
    DegradedRoute routeDegraded(const StripeWritePlan &plan,
                                std::uint32_t failed) const;

  private:
    const Geometry &geom_;
};

} // namespace draid::raid

#endif // DRAID_RAID_WRITE_PLAN_H
