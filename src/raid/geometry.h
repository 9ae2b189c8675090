/**
 * @file
 * RAID array geometry: logical-address-to-stripe mapping and the rotating
 * (left-symmetric) placement of data and parity chunks across devices.
 */

#ifndef DRAID_RAID_GEOMETRY_H
#define DRAID_RAID_GEOMETRY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/small_vec.h"

namespace draid::raid {

/** Parity-based RAID levels supported by the library. */
enum class RaidLevel
{
    kRaid5, ///< single rotating XOR parity
    kRaid6, ///< rotating P (XOR) + Q (GF(2^8)) parity
};

/** Role a device plays within one particular stripe. */
enum class ChunkRole
{
    kData,
    kParityP,
    kParityQ,
};

/** A contiguous byte range within one data chunk of one stripe. */
struct Extent
{
    std::uint64_t stripe;   ///< stripe index
    std::uint32_t dataIdx;  ///< data-chunk index within the stripe
    std::uint32_t offset;   ///< byte offset within the chunk
    std::uint32_t length;   ///< byte length within the chunk
};

/** An extent together with its byte position in the caller's buffer. */
struct PlacedExtent
{
    Extent extent;
    std::size_t outPos; ///< byte position of the extent in the user buffer
};

/** Placed extents, inline while there is one (a read inside a chunk). */
using PlacedExtents = sim::SmallVec<PlacedExtent>;

/** The extents of one logical range that fall in one stripe. */
struct StripeExtents
{
    std::uint64_t stripe = 0;
    /** Ordered by logical address; at most the stripe's data chunks. */
    PlacedExtents extents;
};

/**
 * Immutable description of a RAID array's layout.
 *
 * Parity rotates across devices per stripe (left-symmetric, the Linux MD
 * default): in stripe s, P lives on device `width-1 - s%width`, Q (RAID-6)
 * on the next device, and data chunks fill the remaining devices in order.
 */
class Geometry
{
  public:
    /**
     * @param level       RAID level
     * @param chunk_size  chunk size in bytes (power-of-two not required)
     * @param width       total member devices, including parity
     * @pre width >= 3 for RAID-5, >= 4 for RAID-6
     */
    Geometry(RaidLevel level, std::uint32_t chunk_size, std::uint32_t width);

    RaidLevel level() const { return level_; }
    std::uint32_t chunkSize() const { return chunkSize_; }
    std::uint32_t width() const { return width_; }

    /** Number of parity chunks per stripe (1 or 2). */
    std::uint32_t parityCount() const;

    /** Number of data chunks per stripe. */
    std::uint32_t dataChunks() const { return width_ - parityCount(); }

    /** User-visible bytes per stripe. */
    std::uint64_t
    stripeDataSize() const
    {
        return static_cast<std::uint64_t>(dataChunks()) * chunkSize_;
    }

    /** Device holding P parity for @p stripe. */
    std::uint32_t parityDevice(std::uint64_t stripe) const;

    /** Device holding Q parity for @p stripe (RAID-6 only). */
    std::uint32_t qDevice(std::uint64_t stripe) const;

    /** Device holding data chunk @p data_idx of @p stripe. */
    std::uint32_t dataDevice(std::uint64_t stripe,
                             std::uint32_t data_idx) const;

    /** Role of device @p dev within @p stripe. */
    ChunkRole roleOf(std::uint64_t stripe, std::uint32_t dev) const;

    /**
     * Data-chunk index of device @p dev within @p stripe.
     * @pre roleOf(stripe, dev) == ChunkRole::kData
     */
    std::uint32_t dataIndexOf(std::uint64_t stripe, std::uint32_t dev) const;

    /** Stripe containing logical byte @p offset. */
    std::uint64_t stripeOf(std::uint64_t offset) const;

    /**
     * Split the logical range [offset, offset+length) into per-chunk
     * extents, ordered by logical address and grouped by stripe. Each
     * extent also carries its byte position within the range. A range
     * inside one chunk maps without allocating.
     */
    sim::SmallVec<StripeExtents> mapByStripe(std::uint64_t offset,
                                             std::uint64_t length) const;

    /**
     * Devices whose chunks rebuild the chunk @p lost holds in @p stripe,
     * when @p lost is the only failed device. A lost data chunk is the XOR
     * of the surviving data chunks, listed in data-index order, and P (Q
     * does not take part). A lost P or Q is recomputed from every data
     * chunk, in data-index order.
     */
    std::vector<std::uint32_t> rebuildSources(std::uint64_t stripe,
                                              std::uint32_t lost) const;

    /**
     * Byte address on a member device of @p chunk_offset within the chunk
     * that @p stripe places on that device.
     */
    std::uint64_t
    deviceAddress(std::uint64_t stripe, std::uint32_t chunk_offset) const
    {
        return stripe * chunkSize_ + chunk_offset;
    }

  private:
    RaidLevel level_;
    std::uint32_t chunkSize_;
    std::uint32_t width_;
};

} // namespace draid::raid

#endif // DRAID_RAID_GEOMETRY_H
