#include "raid/geometry.h"

#include <algorithm>
#include <cassert>

namespace draid::raid {

Geometry::Geometry(RaidLevel level, std::uint32_t chunk_size,
                   std::uint32_t width)
    : level_(level), chunkSize_(chunk_size), width_(width)
{
    assert(chunk_size > 0);
    assert(width >= (level == RaidLevel::kRaid6 ? 4u : 3u));
}

std::uint32_t
Geometry::parityCount() const
{
    return level_ == RaidLevel::kRaid6 ? 2 : 1;
}

std::uint32_t
Geometry::parityDevice(std::uint64_t stripe) const
{
    return width_ - 1 - static_cast<std::uint32_t>(stripe % width_);
}

std::uint32_t
Geometry::qDevice(std::uint64_t stripe) const
{
    assert(level_ == RaidLevel::kRaid6);
    return (parityDevice(stripe) + 1) % width_;
}

std::uint32_t
Geometry::dataDevice(std::uint64_t stripe, std::uint32_t data_idx) const
{
    assert(data_idx < dataChunks());
    const std::uint32_t after_parity =
        level_ == RaidLevel::kRaid6 ? qDevice(stripe) : parityDevice(stripe);
    return (after_parity + 1 + data_idx) % width_;
}

ChunkRole
Geometry::roleOf(std::uint64_t stripe, std::uint32_t dev) const
{
    assert(dev < width_);
    if (dev == parityDevice(stripe))
        return ChunkRole::kParityP;
    if (level_ == RaidLevel::kRaid6 && dev == qDevice(stripe))
        return ChunkRole::kParityQ;
    return ChunkRole::kData;
}

std::uint32_t
Geometry::dataIndexOf(std::uint64_t stripe, std::uint32_t dev) const
{
    assert(roleOf(stripe, dev) == ChunkRole::kData);
    const std::uint32_t after_parity =
        level_ == RaidLevel::kRaid6 ? qDevice(stripe) : parityDevice(stripe);
    return (dev + width_ - after_parity - 1) % width_;
}

std::uint64_t
Geometry::stripeOf(std::uint64_t offset) const
{
    return offset / stripeDataSize();
}

sim::SmallVec<StripeExtents>
Geometry::mapByStripe(std::uint64_t offset, std::uint64_t length) const
{
    sim::SmallVec<StripeExtents> out;
    const std::uint64_t sds = stripeDataSize();
    std::uint64_t pos = offset;
    std::uint64_t remaining = length;
    while (remaining > 0) {
        const std::uint64_t stripe = pos / sds;
        const std::uint64_t in_stripe = pos % sds;
        const auto data_idx =
            static_cast<std::uint32_t>(in_stripe / chunkSize_);
        const auto in_chunk =
            static_cast<std::uint32_t>(in_stripe % chunkSize_);
        const std::uint64_t take =
            std::min<std::uint64_t>(remaining, chunkSize_ - in_chunk);
        if (out.empty() || out.back().stripe != stripe)
            out.push_back(StripeExtents{stripe, {}});
        out.back().extents.push_back(PlacedExtent{
            Extent{stripe, data_idx, in_chunk,
                   static_cast<std::uint32_t>(take)},
            static_cast<std::size_t>(pos - offset)});
        pos += take;
        remaining -= take;
    }
    return out;
}

std::vector<std::uint32_t>
Geometry::rebuildSources(std::uint64_t stripe, std::uint32_t lost) const
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < dataChunks(); ++i) {
        const std::uint32_t dev = dataDevice(stripe, i);
        if (dev != lost)
            out.push_back(dev);
    }
    if (roleOf(stripe, lost) == ChunkRole::kData)
        out.push_back(parityDevice(stripe));
    return out;
}

} // namespace draid::raid
