// Geometry: rotation invariants, role/index inverses, extent mapping.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "raid/geometry.h"

using namespace draid::raid;

namespace {

/** mapByStripe's extents in address order, checking their positions. */
std::vector<Extent>
mapFlat(const Geometry &g, std::uint64_t offset, std::uint64_t length)
{
    std::vector<Extent> out;
    std::size_t pos = 0;
    for (const auto &group : g.mapByStripe(offset, length)) {
        EXPECT_FALSE(group.extents.empty());
        for (const auto &pe : group.extents) {
            EXPECT_EQ(pe.extent.stripe, group.stripe);
            EXPECT_EQ(pe.outPos, pos);
            pos += pe.extent.length;
            out.push_back(pe.extent);
        }
    }
    return out;
}

} // namespace

class GeometryParam
    : public ::testing::TestWithParam<std::tuple<RaidLevel, std::uint32_t>>
{
  protected:
    RaidLevel level() const { return std::get<0>(GetParam()); }
    std::uint32_t width() const { return std::get<1>(GetParam()); }
};

TEST_P(GeometryParam, EveryStripePlacesEveryRoleOnDistinctDevices)
{
    Geometry g(level(), 512 * 1024, width());
    for (std::uint64_t s = 0; s < 3 * width(); ++s) {
        std::set<std::uint32_t> used;
        used.insert(g.parityDevice(s));
        if (level() == RaidLevel::kRaid6)
            used.insert(g.qDevice(s));
        for (std::uint32_t i = 0; i < g.dataChunks(); ++i)
            used.insert(g.dataDevice(s, i));
        EXPECT_EQ(used.size(), width()) << "stripe " << s;
    }
}

TEST_P(GeometryParam, ParityRotatesOverAllDevices)
{
    Geometry g(level(), 64 * 1024, width());
    std::set<std::uint32_t> parity_devs;
    for (std::uint64_t s = 0; s < width(); ++s)
        parity_devs.insert(g.parityDevice(s));
    EXPECT_EQ(parity_devs.size(), width());
}

TEST_P(GeometryParam, RoleAndIndexAreConsistent)
{
    Geometry g(level(), 128 * 1024, width());
    for (std::uint64_t s = 0; s < 2 * width(); ++s) {
        for (std::uint32_t d = 0; d < width(); ++d) {
            const ChunkRole role = g.roleOf(s, d);
            if (role == ChunkRole::kData) {
                const std::uint32_t idx = g.dataIndexOf(s, d);
                EXPECT_EQ(g.dataDevice(s, idx), d);
            } else if (role == ChunkRole::kParityP) {
                EXPECT_EQ(g.parityDevice(s), d);
            } else {
                EXPECT_EQ(g.qDevice(s), d);
            }

            // Rebuilding d alone: the surviving data chunks in data-index
            // order, then P for a lost data chunk; every data chunk for a
            // lost P or Q. The order picks the reducer, so it is exact.
            std::vector<std::uint32_t> want;
            for (std::uint32_t i = 0; i < g.dataChunks(); ++i) {
                if (g.dataDevice(s, i) != d)
                    want.push_back(g.dataDevice(s, i));
            }
            if (role == ChunkRole::kData)
                want.push_back(g.parityDevice(s));
            EXPECT_EQ(g.rebuildSources(s, d), want)
                << "stripe " << s << " lost device " << d;
            EXPECT_EQ(want.size(), g.dataChunks());
        }
    }
}

TEST_P(GeometryParam, DataChunkCountMatchesLevel)
{
    Geometry g(level(), 4096, width());
    const std::uint32_t pc = level() == RaidLevel::kRaid6 ? 2 : 1;
    EXPECT_EQ(g.parityCount(), pc);
    EXPECT_EQ(g.dataChunks(), width() - pc);
    EXPECT_EQ(g.stripeDataSize(),
              static_cast<std::uint64_t>(width() - pc) * 4096);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryParam,
    ::testing::Combine(::testing::Values(RaidLevel::kRaid5,
                                         RaidLevel::kRaid6),
                       ::testing::Values(4u, 5u, 8u, 13u, 18u)));

TEST(Geometry, MapSingleChunkInterior)
{
    Geometry g(RaidLevel::kRaid5, 512 * 1024, 8); // 7 data chunks
    auto ext = mapFlat(g, 100, 1000);
    ASSERT_EQ(ext.size(), 1u);
    EXPECT_EQ(ext[0].stripe, 0u);
    EXPECT_EQ(ext[0].dataIdx, 0u);
    EXPECT_EQ(ext[0].offset, 100u);
    EXPECT_EQ(ext[0].length, 1000u);
}

TEST(Geometry, MapSplitsAcrossChunks)
{
    Geometry g(RaidLevel::kRaid5, 1024, 4); // 3 data chunks, stripe 3072
    auto ext = mapFlat(g, 1000, 2000);
    ASSERT_EQ(ext.size(), 3u);
    EXPECT_EQ(ext[0].dataIdx, 0u);
    EXPECT_EQ(ext[0].offset, 1000u);
    EXPECT_EQ(ext[0].length, 24u);
    EXPECT_EQ(ext[1].dataIdx, 1u);
    EXPECT_EQ(ext[1].length, 1024u);
    EXPECT_EQ(ext[2].dataIdx, 2u);
    EXPECT_EQ(ext[2].length, 952u);
}

TEST(Geometry, MapSplitsAcrossStripes)
{
    Geometry g(RaidLevel::kRaid5, 1024, 4); // stripe data = 3072
    auto ext = mapFlat(g, 3000, 200);
    ASSERT_EQ(ext.size(), 2u);
    EXPECT_EQ(ext[0].stripe, 0u);
    EXPECT_EQ(ext[0].dataIdx, 2u);
    EXPECT_EQ(ext[0].length, 72u);
    EXPECT_EQ(ext[1].stripe, 1u);
    EXPECT_EQ(ext[1].dataIdx, 0u);
    EXPECT_EQ(ext[1].offset, 0u);
    EXPECT_EQ(ext[1].length, 128u);
    // One group per stripe.
    const auto groups = g.mapByStripe(3000, 200);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[1].stripe, 1u);
    EXPECT_EQ(groups[1].extents[0].outPos, 72u);
}

TEST(Geometry, MapTotalLengthPreserved)
{
    Geometry g(RaidLevel::kRaid6, 4096, 6);
    for (std::uint64_t off : {0ull, 100ull, 5000ull, 123456ull}) {
        for (std::uint64_t len : {1ull, 4096ull, 100000ull}) {
            std::uint64_t sum = 0;
            for (const auto &e : mapFlat(g, off, len))
                sum += e.length;
            EXPECT_EQ(sum, len);
        }
    }
}

TEST(Geometry, DeviceAddressLayout)
{
    Geometry g(RaidLevel::kRaid5, 1 << 20, 8);
    EXPECT_EQ(g.deviceAddress(0, 0), 0u);
    EXPECT_EQ(g.deviceAddress(3, 100), 3ull * (1 << 20) + 100);
}

TEST(Geometry, StripeOf)
{
    Geometry g(RaidLevel::kRaid5, 1024, 4); // 3072 per stripe
    EXPECT_EQ(g.stripeOf(0), 0u);
    EXPECT_EQ(g.stripeOf(3071), 0u);
    EXPECT_EQ(g.stripeOf(3072), 1u);
}
