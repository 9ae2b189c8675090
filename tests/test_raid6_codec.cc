// RAID-6 codec: P+Q generation and every one/two-erasure recovery case.

#include <gtest/gtest.h>

#include <vector>

#include "ec/gf256.h"
#include "ec/raid6_codec.h"
#include "ec/xor_kernel.h"

using namespace draid::ec;

namespace {

std::vector<Buffer>
makeData(std::size_t k, std::size_t len, std::uint64_t seed)
{
    std::vector<Buffer> data;
    for (std::size_t i = 0; i < k; ++i) {
        Buffer b(len);
        b.fillPattern(seed * 1000 + i);
        data.push_back(b);
    }
    return data;
}

/**
 * The two-pass reference for the survivors' parities: zeroed P and Q, then
 * one xorInto and one mulAccum per chunk other than @p skip_a, @p skip_b.
 */
void
twoPassPQ(const std::vector<Buffer> &data, std::size_t len,
          std::size_t skip_a, std::size_t skip_b, Buffer &p, Buffer &q)
{
    const auto &gf = Gf256::instance();
    p = Buffer(len);
    q = Buffer(len);
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (i == skip_a || i == skip_b)
            continue;
        xorInto(p, data[i]);
        gf.mulAccum(gf.pow2(static_cast<unsigned>(i)), data[i].data(),
                    q.data(), len);
    }
}

// Lengths that leave a tail after the 16-byte kernel body.
const std::size_t kOddLengths[] = {1, 15, 17, 100, 1001};

} // namespace

class Raid6Widths : public ::testing::TestWithParam<int>
{
};

TEST_P(Raid6Widths, RecoverOneDataWithP)
{
    const int k = GetParam();
    auto data = makeData(k, 1024, 1);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int lost = 0; lost < k; ++lost) {
        Buffer rec = Raid6Codec::recoverDataWithP(data, p, lost);
        EXPECT_TRUE(rec.contentEquals(data[lost]));
    }
}

TEST_P(Raid6Widths, RecoverOneDataWithQ)
{
    const int k = GetParam();
    auto data = makeData(k, 1024, 2);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int lost = 0; lost < k; ++lost) {
        Buffer rec = Raid6Codec::recoverDataWithQ(data, q, lost);
        EXPECT_TRUE(rec.contentEquals(data[lost])) << "lost=" << lost;
    }
}

TEST_P(Raid6Widths, RecoverTwoDataAllPairs)
{
    const int k = GetParam();
    auto data = makeData(k, 512, 3);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int x = 0; x < k; ++x) {
        for (int y = x + 1; y < k; ++y) {
            auto broken = data;
            broken[x] = Buffer();
            broken[y] = Buffer();
            Raid6Codec::recoverTwoData(broken, p, q, x, y);
            EXPECT_TRUE(broken[x].contentEquals(data[x]))
                << "x=" << x << " y=" << y;
            EXPECT_TRUE(broken[y].contentEquals(data[y]))
                << "x=" << x << " y=" << y;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, Raid6Widths,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

TEST(Raid6Codec, GenericRecoverEveryCase)
{
    const int k = 6;
    auto data = makeData(k, 256, 4);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    struct Case
    {
        int d1, d2; // data indices to erase, -1 = none
        bool erase_p, erase_q;
    };
    const Case cases[] = {
        {2, -1, false, false}, {-1, -1, true, false},
        {-1, -1, false, true}, {3, -1, true, false},
        {4, -1, false, true},  {1, 5, false, false},
        {-1, -1, true, true},
    };

    for (const auto &c : cases) {
        auto d = data;
        Buffer tp = p.clone(), tq = q.clone();
        if (c.d1 >= 0)
            d[c.d1] = Buffer();
        if (c.d2 >= 0)
            d[c.d2] = Buffer();
        if (c.erase_p)
            tp = Buffer();
        if (c.erase_q)
            tq = Buffer();

        ASSERT_TRUE(Raid6Codec::recover(d, tp, tq));
        for (int i = 0; i < k; ++i)
            EXPECT_TRUE(d[i].contentEquals(data[i])) << "chunk " << i;
        EXPECT_TRUE(tp.contentEquals(p));
        EXPECT_TRUE(tq.contentEquals(q));
    }
}

TEST(Raid6Codec, RecoverRejectsThreeErasures)
{
    auto data = makeData(5, 128, 6);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    data[0] = Buffer();
    data[1] = Buffer();
    Buffer tp; // P also missing
    EXPECT_FALSE(Raid6Codec::recover(data, tp, q));
}

TEST(Raid6Codec, QDeltaUpdateEqualsRecompute)
{
    auto data = makeData(7, 2048, 8);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    Buffer updated(2048);
    updated.fillPattern(555);
    Buffer delta(2048);
    for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] = data[4][i] ^ updated[i];

    Raid6Codec::applyQDelta(q, delta, 4);
    data[4] = updated;
    Buffer q2 = Raid6Codec::computeQ(data);
    EXPECT_TRUE(q.contentEquals(q2));
}

TEST(Raid6Codec, PAndQDiffer)
{
    // Q must not degenerate to P (coefficients must matter) for k >= 2.
    auto data = makeData(4, 128, 9);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    EXPECT_FALSE(p.contentEquals(q));
}

TEST(Raid6Codec, FusedPQMatchesTwoPassReference)
{
    for (std::size_t k = 1; k <= 16; ++k) {
        for (std::size_t len : kOddLengths) {
            auto data = makeData(k, len, 10 + k);
            Buffer p, q, ref_p, ref_q;
            Raid6Codec::computePQ(data, p, q);
            twoPassPQ(data, len, k, k, ref_p, ref_q);
            EXPECT_TRUE(p.contentEquals(ref_p)) << "k=" << k << " len=" << len;
            EXPECT_TRUE(q.contentEquals(ref_q)) << "k=" << k << " len=" << len;
        }
    }
}

TEST(Raid6Codec, RecoverTwoDataMatchesTwoPassReference)
{
    const auto &gf = Gf256::instance();
    for (std::size_t k = 2; k <= 16; ++k) {
        for (std::size_t len : kOddLengths) {
            const auto data = makeData(k, len, 40 + k);
            Buffer p, q;
            Raid6Codec::computePQ(data, p, q);
            for (std::size_t x = 0; x < k; ++x) {
                for (std::size_t y = x + 1; y < k; ++y) {
                    auto broken = data;
                    broken[x] = Buffer();
                    broken[y] = Buffer();
                    Raid6Codec::recoverTwoData(broken, p, q, x, y);

                    // Anvin's closed form over the two-pass parities.
                    Buffer pxy, qxy;
                    twoPassPQ(data, len, x, y, pxy, qxy);
                    const auto gyx = gf.pow2(static_cast<unsigned>(y - x));
                    const auto denom = static_cast<std::uint8_t>(gyx ^ 1);
                    const auto a = gf.div(gyx, denom);
                    const auto b = gf.div(
                        gf.inv(gf.pow2(static_cast<unsigned>(x))), denom);
                    Buffer dx(len), dy(len);
                    for (std::size_t i = 0; i < len; ++i) {
                        const std::uint8_t pd = p[i] ^ pxy[i];
                        const std::uint8_t qd = q[i] ^ qxy[i];
                        dx[i] = gf.mul(a, pd) ^ gf.mul(b, qd);
                        dy[i] = pd ^ dx[i];
                    }
                    EXPECT_TRUE(broken[x].contentEquals(dx))
                        << "k=" << k << " len=" << len << " x=" << x
                        << " y=" << y;
                    EXPECT_TRUE(broken[y].contentEquals(dy))
                        << "k=" << k << " len=" << len << " x=" << x
                        << " y=" << y;
                    EXPECT_TRUE(broken[x].contentEquals(data[x]));
                    EXPECT_TRUE(broken[y].contentEquals(data[y]));
                }
            }
        }
    }
}
