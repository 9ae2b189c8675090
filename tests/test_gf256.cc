// GF(2^8) field axioms and RAID-6 generator properties.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "ec/gf256.h"
#include "ec/gf256_kernels.h"

using draid::ec::Gf256;

TEST(Gf256, MultiplicationByZeroAndOne)
{
    const auto &gf = Gf256::instance();
    for (int a = 0; a < 256; ++a) {
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
        EXPECT_EQ(gf.mul(0, static_cast<std::uint8_t>(a)), 0);
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1), a);
    }
}

TEST(Gf256, MultiplicationCommutative)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 7) {
        for (int b = 1; b < 256; b += 11) {
            EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                      gf.mul(static_cast<std::uint8_t>(b),
                             static_cast<std::uint8_t>(a)));
        }
    }
}

TEST(Gf256, MultiplicationAssociative)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 31) {
        for (int b = 1; b < 256; b += 37) {
            for (int c = 1; c < 256; c += 41) {
                const auto x = static_cast<std::uint8_t>(a);
                const auto y = static_cast<std::uint8_t>(b);
                const auto z = static_cast<std::uint8_t>(c);
                EXPECT_EQ(gf.mul(gf.mul(x, y), z), gf.mul(x, gf.mul(y, z)));
            }
        }
    }
}

TEST(Gf256, DistributesOverXor)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 13) {
        for (int b = 0; b < 256; b += 17) {
            for (int c = 0; c < 256; c += 19) {
                const auto x = static_cast<std::uint8_t>(a);
                const auto y = static_cast<std::uint8_t>(b);
                const auto z = static_cast<std::uint8_t>(c);
                EXPECT_EQ(gf.mul(x, y ^ z), gf.mul(x, y) ^ gf.mul(x, z));
            }
        }
    }
}

TEST(Gf256, InverseRoundTrips)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; ++a) {
        const auto x = static_cast<std::uint8_t>(a);
        EXPECT_EQ(gf.mul(x, gf.inv(x)), 1) << "a=" << a;
    }
}

TEST(Gf256, DivisionInvertsMultiplication)
{
    const auto &gf = Gf256::instance();
    for (int a = 0; a < 256; a += 5) {
        for (int b = 1; b < 256; b += 9) {
            const auto x = static_cast<std::uint8_t>(a);
            const auto y = static_cast<std::uint8_t>(b);
            EXPECT_EQ(gf.div(gf.mul(x, y), y), x);
        }
    }
}

TEST(Gf256, GeneratorHasFullOrder)
{
    const auto &gf = Gf256::instance();
    // g = 2 generates the whole multiplicative group: g^i distinct for
    // i in [0, 255).
    bool seen[256] = {};
    for (unsigned i = 0; i < 255; ++i) {
        const auto v = gf.pow2(i);
        EXPECT_NE(v, 0);
        EXPECT_FALSE(seen[v]) << "repeat at i=" << i;
        seen[v] = true;
    }
    EXPECT_EQ(gf.pow2(255), gf.pow2(0));
}

TEST(Gf256, Pow2MatchesRepeatedDoubling)
{
    const auto &gf = Gf256::instance();
    std::uint8_t v = 1;
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(gf.pow2(i), v);
        v = gf.mul(v, 2);
    }
}

TEST(Gf256, MulAccumMatchesScalarLoop)
{
    const auto &gf = Gf256::instance();
    std::uint8_t src[257], dst[257], ref[257];
    for (int i = 0; i < 257; ++i) {
        src[i] = static_cast<std::uint8_t>(i * 7 + 3);
        dst[i] = static_cast<std::uint8_t>(i * 13 + 5);
        ref[i] = dst[i] ^ gf.mul(0x1d, src[i]);
    }
    gf.mulAccum(0x1d, src, dst, 257);
    for (int i = 0; i < 257; ++i)
        EXPECT_EQ(dst[i], ref[i]);
}

TEST(Gf256, MulBlockByZeroClears)
{
    const auto &gf = Gf256::instance();
    std::uint8_t src[16], dst[16];
    for (int i = 0; i < 16; ++i) {
        src[i] = static_cast<std::uint8_t>(i + 1);
        dst[i] = 0xff;
    }
    gf.mulBlock(0, src, dst, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dst[i], 0);
}

TEST(Gf256, KernelNameIsTheSelectedBody)
{
    const std::string name = Gf256::instance().kernelName();
    EXPECT_EQ(name, draid::ec::detail::selectedGfKernels().name);
    EXPECT_TRUE(name == "ssse3" || name == "portable") << name;
}

namespace {

/** The three block kernels of one body, addressed by coefficient. */
struct GfBody
{
    std::function<void(std::uint8_t, const std::uint8_t *, std::uint8_t *,
                       std::size_t)>
        mulBlock, mulAccum;
    std::function<void(std::uint8_t, const std::uint8_t *, std::uint8_t *,
                       std::uint8_t *, std::size_t)>
        xorMulAccum;
};

/** The public Gf256 kernels (the body selected for this CPU). */
GfBody
publicBody()
{
    const auto &gf = Gf256::instance();
    return {[&gf](std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) { gf.mulBlock(c, src, dst, len); },
            [&gf](std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) { gf.mulAccum(c, src, dst, len); },
            [&gf](std::uint8_t c, const std::uint8_t *src, std::uint8_t *p,
                  std::uint8_t *q, std::size_t len) {
                gf.xorMulAccum(c, src, p, q, len);
            }};
}

/** The portable body, called directly so it runs on every CPU. */
GfBody
portableBody()
{
    const auto &gf = Gf256::instance();
    const auto &k = draid::ec::detail::portableGfKernels();
    return {[&gf, &k](std::uint8_t c, const std::uint8_t *src,
                      std::uint8_t *dst, std::size_t len) {
                k.mulBlock(gf.tables(c), src, nullptr, dst, len);
            },
            [&gf, &k](std::uint8_t c, const std::uint8_t *src,
                      std::uint8_t *dst, std::size_t len) {
                k.mulAccum(gf.tables(c), src, nullptr, dst, len);
            },
            [&gf, &k](std::uint8_t c, const std::uint8_t *src,
                      std::uint8_t *p, std::uint8_t *q, std::size_t len) {
                k.xorMulAccum(gf.tables(c), src, p, q, len);
            }};
}

std::uint8_t
byteOf(std::size_t i, unsigned salt)
{
    return static_cast<std::uint8_t>(i * 29 + salt * 71 + 7);
}

} // namespace

class GfKernelBody : public ::testing::TestWithParam<bool>
{
  protected:
    GfBody body() const { return GetParam() ? portableBody() : publicBody(); }
};

TEST_P(GfKernelBody, EveryCoefficientTimesEveryByteMatchesMul)
{
    // 256 source bytes (every value) plus 13 more, so the 16-byte body and
    // the scalar tail both see every value.
    const auto &gf = Gf256::instance();
    const GfBody k = body();
    constexpr std::size_t kLen = 256 + 13;
    std::vector<std::uint8_t> src(kLen), dst(kLen), p(kLen), q(kLen);
    for (std::size_t i = 0; i < kLen; ++i)
        src[i] = static_cast<std::uint8_t>(i);
    int mismatches = 0;
    for (int ci = 0; ci < 256; ++ci) {
        const auto c = static_cast<std::uint8_t>(ci);
        k.mulBlock(c, src.data(), dst.data(), kLen);
        for (std::size_t i = 0; i < kLen; ++i)
            mismatches += dst[i] != gf.mul(c, src[i]);

        for (std::size_t i = 0; i < kLen; ++i)
            dst[i] = byteOf(i, 1);
        k.mulAccum(c, src.data(), dst.data(), kLen);
        for (std::size_t i = 0; i < kLen; ++i)
            mismatches += dst[i] != (byteOf(i, 1) ^ gf.mul(c, src[i]));

        for (std::size_t i = 0; i < kLen; ++i) {
            p[i] = byteOf(i, 2);
            q[i] = byteOf(i, 3);
        }
        k.xorMulAccum(c, src.data(), p.data(), q.data(), kLen);
        for (std::size_t i = 0; i < kLen; ++i) {
            mismatches += p[i] != (byteOf(i, 2) ^ src[i]);
            mismatches += q[i] != (byteOf(i, 3) ^ gf.mul(c, src[i]));
        }
        ASSERT_EQ(mismatches, 0) << "c=" << ci;
    }
}

TEST_P(GfKernelBody, ShortMisalignedBlocksTouchOnlyTheirRange)
{
    // Lengths 0-47 at odd offsets: the 16-byte body runs zero to two
    // times, then the tail; bytes around the range must stay as they were.
    const auto &gf = Gf256::instance();
    const GfBody k = body();
    constexpr std::size_t kPad = 64;
    const std::uint8_t coeffs[] = {0, 1, 2, 0x1d, 0x53, 0x8e, 0xff};
    int mismatches = 0;
    for (std::size_t len = 0; len < 48; ++len) {
        for (std::size_t src_off : {1u, 3u, 8u}) {
            for (std::size_t dst_off : {0u, 5u, 15u}) {
                for (std::uint8_t c : coeffs) {
                    std::uint8_t src[kPad + 48], dst[kPad + 48],
                        p[kPad + 48], q[kPad + 48];
                    for (std::size_t i = 0; i < sizeof(src); ++i) {
                        src[i] = byteOf(i, static_cast<unsigned>(4 + len));
                        dst[i] = byteOf(i, 5);
                        p[i] = byteOf(i, 6);
                        q[i] = byteOf(i, 7);
                    }
                    const std::uint8_t *s = src + src_off;
                    k.mulBlock(c, s, dst + dst_off, len);
                    k.xorMulAccum(c, s, p + dst_off, q + dst_off, len);
                    for (std::size_t i = 0; i < sizeof(dst); ++i) {
                        const bool in = i >= dst_off && i < dst_off + len;
                        const std::uint8_t prod =
                            in ? gf.mul(c, s[i - dst_off]) : 0;
                        mismatches += dst[i] != (in ? prod : byteOf(i, 5));
                        mismatches +=
                            p[i] != (byteOf(i, 6) ^ (in ? s[i - dst_off] : 0));
                        mismatches += q[i] != (byteOf(i, 7) ^ prod);
                    }
                    for (std::size_t i = 0; i < sizeof(dst); ++i)
                        dst[i] = byteOf(i, 5);
                    k.mulAccum(c, s, dst + dst_off, len);
                    for (std::size_t i = 0; i < sizeof(dst); ++i) {
                        const bool in = i >= dst_off && i < dst_off + len;
                        mismatches +=
                            dst[i] != (byteOf(i, 5) ^
                                       (in ? gf.mul(c, s[i - dst_off]) : 0));
                    }
                }
            }
        }
        ASSERT_EQ(mismatches, 0) << "len=" << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Bodies, GfKernelBody, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &param) {
                             return param.param ? std::string("portable")
                                               : std::string("selected");
                         });
