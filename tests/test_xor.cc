// XOR kernels: correctness across sizes and alignments.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ec/buffer.h"
#include "ec/xor_kernel.h"
#include "sim/rng.h"

using namespace draid::ec;

class XorSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(XorSizes, XorIntoMatchesReference)
{
    const std::size_t n = GetParam();
    draid::sim::Rng rng(n + 1);
    std::vector<std::uint8_t> a(n), b(n), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
        ref[i] = a[i] ^ b[i];
    }
    xorInto(a.data(), b.data(), n);
    EXPECT_EQ(a, ref);
}

TEST_P(XorSizes, XorBlocksMatchesReference)
{
    const std::size_t n = GetParam();
    draid::sim::Rng rng(n + 2);
    std::vector<std::uint8_t> a(n), b(n), out(n, 0xcc), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
        ref[i] = a[i] ^ b[i];
    }
    xorBlocks(out.data(), a.data(), b.data(), n);
    EXPECT_EQ(out, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, XorSizes,
                         ::testing::Values(0, 1, 7, 31, 32, 33, 63, 64, 100,
                                           4096, 65537));

namespace {

using draid::ec::detail::XorKernels;

std::uint8_t
byteOf(std::size_t i, unsigned salt)
{
    return static_cast<std::uint8_t>(i * 29 + salt * 71 + 7);
}

/**
 * 0-200 bytes (every mix of 64-byte steps, 16-byte steps and tail) and
 * 4096 + 1..63 (a page plus every tail).
 */
std::vector<std::size_t>
kernelLengths()
{
    std::vector<std::size_t> lens;
    for (std::size_t n = 0; n <= 200; ++n)
        lens.push_back(n);
    for (std::size_t n = 1; n < 64; ++n)
        lens.push_back(4096 + n);
    return lens;
}

} // namespace

class XorKernelBody : public ::testing::TestWithParam<bool>
{
  protected:
    const XorKernels &body() const
    {
        return GetParam() ? draid::ec::detail::portableXorKernels()
                          : draid::ec::detail::selectedXorKernels();
    }
};

TEST_P(XorKernelBody, MisalignedRangesTouchOnlyTheirBytes)
{
    // dst, a and b each start at their own offset from a 64-byte guard;
    // bytes outside [dst, dst + len) and both inputs must stay as they were.
    constexpr std::size_t kGuard = 64;
    struct Offsets
    {
        std::size_t dst, a, b;
    };
    const Offsets offsets[] = {{0, 0, 0}, {1, 2, 3}, {15, 0, 9}, {7, 13, 1}};
    const XorKernels &k = body();
    int mismatches = 0;
    for (const std::size_t len : kernelLengths()) {
        const std::size_t size = len + 2 * kGuard + 16;
        const unsigned a_salt = 2 + static_cast<unsigned>(len);
        std::vector<std::uint8_t> dst(size), a(size), b(size);
        for (const Offsets &o : offsets) {
            for (std::size_t i = 0; i < size; ++i) {
                dst[i] = byteOf(i, 1);
                a[i] = byteOf(i, a_salt);
                b[i] = byteOf(i, 3);
            }
            std::uint8_t *d = dst.data() + kGuard + o.dst;
            const std::uint8_t *pa = a.data() + kGuard + o.a;
            const std::uint8_t *pb = b.data() + kGuard + o.b;
            const auto expect = [&](std::size_t i, bool into) {
                const std::size_t at = kGuard + o.dst;
                if (i < at || i >= at + len)
                    return byteOf(i, 1);
                const std::uint8_t lhs = into ? byteOf(i, 1) : pa[i - at];
                return static_cast<std::uint8_t>(lhs ^ pb[i - at]);
            };

            k.blocks(d, pa, pb, len);
            for (std::size_t i = 0; i < size; ++i)
                mismatches += dst[i] != expect(i, false);
            for (std::size_t i = 0; i < size; ++i)
                dst[i] = byteOf(i, 1);
            k.blocks(d, d, pb, len); // the xorInto form
            for (std::size_t i = 0; i < size; ++i) {
                mismatches += dst[i] != expect(i, true);
                mismatches += a[i] != byteOf(i, a_salt);
                mismatches += b[i] != byteOf(i, 3);
            }
        }
        ASSERT_EQ(mismatches, 0) << "len=" << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Bodies, XorKernelBody, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &param) {
                             return param.param ? std::string("portable")
                                               : std::string("selected");
                         });

TEST(Xor, ManySourcesMatchPortableBody)
{
    // k = 1..8 sources of 0..1000 bytes at their own misalignments; the
    // selected body must equal the portable one (itself checked against a
    // byte-wise reference), also with dst aliasing the first source, and
    // leave every byte outside [dst, dst + len) and every source alone.
    constexpr std::size_t kGuard = 64;
    constexpr std::size_t kMaxLen = 1000;
    constexpr std::size_t kMaxK = 8;
    const XorKernels &portable = draid::ec::detail::portableXorKernels();
    const XorKernels &selected = draid::ec::detail::selectedXorKernels();
    const std::size_t size = kMaxLen + 2 * kGuard + 16;
    std::vector<std::vector<std::uint8_t>> src(kMaxK,
                                               std::vector<std::uint8_t>(size));
    std::vector<std::uint8_t> got(size), want(size), ref(size);
    int mismatches = 0;
    for (std::size_t k = 1; k <= kMaxK; ++k) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::size_t dst_off = (len + k) % 16;
            const std::uint8_t *srcs[kMaxK];
            for (std::size_t s = 0; s < k; ++s) {
                for (std::size_t i = 0; i < size; ++i)
                    src[s][i] = byteOf(i, static_cast<unsigned>(s + len));
                srcs[s] = src[s].data() + kGuard + (s * 5 + len) % 16;
            }
            for (std::size_t i = 0; i < size; ++i)
                got[i] = want[i] = ref[i] = byteOf(i, 99);
            const std::size_t at = kGuard + dst_off;
            for (std::size_t i = 0; i < len; ++i) {
                std::uint8_t x = 0;
                for (std::size_t s = 0; s < k; ++s)
                    x ^= srcs[s][i];
                ref[at + i] = x;
            }
            portable.many(want.data() + at, srcs, k, len);
            selected.many(got.data() + at, srcs, k, len);
            mismatches += want != ref;
            mismatches += got != want;

            // The in-place form: dst is the first source.
            std::vector<std::uint8_t> first = src[0];
            const std::size_t first_off = srcs[0] - src[0].data();
            srcs[0] = first.data() + first_off;
            selected.many(first.data() + first_off, srcs, k, len);
            for (std::size_t i = 0; i < size; ++i) {
                const bool in = i >= first_off && i < first_off + len;
                mismatches += first[i] !=
                              (in ? ref[at + i - first_off] : src[0][i]);
            }
            for (std::size_t s = 1; s < k; ++s) {
                for (std::size_t i = 0; i < size; ++i)
                    mismatches +=
                        src[s][i] != byteOf(i, static_cast<unsigned>(s + len));
            }
            ASSERT_EQ(mismatches, 0) << "k=" << k << " len=" << len;
        }
    }
}

TEST(Xor, PublicKernelsNameTheSelectedBody)
{
    EXPECT_STREQ(xorKernelName(),
                 draid::ec::detail::selectedXorKernels().name);
#ifdef __SSE2__
    EXPECT_STREQ(xorKernelName(), "sse2");
#endif
}

TEST(Xor, SelfInverse)
{
    Buffer a(1024), b(1024);
    a.fillPattern(1);
    b.fillPattern(2);
    Buffer x = xorOf(a, b);
    Buffer back = xorOf(x, b);
    EXPECT_TRUE(back.contentEquals(a));
}

TEST(Xor, Commutative)
{
    Buffer a(512), b(512);
    a.fillPattern(3);
    b.fillPattern(4);
    EXPECT_TRUE(xorOf(a, b).contentEquals(xorOf(b, a)));
}

TEST(Xor, Associative)
{
    Buffer a(512), b(512), c(512);
    a.fillPattern(5);
    b.fillPattern(6);
    c.fillPattern(7);
    EXPECT_TRUE(
        xorOf(xorOf(a, b), c).contentEquals(xorOf(a, xorOf(b, c))));
}

TEST(Xor, ZeroIsIdentity)
{
    Buffer a(128), z(128);
    a.fillPattern(8);
    EXPECT_TRUE(xorOf(a, z).contentEquals(a));
}

TEST(Xor, BufferInPlace)
{
    Buffer a(64), b(64);
    a.fillPattern(9);
    b.fillPattern(10);
    Buffer expect = xorOf(a, b);
    xorInto(a, b);
    EXPECT_TRUE(a.contentEquals(expect));
}
