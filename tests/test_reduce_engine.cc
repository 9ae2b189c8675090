// Reduce engine: session bookkeeping, late-Parity tolerance, the one-pass
// fold of held contributions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/reduce_engine.h"
#include "ec/gf256.h"
#include "ec/xor_kernel.h"
#include "sim/rng.h"

using namespace draid::core;
using draid::ec::Buffer;

namespace {

/**
 * Reduced bytes at in-chunk offsets [offset, offset+len), via finalWindow
 * on a copy of @p s: the copy shares every handle, so the fold writes into
 * none of them and @p s can take further contributions.
 */
Buffer
windowOf(ReduceSession s, std::uint32_t offset, std::uint32_t len)
{
    s.baseOffset = offset;
    s.length = len;
    return ReduceEngine::finalWindow(s);
}

} // namespace

TEST(ReduceEngine, ObtainCreatesOnce)
{
    ReduceEngine eng;
    auto &a = eng.obtain(1);
    a.remaining = 5;
    auto &b = eng.obtain(1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.remaining, 5);
    EXPECT_EQ(eng.activeSessions(), 1u);
}

TEST(ReduceEngine, FindReturnsNullForUnknown)
{
    ReduceEngine eng;
    EXPECT_EQ(eng.find(99), nullptr);
    eng.obtain(99);
    EXPECT_NE(eng.find(99), nullptr);
    eng.erase(99);
    EXPECT_EQ(eng.find(99), nullptr);
}

TEST(ReduceEngine, AbsorbXorsAtOffset)
{
    ReduceSession s;
    Buffer a(100);
    a.fill(0x0f);
    ReduceEngine::absorbNoCount(s, 50, a);
    Buffer w = windowOf(s, 0, 150);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(w[i], 0); // no contribution covers these bytes
    for (int i = 50; i < 150; ++i)
        EXPECT_EQ(w[i], 0x0f);

    Buffer b(100);
    b.fill(0xf0);
    ReduceEngine::absorbNoCount(s, 50, b);
    w = windowOf(s, 0, 150);
    for (int i = 50; i < 150; ++i)
        EXPECT_EQ(w[i], 0xff);
}

TEST(ReduceEngine, AccumulatorGrowsPreservingContent)
{
    ReduceSession s;
    Buffer a(10);
    a.fill(0xaa);
    ReduceEngine::absorbNoCount(s, 0, a);
    Buffer b(10);
    b.fill(0xbb);
    ReduceEngine::absorbNoCount(s, 100, b);
    EXPECT_EQ(windowOf(s, 5, 1)[0], 0xaa);
    EXPECT_EQ(windowOf(s, 105, 1)[0], 0xbb);
}

TEST(ReduceEngine, AccumulatorGrowsDownward)
{
    // A contribution that starts below the first one extends the result
    // downward; bytes outside both read as zero.
    ReduceSession s;
    Buffer hi(10);
    hi.fill(0xbb);
    ReduceEngine::absorbNoCount(s, 100, hi);
    EXPECT_EQ(windowOf(s, 95, 1)[0], 0);
    Buffer lo(20);
    lo.fill(0xaa);
    ReduceEngine::absorbNoCount(s, 95, lo); // overlaps, starts below
    Buffer w = windowOf(s, 90, 30);
    for (int i = 0; i < 30; ++i) {
        const int off = 90 + i;
        std::uint8_t want = 0;
        if (off >= 95 && off < 115)
            want ^= 0xaa;
        if (off >= 100 && off < 110)
            want ^= 0xbb;
        EXPECT_EQ(w[i], want) << "offset " << off;
    }
}

TEST(ReduceEngine, FirstAbsorbDoesNotAliasCallerBuffer)
{
    // The caller keeps its handle to the first contribution, so the fold
    // must not write into it: the result is a buffer of its own.
    ReduceSession s;
    Buffer a(32);
    a.fill(0x5a);
    ReduceEngine::absorbNoCount(s, 8, a);
    Buffer b(32);
    b.fill(0x0f);
    ReduceEngine::absorbNoCount(s, 8, std::move(b));
    s.baseOffset = 8;
    s.length = 32;
    const Buffer w = ReduceEngine::finalWindow(s);
    EXPECT_NE(w.data(), a.data());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], 0x5a);
        EXPECT_EQ(w[i], 0x55);
    }
}

TEST(ReduceEngine, FirstAbsorbAdoptsMovedSoleOwner)
{
    // A contribution moved in is held alone: the fold runs in place in its
    // storage, which becomes the result without a copy.
    ReduceSession s;
    Buffer a(32);
    a.fill(0x5a);
    const std::uint8_t *storage = a.data();
    ReduceEngine::absorbNoCount(s, 8, std::move(a));
    Buffer b(32);
    b.fill(0x0f);
    ReduceEngine::absorbNoCount(s, 8, b);
    s.baseOffset = 8;
    s.length = 32;
    const Buffer w = ReduceEngine::finalWindow(s);
    EXPECT_EQ(w.data(), storage);
    EXPECT_TRUE(w.unique());
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i], 0x55);
        EXPECT_EQ(b[i], 0x0f);
    }
}

TEST(ReduceEngine, ExactlyCoveredWindowIsTheAccumulator)
{
    // When the caller keeps only the second contribution, the first (held
    // alone, covering exactly the window) is the result, not a copy.
    ReduceSession s;
    Buffer a(64), b(64);
    a.fillPattern(1);
    b.fillPattern(2);
    const Buffer want = draid::ec::xorOf(a, b);
    const std::uint8_t *storage = a.data();
    ReduceEngine::absorbNoCount(s, 32, b);
    ReduceEngine::absorbNoCount(s, 32, std::move(a));
    s.baseOffset = 32;
    s.length = 64;
    Buffer w = ReduceEngine::finalWindow(s);
    EXPECT_EQ(w.data(), storage);
    EXPECT_TRUE(w.contentEquals(want));
    EXPECT_TRUE(s.held.empty());
}

TEST(ReduceEngine, CountedAbsorbDecrementsRemaining)
{
    ReduceSession s;
    s.remaining = 2;
    Buffer a(8);
    ReduceEngine::absorb(s, 0, a);
    EXPECT_EQ(s.remaining, 1);
    ReduceEngine::absorb(s, 0, a);
    EXPECT_EQ(s.remaining, 0);
    EXPECT_EQ(s.absorbed, 2u);
}

TEST(ReduceEngine, NotReadyUntilHostCommandSeen)
{
    // The §5.2 non-blocking property: peers may finish first, but the
    // session must not complete before the Parity command arrives.
    ReduceSession s;
    Buffer a(8);
    ReduceEngine::absorb(s, 0, a); // remaining -1, host unseen
    EXPECT_FALSE(ReduceEngine::readyToFinish(s));
    s.hostCmdSeen = true;
    s.remaining += 1; // wait-num from the host command
    EXPECT_TRUE(ReduceEngine::readyToFinish(s));
}

TEST(ReduceEngine, NotReadyWhileContributionsOutstanding)
{
    ReduceSession s;
    s.hostCmdSeen = true;
    s.remaining = 3;
    EXPECT_FALSE(ReduceEngine::readyToFinish(s));
    s.remaining = 0;
    EXPECT_TRUE(ReduceEngine::readyToFinish(s));
}

TEST(ReduceEngine, NotReadyWhilePreloadPending)
{
    ReduceSession s;
    s.hostCmdSeen = true;
    s.remaining = 0;
    s.preloadPending = true;
    EXPECT_FALSE(ReduceEngine::readyToFinish(s));
    s.preloadPending = false;
    EXPECT_TRUE(ReduceEngine::readyToFinish(s));
}

TEST(ReduceEngine, FinalWindowSlicesBaseRange)
{
    ReduceSession s;
    Buffer a(200);
    for (int i = 0; i < 200; ++i)
        a[i] = static_cast<std::uint8_t>(i);
    ReduceEngine::absorbNoCount(s, 0, a);
    s.baseOffset = 40;
    s.length = 10;
    Buffer w = ReduceEngine::finalWindow(s);
    ASSERT_EQ(w.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(w[i], 40 + i);
}

TEST(ReduceEngine, OrderIndependentReduction)
{
    // XOR commutes: any arrival order yields the same final window.
    Buffer p1(64), p2(64), p3(64);
    p1.fillPattern(1);
    p2.fillPattern(2);
    p3.fillPattern(3);

    ReduceSession fwd, rev;
    for (auto *s : {&fwd, &rev}) {
        s->baseOffset = 0;
        s->length = 64;
    }
    ReduceEngine::absorbNoCount(fwd, 0, p1);
    ReduceEngine::absorbNoCount(fwd, 0, p2);
    ReduceEngine::absorbNoCount(fwd, 0, p3);
    ReduceEngine::absorbNoCount(rev, 0, p3);
    ReduceEngine::absorbNoCount(rev, 0, p1);
    ReduceEngine::absorbNoCount(rev, 0, p2);
    EXPECT_TRUE(ReduceEngine::finalWindow(fwd).contentEquals(
        ReduceEngine::finalWindow(rev)));
}

TEST(ReduceEngine, FoldMatchesEagerReference)
{
    // Random ranges, plain and coefficient-marked contributions in random
    // arrival order, some handles kept by the caller: the one-pass fold
    // equals XORing each (multiplied) contribution in as it arrives, and a
    // kept handle's bytes never change.
    const auto &gf = draid::ec::Gf256::instance();
    draid::sim::Rng rng(28);
    for (int round = 0; round < 400; ++round) {
        ReduceSession s;
        s.baseOffset = static_cast<std::uint32_t>(rng.nextBounded(64));
        s.length = static_cast<std::uint32_t>(rng.nextBounded(700));
        std::vector<std::uint8_t> ref(s.length, 0);
        std::vector<Buffer> kept, keptBytes;
        // Every fourth round all contributions share the window's range,
        // so the plain ones outnumber one xorMany group.
        const bool aligned = round % 4 == 0;
        const int n = static_cast<int>(rng.nextBounded(40));
        for (int i = 0; i < n; ++i) {
            std::uint32_t offset = s.baseOffset;
            std::uint32_t size = s.length;
            if (!aligned && rng.nextBool(0.5)) {
                offset = static_cast<std::uint32_t>(rng.nextBounded(800));
                size = 1 + static_cast<std::uint32_t>(rng.nextBounded(600));
            }
            const auto coef =
                rng.nextBool(0.6)
                    ? std::uint8_t{1}
                    : static_cast<std::uint8_t>(1 + rng.nextBounded(255));
            Buffer b(size);
            b.fillPattern(rng.next());
            for (std::uint32_t j = 0; j < size; ++j) {
                const std::uint32_t at = offset + j;
                if (at >= s.baseOffset && at < s.baseOffset + s.length)
                    ref[at - s.baseOffset] ^= gf.mul(coef, b[j]);
            }
            if (rng.nextBool(0.5)) {
                kept.push_back(b);
                keptBytes.push_back(b.clone());
                ReduceEngine::absorb(s, offset, b, coef);
            } else {
                ReduceEngine::absorb(s, offset, std::move(b), coef);
            }
        }
        const Buffer w = ReduceEngine::finalWindow(s);
        ASSERT_EQ(w.size(), s.length) << "round " << round;
        EXPECT_TRUE(std::equal(ref.begin(), ref.end(), w.data()))
            << "round " << round;
        EXPECT_EQ(s.absorbed, static_cast<std::uint32_t>(n));
        EXPECT_TRUE(s.held.empty());
        for (std::size_t k = 0; k < kept.size(); ++k)
            EXPECT_TRUE(kept[k].contentEquals(keptBytes[k]))
                << "round " << round << " kept " << k;
    }
}
