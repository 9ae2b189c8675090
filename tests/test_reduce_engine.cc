// Reduce engine: session bookkeeping, late-Parity tolerance, accumulator
// math.

#include <gtest/gtest.h>

#include "core/reduce_engine.h"
#include "ec/xor_kernel.h"

using namespace draid::core;
using draid::ec::Buffer;

namespace {

/** Reduced bytes at in-chunk offsets [offset, offset+len), via finalWindow. */
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
    EXPECT_GE(s.accEnd, 150u);
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
    ReduceSession s;
    Buffer hi(10);
    hi.fill(0xbb);
    ReduceEngine::absorbNoCount(s, 100, hi);
    EXPECT_EQ(s.accBegin, 100u);
    Buffer lo(20);
    lo.fill(0xaa);
    ReduceEngine::absorbNoCount(s, 95, lo); // overlaps, starts below
    EXPECT_EQ(s.accBegin, 95u);
    EXPECT_EQ(s.accEnd, 115u);
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
    ReduceSession s;
    Buffer a(32);
    a.fill(0x5a);
    ReduceEngine::absorbNoCount(s, 8, a);
    s.acc[0] ^= 0xff;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], 0x5a);
}

TEST(ReduceEngine, FirstAbsorbAdoptsMovedSoleOwner)
{
    ReduceSession s;
    Buffer a(32);
    a.fill(0x5a);
    const std::uint8_t *storage = a.data();
    ReduceEngine::absorbNoCount(s, 8, std::move(a));
    EXPECT_EQ(s.acc.data(), storage);
    Buffer b(32);
    b.fill(0x0f);
    ReduceEngine::absorbNoCount(s, 8, b);
    EXPECT_EQ(s.acc.data(), storage);
    for (std::size_t i = 0; i < s.acc.size(); ++i)
        EXPECT_EQ(s.acc[i], 0x55);
}

TEST(ReduceEngine, ExactlyCoveredWindowIsTheAccumulator)
{
    ReduceSession s;
    Buffer a(64), b(64);
    a.fillPattern(1);
    b.fillPattern(2);
    ReduceEngine::absorbNoCount(s, 32, a);
    ReduceEngine::absorbNoCount(s, 32, b);
    s.baseOffset = 32;
    s.length = 64;
    Buffer w = ReduceEngine::finalWindow(s);
    EXPECT_EQ(w.data(), s.acc.data());
    ASSERT_EQ(w.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(w[i], a[i] ^ b[i]);
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
