// Buffer semantics: sharing, cloning, slicing, patterns.

#include <gtest/gtest.h>

#include <utility>

#include "ec/buffer.h"

using draid::ec::Buffer;

TEST(Buffer, DefaultIsEmpty)
{
    Buffer b;
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, MovedFromIsEmpty)
{
    Buffer a(16);
    Buffer b(std::move(a));
    EXPECT_EQ(b.size(), 16u);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.data(), nullptr);

    Buffer c(8);
    c = std::move(b);
    EXPECT_EQ(c.size(), 16u);
    EXPECT_TRUE(b.empty());
    EXPECT_TRUE(b.contentEquals(Buffer()));
}

TEST(Buffer, AllocatesZeroInitialized)
{
    Buffer b(64);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b[i], 0);
}

TEST(Buffer, CopyIsShared)
{
    Buffer a(16);
    Buffer b = a;
    a[3] = 0xaa;
    EXPECT_EQ(b[3], 0xaa);
}

TEST(Buffer, CloneIsDeep)
{
    Buffer a(16);
    a[3] = 0x11;
    Buffer b = a.clone();
    a[3] = 0x22;
    EXPECT_EQ(b[3], 0x11);
}

TEST(Buffer, SliceExtractsRange)
{
    Buffer a(10);
    for (std::size_t i = 0; i < 10; ++i)
        a[i] = static_cast<std::uint8_t>(i);
    Buffer s = a.slice(3, 4);
    ASSERT_EQ(s.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(s[i], i + 3);
}

TEST(Buffer, WholeRangeSliceSharesStorage)
{
    Buffer a(16);
    EXPECT_TRUE(a.unique());
    Buffer s = a.slice(0, a.size());
    EXPECT_EQ(s.data(), a.data());
    EXPECT_FALSE(a.unique());
    EXPECT_FALSE(s.unique());
}

TEST(Buffer, SubRangeSliceIsIndependent)
{
    Buffer a(16);
    a.fill(0x33);
    Buffer s = a.slice(0, 15);
    EXPECT_TRUE(a.unique());
    EXPECT_TRUE(s.unique());
    s.fill(0xcc);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], 0x33);
}

TEST(Buffer, ContentEquals)
{
    Buffer a(8), b(8), c(9);
    a.fill(0x5a);
    b.fill(0x5a);
    EXPECT_TRUE(a.contentEquals(b));
    EXPECT_FALSE(a.contentEquals(c));
    b[0] = 0;
    EXPECT_FALSE(a.contentEquals(b));
    EXPECT_TRUE(Buffer().contentEquals(Buffer()));
}

TEST(Buffer, PatternIsDeterministicAndSeedSensitive)
{
    Buffer a(256), b(256), c(256);
    a.fillPattern(42);
    b.fillPattern(42);
    c.fillPattern(43);
    EXPECT_TRUE(a.contentEquals(b));
    EXPECT_FALSE(a.contentEquals(c));
}

TEST(Buffer, ConstructFromRawBytes)
{
    const std::uint8_t raw[] = {1, 2, 3, 4};
    Buffer b(raw, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[3], 4);
}
