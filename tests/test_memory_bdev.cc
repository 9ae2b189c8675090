// MemoryBdev: sparse, byte-exact store semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "blockdev/memory_bdev.h"
#include "sim/rng.h"

using namespace draid::blockdev;
using draid::ec::Buffer;

TEST(MemoryBdev, ReportsCapacity)
{
    MemoryBdev dev(1 << 20);
    EXPECT_EQ(dev.sizeBytes(), 1u << 20);
}

TEST(MemoryBdev, FreshDeviceReadsZeros)
{
    MemoryBdev dev(1 << 20);
    Buffer b = dev.readSync(1000, 512);
    Buffer zeros(512);
    EXPECT_TRUE(b.contentEquals(zeros));
    EXPECT_EQ(dev.pagesAllocated(), 0u);
}

TEST(MemoryBdev, WriteReadRoundTrip)
{
    MemoryBdev dev(8 << 20);
    Buffer data(4096);
    data.fillPattern(11);
    dev.writeSync(12345, data);
    EXPECT_TRUE(dev.readSync(12345, 4096).contentEquals(data));
}

TEST(MemoryBdev, WriteSpanningPages)
{
    MemoryBdev dev(8 << 20);
    // Extents are 256 KB; span the boundary between the first two.
    const std::uint64_t off = 256 * 1024 - 100;
    Buffer data(300);
    data.fillPattern(12);
    dev.writeSync(off, data);
    EXPECT_TRUE(dev.readSync(off, 300).contentEquals(data));
    EXPECT_EQ(dev.pagesAllocated(), 2u);
}

TEST(MemoryBdev, PartialOverwrite)
{
    MemoryBdev dev(1 << 20);
    Buffer first(1000);
    first.fill(0xaa);
    dev.writeSync(0, first);
    Buffer patch(100);
    patch.fill(0xbb);
    dev.writeSync(450, patch);

    Buffer got = dev.readSync(0, 1000);
    for (int i = 0; i < 450; ++i)
        EXPECT_EQ(got[i], 0xaa);
    for (int i = 450; i < 550; ++i)
        EXPECT_EQ(got[i], 0xbb);
    for (int i = 550; i < 1000; ++i)
        EXPECT_EQ(got[i], 0xaa);
}

TEST(MemoryBdev, AsyncInterfaceCompletesInline)
{
    MemoryBdev dev(1 << 20);
    bool wrote = false, read = false;
    Buffer data(64);
    data.fill(0x42);
    dev.write(0, data, [&](IoStatus st) { wrote = st == IoStatus::kOk; });
    dev.read(0, 64, [&](IoStatus st, Buffer b) {
        read = st == IoStatus::kOk && b.contentEquals(Buffer(64)) == false;
    });
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
}

TEST(MemoryBdev, SparseAllocationOnlyTouchedPages)
{
    MemoryBdev dev(1ull << 40); // 1 TB logical, no allocation yet
    dev.writeSync(1ull << 39, Buffer(128));
    EXPECT_EQ(dev.pagesAllocated(), 1u);
}

namespace {

constexpr std::uint64_t kSlot = 4 * 1024;
constexpr std::uint64_t kExtent = 256 * 1024;

Buffer
filled(std::size_t n, std::uint8_t value)
{
    Buffer b(n);
    b.fill(value);
    return b;
}

Buffer
patterned(std::size_t n, std::uint64_t seed)
{
    Buffer b(n);
    b.fillPattern(seed);
    return b;
}

} // namespace

TEST(MemoryBdev, UniformPartialWriteOfNewValueMaterializesOnlyItsSlot)
{
    MemoryBdev dev(1 << 20);
    dev.writeSync(0, filled(3 * kSlot, 0x11));
    const std::size_t uniform = dev.residentBytes();

    // Rewriting part of a slot with its own fill value changes nothing.
    dev.writeSync(kSlot + 10, filled(100, 0x11));
    EXPECT_EQ(dev.residentBytes(), uniform);

    // A different value materializes exactly that one 4 KB page.
    dev.writeSync(kSlot + 50, filled(100, 0x22));
    EXPECT_EQ(dev.residentBytes(), uniform + kSlot);

    Buffer got = dev.readSync(0, 3 * kSlot);
    for (std::uint64_t i = 0; i < 3 * kSlot; ++i) {
        const bool patched = i >= kSlot + 50 && i < kSlot + 150;
        ASSERT_EQ(got[i], patched ? 0x22 : 0x11) << "byte " << i;
    }
}

TEST(MemoryBdev, WholePageUniformOverwriteFreesThePage)
{
    MemoryBdev dev(1 << 20);
    dev.writeSync(0, filled(kExtent, 0));
    const std::size_t empty = dev.residentBytes();
    dev.writeSync(2 * kSlot, patterned(kSlot, 5));
    const std::size_t materialized = dev.residentBytes();
    EXPECT_EQ(materialized, empty + kSlot);

    dev.writeSync(2 * kSlot, filled(kSlot, 0x33));
    EXPECT_EQ(dev.residentBytes(), empty);
    EXPECT_TRUE(dev.readSync(2 * kSlot, kSlot).contentEquals(
        filled(kSlot, 0x33)));
    EXPECT_EQ(dev.pagesAllocated(), 1u);
}

TEST(MemoryBdev, ReadSpansAbsentExtentUniformSlotAndMaterializedSlot)
{
    MemoryBdev dev(1 << 20);
    const Buffer pattern = patterned(kSlot, 9);
    dev.writeSync(kExtent, filled(kSlot, 0x44));
    dev.writeSync(kExtent + kSlot, pattern);
    EXPECT_EQ(dev.pagesAllocated(), 1u);

    const std::uint64_t lead = 1000; // bytes from the untouched extent 0
    Buffer got = dev.readSync(kExtent - lead, lead + 2 * kSlot);
    for (std::uint64_t i = 0; i < lead; ++i)
        ASSERT_EQ(got[i], 0) << "byte " << i;
    for (std::uint64_t i = 0; i < kSlot; ++i)
        ASSERT_EQ(got[lead + i], 0x44) << "byte " << lead + i;
    EXPECT_EQ(std::memcmp(got.data() + lead + kSlot, pattern.data(), kSlot),
              0);
}

// Seeded random writes and reads against a flat reference image. Offsets
// sit near 4 KB slot and 256 KB extent boundaries, lengths straddle them,
// and payloads mix uniform fills (0 included) with patterned bytes.
TEST(MemoryBdev, MatchesFlatReferenceUnderRandomWrites)
{
    constexpr std::uint64_t kCapacity = 2 * 1024 * 1024;
    MemoryBdev dev(kCapacity);
    std::vector<std::uint8_t> ref(kCapacity, 0);
    std::set<std::uint64_t> touched;
    draid::sim::Rng rng(20261017);

    auto pickRange = [&](std::uint64_t &off, std::uint64_t &len) {
        const std::uint64_t unit = rng.nextBool(0.3) ? kExtent : kSlot;
        const std::uint64_t boundary =
            rng.nextBounded(kCapacity / unit + 1) * unit;
        const std::int64_t jitter = rng.nextRange(-300, 300);
        off = std::min<std::uint64_t>(
            kCapacity - 1,
            static_cast<std::uint64_t>(std::max<std::int64_t>(
                0, static_cast<std::int64_t>(boundary) + jitter)));
        const std::uint64_t shape = rng.nextBounded(4);
        if (shape == 0)
            len = 1 + rng.nextBounded(200);
        else if (shape == 1)
            len = kSlot;
        else if (shape == 2)
            len = kSlot * (1 + rng.nextBounded(8)) + rng.nextBounded(300);
        else
            len = 1 + rng.nextBounded(kExtent + kSlot);
        len = std::min(len, kCapacity - off);
    };

    for (int step = 0; step < 4000; ++step) {
        std::uint64_t off = 0;
        std::uint64_t len = 0;
        pickRange(off, len);
        if (rng.nextBool(0.6)) {
            Buffer data(len);
            if (rng.nextBool(0.5)) {
                const std::uint8_t v = rng.nextBool(0.4)
                                           ? 0
                                           : static_cast<std::uint8_t>(
                                                 rng.nextBounded(4));
                data.fill(v);
            } else {
                data.fillPattern(rng.next());
            }
            dev.writeSync(off, data);
            std::memcpy(ref.data() + off, data.data(), len);
            for (std::uint64_t e = off / kExtent;
                 e <= (off + len - 1) / kExtent; ++e)
                touched.insert(e);
        } else {
            const auto n = static_cast<std::uint32_t>(len);
            Buffer got = dev.readSync(off, n);
            ASSERT_EQ(std::memcmp(got.data(), ref.data() + off, len), 0)
                << "step " << step << " read [" << off << ", +" << len
                << ")";
            // The same read with an operand returns ref ^ operand and
            // leaves the operand as it was.
            const Buffer operand = patterned(len, rng.next());
            const Buffer kept = operand.clone();
            Buffer delta = dev.readSync(off, n, operand);
            for (std::uint64_t i = 0; i < len; ++i) {
                ASSERT_EQ(delta[i], ref[off + i] ^ operand[i])
                    << "step " << step << " operand read [" << off << ", +"
                    << len << ") byte " << i;
            }
            ASSERT_TRUE(operand.contentEquals(kept)) << "step " << step;
        }
    }
    Buffer all = dev.readSync(0, kCapacity);
    EXPECT_EQ(std::memcmp(all.data(), ref.data(), kCapacity), 0);
    EXPECT_EQ(dev.pagesAllocated(), touched.size());
    // At most every page materialized, plus a small directory.
    EXPECT_LE(dev.residentBytes(), kCapacity + kCapacity / kSlot * 32 + 4096);
}

namespace {

/**
 * Check that [off, off + len) of @p dev reads as @p want, both plainly
 * and as want ^ operand with a patterned operand, which it leaves as it
 * was.
 */
void
expectReads(const MemoryBdev &dev, std::uint64_t off,
            const std::vector<std::uint8_t> &want)
{
    const auto len = static_cast<std::uint32_t>(want.size());
    Buffer got = dev.readSync(off, len);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), len), 0);
    const Buffer operand = patterned(len, off + len);
    const Buffer kept = operand.clone();
    Buffer delta = dev.readSync(off, len, operand);
    for (std::uint32_t i = 0; i < len; ++i)
        ASSERT_EQ(delta[i], want[i] ^ operand[i]) << "byte " << i;
    EXPECT_TRUE(operand.contentEquals(kept));
}

} // namespace

// A run of one value crosses the end of a touched extent into an absent
// one, which reads as zeros.
TEST(MemoryBdev, RunCrossesIntoAbsentExtent)
{
    MemoryBdev dev(1 << 20);
    dev.writeSync(kExtent - 2 * kSlot, filled(2 * kSlot, 0));
    dev.writeSync(kExtent - 3 * kSlot, filled(kSlot, 0x5a));
    std::vector<std::uint8_t> want(kSlot + 2 * kSlot + kExtent + 100, 0);
    std::fill_n(want.begin(), kSlot, 0x5a);
    expectReads(dev, kExtent - 3 * kSlot, want);
    // Starting inside the zero run, the read is all zeros.
    expectReads(dev, kExtent - kSlot - 7,
                std::vector<std::uint8_t>(kSlot + kExtent, 0));
}

// A materialized page between two uniform slots of the same fill ends
// the run: the bytes after it are filled, not left to the page's copy.
TEST(MemoryBdev, PageBetweenEqualFillsEndsTheRun)
{
    MemoryBdev dev(1 << 20);
    const Buffer page = patterned(kSlot, 21);
    dev.writeSync(0, filled(3 * kSlot, 0x66));
    dev.writeSync(kSlot, page);
    std::vector<std::uint8_t> want(3 * kSlot, 0x66);
    std::memcpy(want.data() + kSlot, page.data(), kSlot);
    expectReads(dev, 0, want);
    expectReads(dev, 100, std::vector<std::uint8_t>(want.begin() + 100,
                                                    want.end() - 100));
}

// The fill changes mid-extent, and again back to an earlier value: each
// change ends one run and starts the next.
TEST(MemoryBdev, FillChangesMidExtent)
{
    MemoryBdev dev(1 << 20);
    const std::uint8_t fills[] = {0x11, 0x11, 0x22, 0x00, 0x11, 0x22};
    std::vector<std::uint8_t> want;
    for (std::size_t i = 0; i < std::size(fills); ++i) {
        dev.writeSync(i * kSlot, filled(kSlot, fills[i]));
        want.insert(want.end(), kSlot, fills[i]);
    }
    want.insert(want.end(), kExtent - want.size(), 0); // never written
    expectReads(dev, 0, want);
}

// Reads that start and end inside one slot, uniform or materialized, and
// reads that start inside one slot and end inside the next.
TEST(MemoryBdev, ReadsStartAndEndInsideASlot)
{
    MemoryBdev dev(1 << 20);
    const Buffer page = patterned(kSlot, 33);
    dev.writeSync(0, filled(kSlot, 0x77));
    dev.writeSync(kSlot, page);
    dev.writeSync(2 * kSlot, filled(kSlot, 0x77));
    std::vector<std::uint8_t> image(3 * kSlot, 0x77);
    std::memcpy(image.data() + kSlot, page.data(), kSlot);
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {10, 20},                     // inside a uniform slot
        {kSlot + 5, kSlot + 4000},    // inside a page
        {kSlot - 9, kSlot + 9},       // uniform into a page
        {2 * kSlot - 9, 2 * kSlot + 9}, // a page into a uniform slot
        {300, 2 * kSlot + 300},       // across a whole page
    };
    for (const auto &[lo, hi] : ranges) {
        SCOPED_TRACE(lo);
        expectReads(dev, lo,
                    std::vector<std::uint8_t>(image.begin() + lo,
                                              image.begin() + hi));
    }
}
