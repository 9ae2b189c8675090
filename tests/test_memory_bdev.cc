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
            Buffer got = dev.readSync(off, static_cast<std::uint32_t>(len));
            ASSERT_EQ(std::memcmp(got.data(), ref.data() + off, len), 0)
                << "step " << step << " read [" << off << ", +" << len
                << ")";
        }
    }
    Buffer all = dev.readSync(0, kCapacity);
    EXPECT_EQ(std::memcmp(all.data(), ref.data(), kCapacity), 0);
    EXPECT_EQ(dev.pagesAllocated(), touched.size());
    // At most every page materialized, plus a small directory.
    EXPECT_LE(dev.residentBytes(), kCapacity + kCapacity / kSlot * 32 + 4096);
}
