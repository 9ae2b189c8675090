// SSD model: data fidelity, calibrated timing, channel independence.

#include <gtest/gtest.h>

#include "nvme/ssd.h"
#include "sim/simulator.h"

using namespace draid;
using namespace draid::nvme;
using draid::sim::Simulator;
using draid::sim::Tick;
using draid::sim::Ticks;
using draid::sim::kMicrosecond;

namespace {

SsdConfig
testConfig()
{
    SsdConfig c;
    c.capacity = 1ull << 30;
    c.readBw = 3.2e9;
    c.writeBw = 2.375e9;
    c.readLatency = Ticks::us(84);
    c.writeLatency = Ticks::us(14);
    c.perCommand = Ticks::us(2);
    return c;
}

} // namespace

TEST(Ssd, WriteThenReadReturnsData)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    ec::Buffer data(4096);
    data.fillPattern(77);

    bool wrote = false;
    ssd.write(8192, data, [&](blockdev::IoStatus st) {
        wrote = st == blockdev::IoStatus::kOk;
    });
    sim.run();
    EXPECT_TRUE(wrote);

    ec::Buffer got;
    ssd.read(8192, 4096, [&](blockdev::IoStatus, ec::Buffer d) {
        got = std::move(d);
    });
    sim.run();
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(Ssd, UnwrittenRangesReadAsZero)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    ec::Buffer got;
    ssd.read(123456, 100, [&](blockdev::IoStatus, ec::Buffer d) {
        got = std::move(d);
    });
    sim.run();
    ec::Buffer zeros(100);
    EXPECT_TRUE(got.contentEquals(zeros));
}

TEST(Ssd, ReadLatencyMatchesConfig)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    Tick t = -1;
    ssd.read(0, 128 * 1024, [&](blockdev::IoStatus, ec::Buffer) {
        t = sim.now().raw();
    });
    sim.run();
    // 2us per-cmd + 128K/3.2GB/s (= 40.96us) + 84us latency.
    const Tick service = 2 * kMicrosecond + 40960;
    EXPECT_EQ(t, service + 84 * kMicrosecond);
}

TEST(Ssd, WriteThroughputMatchesChannelRate)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    int completed = 0;
    const int n = 64;
    for (int i = 0; i < n; ++i) {
        ssd.write(static_cast<std::uint64_t>(i) << 20,
                  ec::Buffer(1 << 20),
                  [&](blockdev::IoStatus) { ++completed; });
    }
    sim.run();
    EXPECT_EQ(completed, n);
    const double rate =
        static_cast<double>(n) * (1 << 20) / draid::sim::toSeconds(sim.now().raw());
    // Per-command overhead costs a little throughput; allow 2%.
    EXPECT_NEAR(rate, 2.375e9, 2.375e9 * 0.02);
}

TEST(Ssd, ReadsAndWritesShareTheMediaChannel)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    Tick t_read = -1, t_write = -1;
    ssd.read(0, 1 << 20, [&](blockdev::IoStatus, ec::Buffer) {
        t_read = sim.now().raw();
    });
    ssd.write(1 << 20, ec::Buffer(1 << 20), [&](blockdev::IoStatus) {
        t_write = sim.now().raw();
    });
    sim.run();
    // The read occupies the channel first; the write queues behind it.
    const Tick read_service = 2 * kMicrosecond +
                              static_cast<Tick>((1 << 20) / 3.2) + 1;
    EXPECT_NEAR(static_cast<double>(t_read),
                static_cast<double>(read_service + 84 * kMicrosecond),
                3.0);
    const Tick write_service = 2 * kMicrosecond +
                               static_cast<Tick>((1 << 20) / 2.375) + 1;
    EXPECT_NEAR(static_cast<double>(t_write),
                static_cast<double>(read_service + write_service +
                                    14 * kMicrosecond),
                3.0);
}

TEST(Ssd, CountsOps)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    ssd.write(0, ec::Buffer(512), [](blockdev::IoStatus) {});
    ssd.read(0, 512, [](blockdev::IoStatus, ec::Buffer) {});
    ssd.read(0, 512, [](blockdev::IoStatus, ec::Buffer) {});
    sim.run();
    EXPECT_EQ(ssd.writesCompleted(), 1u);
    EXPECT_EQ(ssd.readsCompleted(), 2u);
    EXPECT_EQ(ssd.bytesWritten(), 512u);
    EXPECT_EQ(ssd.bytesRead(), 1024u);
}

namespace {

/** What one read completed with, and when. */
struct ReadResult
{
    blockdev::IoStatus status = blockdev::IoStatus::kOk;
    ec::Buffer data;
    Tick at = -1;
};

/** Run one read of @p ssd (with @p operand, when non-empty) to completion. */
ReadResult
readNow(Simulator &sim, Ssd &ssd, std::uint64_t offset, std::uint32_t length,
        ec::Buffer operand = {})
{
    ReadResult r;
    ssd.read(offset, length, 0,
             [&](blockdev::IoStatus st, ec::Buffer d) {
                 r.status = st;
                 r.data = std::move(d);
                 r.at = sim.now().raw();
             },
             std::move(operand));
    sim.run();
    return r;
}

ec::Buffer
patterned(std::size_t n, std::uint64_t seed)
{
    ec::Buffer b(n);
    b.fillPattern(seed);
    return b;
}

} // namespace

TEST(Ssd, LatentSectorErrorFailsReadAfterFullServiceTime)
{
    for (const bool with_operand : {false, true}) {
        SCOPED_TRACE(with_operand);
        Simulator sim;
        Ssd ssd(sim, testConfig());
        ssd.plantLatentSectorError(64 * 1024, 512);
        const Tick start = sim.now().raw();
        // The read covers the planted range only at its last bytes.
        const ReadResult r =
            readNow(sim, ssd, 0, 64 * 1024 + 1,
                    with_operand ? patterned(64 * 1024 + 1, 3)
                                 : ec::Buffer());
        EXPECT_EQ(r.status, blockdev::IoStatus::kError);
        EXPECT_TRUE(r.data.empty());
        // 2us per-cmd + (64K + 1)/3.2GB/s, rounded up + 84us latency.
        const Tick service = 2 * kMicrosecond + 20481;
        EXPECT_EQ(r.at - start, service + 84 * kMicrosecond);
        EXPECT_EQ(ssd.latentErrorsHit(), 1u);
        EXPECT_EQ(ssd.readsCompleted(), 1u);
        EXPECT_EQ(ssd.bytesRead(), 64u * 1024 + 1);

        // A read ending just before the range is served.
        EXPECT_EQ(readNow(sim, ssd, 0, 64 * 1024).status,
                  blockdev::IoStatus::kOk);
        EXPECT_EQ(ssd.latentErrorsHit(), 1u);
    }
}

TEST(Ssd, RewriteClearsLatentSectorError)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    ssd.plantLatentSectorError(4096, 4096);
    ssd.plantLatentSectorError(1 << 20, 4096);
    EXPECT_EQ(ssd.latentSectorErrors(), 2u);

    // A write touching one byte of the first range remaps all of it.
    const ec::Buffer data = patterned(100, 8);
    ssd.write(8191, data, [](blockdev::IoStatus) {});
    sim.run();
    EXPECT_EQ(ssd.latentSectorErrors(), 1u);
    const ReadResult r = readNow(sim, ssd, 4096, 4096 + 100);
    ASSERT_EQ(r.status, blockdev::IoStatus::kOk);
    EXPECT_TRUE(r.data.slice(4095, 100).contentEquals(data));
    EXPECT_EQ(readNow(sim, ssd, 1 << 20, 1).status,
              blockdev::IoStatus::kError);
}

TEST(Ssd, OverlappingPlantsMergeInEitherOrder)
{
    // Overlapping, touching and nested ranges, planted in both orders,
    // leave the same ranges: [0, 12288) and [20480, 24576).
    const std::pair<std::uint64_t, std::uint32_t> plants[] = {
        {4096, 4096}, {0, 6000}, {8192, 4096}, {5000, 100}, {20480, 4096}};
    for (const bool reversed : {false, true}) {
        SCOPED_TRACE(reversed);
        Simulator sim;
        Ssd ssd(sim, testConfig());
        for (std::size_t i = 0; i < std::size(plants); ++i) {
            const auto &[off, len] =
                plants[reversed ? std::size(plants) - 1 - i : i];
            ssd.plantLatentSectorError(off, len);
        }
        EXPECT_EQ(ssd.latentSectorErrors(), 2u);
        const std::pair<std::uint64_t, bool> probes[] = {
            {0, true},      {12287, true},  {12288, false},
            {20479, false}, {20480, true},  {24575, true},
            {24576, false}};
        for (const auto &[off, bad] : probes) {
            EXPECT_EQ(readNow(sim, ssd, off, 1).status,
                      bad ? blockdev::IoStatus::kError
                          : blockdev::IoStatus::kOk)
                << "byte " << off;
        }
    }
}

TEST(Ssd, OperandReadReturnsStoredXorOperand)
{
    Simulator sim;
    Ssd ssd(sim, testConfig());
    ec::Buffer uniform(8192);
    uniform.fill(0x3c);
    ssd.write(0, uniform, [](blockdev::IoStatus) {});
    ssd.write(8192, patterned(4096, 5), [](blockdev::IoStatus) {});
    sim.run();

    // Uniform slots, a materialized page and never-written bytes.
    constexpr std::uint32_t kLen = 20000;
    const ec::Buffer before = ssd.store().readSync(100, kLen);
    const ec::Buffer operand = patterned(kLen, 6);
    const ec::Buffer kept = operand.clone();
    const Tick t0 = sim.now().raw();
    const ReadResult plain = readNow(sim, ssd, 100, kLen);
    const ReadResult r = readNow(sim, ssd, 100, kLen, operand);
    ASSERT_EQ(r.status, blockdev::IoStatus::kOk);
    ASSERT_EQ(r.data.size(), kLen);
    for (std::uint32_t i = 0; i < kLen; ++i)
        ASSERT_EQ(r.data[i], before[i] ^ operand[i]) << "byte " << i;
    EXPECT_TRUE(operand.contentEquals(kept));
    EXPECT_TRUE(ssd.store().readSync(100, kLen).contentEquals(before));
    // The operand changes neither timing nor byte counts.
    EXPECT_EQ(r.at - plain.at, plain.at - t0);
    EXPECT_EQ(ssd.bytesRead(), 2u * kLen);
}
