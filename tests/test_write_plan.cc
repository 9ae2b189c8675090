// Write planner: mode decisions (the §9.3 regime boundaries) and plan
// structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "raid/write_plan.h"

using namespace draid::raid;

namespace {

constexpr std::uint32_t kKb = 1024;

} // namespace

TEST(WritePlan, PaperRegimeBoundariesRaid5)
{
    // §9.3: 8 drives, 512 KB chunks -> RMW below 1536 KB, reconstruct
    // write between 1536 KB and 3584 KB, full stripe at 3584 KB.
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);

    auto mode_of = [&](std::uint64_t io_kb) {
        auto plans = planner.plan(0, io_kb * kKb);
        EXPECT_EQ(plans.size(), 1u);
        return plans[0].mode;
    };

    EXPECT_EQ(mode_of(128), WriteMode::kReadModifyWrite);
    EXPECT_EQ(mode_of(512), WriteMode::kReadModifyWrite);
    EXPECT_EQ(mode_of(1024), WriteMode::kReadModifyWrite);
    EXPECT_EQ(mode_of(1536), WriteMode::kReconstructWrite);
    EXPECT_EQ(mode_of(2048), WriteMode::kReconstructWrite);
    EXPECT_EQ(mode_of(3072), WriteMode::kReconstructWrite);
    EXPECT_EQ(mode_of(3584), WriteMode::kFullStripe);
}

TEST(WritePlan, Raid6SmallWriteIsRmw)
{
    // §A.2: RAID-6 with 8 drives -> 3072 KB stripe; small writes RMW.
    Geometry g(RaidLevel::kRaid6, 512 * kKb, 8);
    WritePlanner planner(g);
    auto plans = planner.plan(0, 128 * kKb);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].mode, WriteMode::kReadModifyWrite);
    auto full = planner.plan(0, 3072 * kKb);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0].mode, WriteMode::kFullStripe);
}

TEST(WritePlan, RmwParityWindowIsUnionOfSegments)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    // Write spanning the end of chunk 0 and start of chunk 1.
    auto plans = planner.plan(400 * kKb, 256 * kKb);
    ASSERT_EQ(plans.size(), 1u);
    const auto &p = plans[0];
    EXPECT_EQ(p.mode, WriteMode::kReadModifyWrite);
    ASSERT_EQ(p.writes.size(), 2u);
    EXPECT_EQ(p.writes[0].dataIdx, 0u);
    EXPECT_EQ(p.writes[0].offset, 400u * kKb);
    EXPECT_EQ(p.writes[0].length, 112u * kKb);
    EXPECT_EQ(p.writes[1].dataIdx, 1u);
    EXPECT_EQ(p.writes[1].offset, 0u);
    EXPECT_EQ(p.writes[1].length, 144u * kKb);
    // Union covers [0, 512 KB).
    EXPECT_EQ(p.parityOffset, 0u);
    EXPECT_EQ(p.parityLength, 512u * kKb);
    EXPECT_EQ(p.waitNum, 2u);

    // forceRmw recomputes the union over whatever segments remain.
    StripeWritePlan tail = p;
    tail.writes.erase(tail.writes.begin());
    tail.forceRmw();
    EXPECT_EQ(tail.parityOffset, 0u);
    EXPECT_EQ(tail.parityLength, 144u * kKb);
    EXPECT_EQ(tail.waitNum, 1u);

    // ...and narrows a reconstruct write to RMW: no untouched-chunk reads.
    auto rcw = planner.plan(100 * kKb, 2000 * kKb);
    ASSERT_EQ(rcw.size(), 1u);
    ASSERT_EQ(rcw[0].mode, WriteMode::kReconstructWrite);
    rcw[0].forceRmw();
    EXPECT_EQ(rcw[0].mode, WriteMode::kReadModifyWrite);
    EXPECT_TRUE(rcw[0].rcwReads.empty());
    EXPECT_EQ(rcw[0].parityOffset, 0u);
    EXPECT_EQ(rcw[0].parityLength, 512u * kKb);
    EXPECT_EQ(rcw[0].waitNum, 5u);
}

TEST(WritePlan, RcwListsUntouchedChunks)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    auto plans = planner.plan(0, 2048 * kKb); // chunks 0-3 written
    ASSERT_EQ(plans.size(), 1u);
    const auto &p = plans[0];
    EXPECT_EQ(p.mode, WriteMode::kReconstructWrite);
    EXPECT_EQ(p.writes.size(), 4u);
    ASSERT_EQ(p.rcwReads.size(), 3u);
    EXPECT_EQ(p.rcwReads[0], 4u);
    EXPECT_EQ(p.rcwReads[1], 5u);
    EXPECT_EQ(p.rcwReads[2], 6u);
    EXPECT_EQ(p.waitNum, 7u);
    EXPECT_EQ(p.parityOffset, 0u);
    EXPECT_EQ(p.parityLength, 512u * kKb);
}

TEST(WritePlan, FullStripeRequiresExactCoverage)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    auto plans = planner.plan(0, 3584 * kKb);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].mode, WriteMode::kFullStripe);
    EXPECT_EQ(plans[0].writes.size(), 7u);
    EXPECT_EQ(plans[0].waitNum, 0u);

    // One byte short: not full stripe.
    auto partial = planner.plan(0, 3584 * kKb - 1);
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_NE(partial[0].mode, WriteMode::kFullStripe);
}

TEST(WritePlan, MultiStripeWriteSplits)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8); // stripe = 3584 KB
    WritePlanner planner(g);
    auto plans = planner.plan(3584ull * kKb - 128 * kKb, 256 * kKb);
    ASSERT_EQ(plans.size(), 2u);
    EXPECT_EQ(plans[0].stripe, 0u);
    EXPECT_EQ(plans[1].stripe, 1u);
    EXPECT_EQ(plans[0].userBytes(), 128u * kKb);
    EXPECT_EQ(plans[1].userBytes(), 128u * kKb);
}

TEST(WritePlan, AlignedFullStripesAcrossManyStripes)
{
    Geometry g(RaidLevel::kRaid5, 64 * kKb, 5); // stripe = 256 KB
    WritePlanner planner(g);
    auto plans = planner.plan(0, 1024 * kKb); // 4 full stripes
    ASSERT_EQ(plans.size(), 4u);
    for (const auto &p : plans)
        EXPECT_EQ(p.mode, WriteMode::kFullStripe);
}

TEST(WritePlan, UserBytesSumsSegments)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    for (std::uint64_t len : {4ull * kKb, 128ull * kKb, 1000ull * kKb}) {
        std::uint64_t total = 0;
        for (const auto &p : planner.plan(12345, len))
            total += p.userBytes();
        EXPECT_EQ(total, len);
    }
}

namespace {

bool
sameSegments(const std::vector<WriteSegment> &a,
             const std::vector<WriteSegment> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const WriteSegment &x, const WriteSegment &y) {
                          return x.dataIdx == y.dataIdx &&
                                 x.offset == y.offset && x.length == y.length;
                      });
}

bool
samePlan(const StripeWritePlan &a, const StripeWritePlan &b)
{
    return a.stripe == b.stripe && a.mode == b.mode &&
           sameSegments(a.writes, b.writes) && a.rcwReads == b.rcwReads &&
           a.parityOffset == b.parityOffset &&
           a.parityLength == b.parityLength && a.waitNum == b.waitNum;
}

} // namespace

TEST(WritePlan, RouteDegradedCoversEveryRoleAndMode)
{
    // Width 6, 64 KB chunks: RAID-5 has 5 data chunks, RAID-6 has 4. The
    // failed device is the written data chunk 1, the last (untouched)
    // data chunk, P or Q of stripe 0.
    constexpr std::uint32_t kChunk = 64 * kKb;
    enum class Lost { kWritten, kUntouched, kP, kQ };
    enum class Shape { kRmw, kRcw, kFsw, kOnlyLost };
    struct Row
    {
        RaidLevel level;
        Shape shape;
        Lost lost;
        DegradedKind kind;
        std::size_t failedPos;
        WriteMode mode;      ///< of the returned plan
        std::size_t writes;  ///< of the returned plan
        std::uint32_t parityOffset, parityLength, waitNum;
    };
    using K = DegradedKind;
    constexpr auto kR5 = RaidLevel::kRaid5;
    constexpr auto kR6 = RaidLevel::kRaid6;
    constexpr auto kRmwM = WriteMode::kReadModifyWrite;
    constexpr auto kRcwM = WriteMode::kReconstructWrite;
    constexpr auto kFswM = WriteMode::kFullStripe;
    const Row rows[] = {
        // RMW plan: chunk 0 [1000, 4000) and chunk 1 [0, 2000).
        {kR5, Shape::kRmw, Lost::kWritten, K::kTargeted, 1, kRmwM, 1,
         1000, 3000, 1},
        {kR5, Shape::kRmw, Lost::kUntouched, K::kAsPlanned, 0, kRmwM, 2,
         0, 4000, 2},
        {kR5, Shape::kRmw, Lost::kP, K::kParityLess, 0, kRmwM, 2, 0, 4000,
         2},
        {kR6, Shape::kRmw, Lost::kWritten, K::kTargeted, 1, kRmwM, 1,
         1000, 3000, 1},
        {kR6, Shape::kRmw, Lost::kUntouched, K::kAsPlanned, 0, kRmwM, 2,
         0, 4000, 2},
        {kR6, Shape::kRmw, Lost::kP, K::kAsPlanned, 0, kRmwM, 2, 0, 4000,
         2},
        {kR6, Shape::kRmw, Lost::kQ, K::kAsPlanned, 0, kRmwM, 2, 0, 4000,
         2},
        // RCW plan: every data chunk but the last, whole.
        {kR5, Shape::kRcw, Lost::kWritten, K::kTargeted, 1, kRmwM, 3, 0,
         kChunk, 3},
        {kR5, Shape::kRcw, Lost::kUntouched, K::kAsPlanned, 0, kRmwM, 4, 0,
         kChunk, 4},
        {kR5, Shape::kRcw, Lost::kP, K::kParityLess, 0, kRcwM, 4, 0, kChunk,
         5},
        {kR6, Shape::kRcw, Lost::kWritten, K::kTargeted, 1, kRmwM, 2, 0,
         kChunk, 2},
        {kR6, Shape::kRcw, Lost::kUntouched, K::kAsPlanned, 0, kRmwM, 3, 0,
         kChunk, 3},
        {kR6, Shape::kRcw, Lost::kP, K::kAsPlanned, 0, kRcwM, 3, 0, kChunk,
         4},
        {kR6, Shape::kRcw, Lost::kQ, K::kAsPlanned, 0, kRcwM, 3, 0, kChunk,
         4},
        // Full stripe: the flow skips whichever device is lost.
        {kR5, Shape::kFsw, Lost::kWritten, K::kAsPlanned, 0, kFswM, 5, 0,
         kChunk, 0},
        {kR5, Shape::kFsw, Lost::kUntouched, K::kAsPlanned, 0, kFswM, 5, 0,
         kChunk, 0},
        {kR5, Shape::kFsw, Lost::kP, K::kParityLess, 0, kFswM, 5, 0, kChunk,
         0},
        {kR6, Shape::kFsw, Lost::kWritten, K::kAsPlanned, 0, kFswM, 4, 0,
         kChunk, 0},
        {kR6, Shape::kFsw, Lost::kUntouched, K::kAsPlanned, 0, kFswM, 4, 0,
         kChunk, 0},
        {kR6, Shape::kFsw, Lost::kP, K::kAsPlanned, 0, kFswM, 4, 0, kChunk,
         0},
        {kR6, Shape::kFsw, Lost::kQ, K::kAsPlanned, 0, kFswM, 4, 0, kChunk,
         0},
        // Only the lost chunk is written: nothing left for the RMW phase.
        {kR5, Shape::kOnlyLost, Lost::kWritten, K::kTargeted, 0, kRmwM, 0,
         0, 0, 0},
        {kR6, Shape::kOnlyLost, Lost::kWritten, K::kTargeted, 0, kRmwM, 0,
         0, 0, 0},
    };

    for (const Row &r : rows) {
        Geometry g(r.level, kChunk, 6);
        WritePlanner planner(g);
        const std::uint32_t k = g.dataChunks();
        std::vector<WriteSegment> segs;
        switch (r.shape) {
          case Shape::kRmw:
            segs = {{0, 1000, 3000}, {1, 0, 2000}};
            break;
          case Shape::kRcw:
          case Shape::kFsw:
            for (std::uint32_t i = 0; i + 1 < k; ++i)
                segs.push_back({i, 0, kChunk});
            if (r.shape == Shape::kFsw)
                segs.push_back({k - 1, 0, kChunk});
            break;
          case Shape::kOnlyLost:
            segs = {{1, 0, 4096}};
            break;
        }
        const StripeWritePlan plan = planner.planStripe(0, segs);
        std::uint32_t failed = 0;
        switch (r.lost) {
          case Lost::kWritten: failed = g.dataDevice(0, 1); break;
          case Lost::kUntouched: failed = g.dataDevice(0, k - 1); break;
          case Lost::kP: failed = g.parityDevice(0); break;
          case Lost::kQ: failed = g.qDevice(0); break;
        }
        const StripeWritePlan before = plan;

        const DegradedRoute route = planner.routeDegraded(plan, failed);

        SCOPED_TRACE(testing::Message()
                     << "level " << static_cast<int>(r.level) << " shape "
                     << static_cast<int>(r.shape) << " lost "
                     << static_cast<int>(r.lost));
        EXPECT_TRUE(samePlan(plan, before)); // the input is untouched
        EXPECT_EQ(route.kind, r.kind);
        EXPECT_EQ(route.failedPos, r.failedPos);
        EXPECT_EQ(route.plan.stripe, plan.stripe);
        EXPECT_EQ(route.plan.mode, r.mode);
        EXPECT_EQ(route.plan.writes.size(), r.writes);
        EXPECT_EQ(route.plan.parityOffset, r.parityOffset);
        EXPECT_EQ(route.plan.parityLength, r.parityLength);
        EXPECT_EQ(route.plan.waitNum, r.waitNum);
        if (r.kind == DegradedKind::kTargeted) {
            // The surviving segments, in order; the lost one is indexed.
            EXPECT_EQ(plan.writes[route.failedPos].dataIdx, 1u);
            std::vector<WriteSegment> survivors = plan.writes;
            survivors.erase(survivors.begin() +
                            static_cast<std::ptrdiff_t>(route.failedPos));
            EXPECT_TRUE(sameSegments(route.plan.writes, survivors));
        } else {
            EXPECT_TRUE(sameSegments(route.plan.writes, plan.writes));
        }
        if (route.plan.mode == WriteMode::kReadModifyWrite) {
            EXPECT_TRUE(route.plan.rcwReads.empty());
        }
        if (r.kind != DegradedKind::kTargeted &&
            route.plan.mode == plan.mode) {
            EXPECT_TRUE(samePlan(route.plan, plan)); // nothing to narrow
        }
    }
}
