// blockdev::ReadJoin: the one completion path of every RAID read. A piece
// covering the whole range is adopted, split reads assemble, and a failure
// hands back zeros.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>

#include "blockdev/read_join.h"

using namespace draid;
using blockdev::IoStatus;
using blockdev::ReadJoin;

namespace {

struct Completion
{
    int calls = 0;
    IoStatus status = IoStatus::kOk;
    ec::Buffer data;
};

/** A join over @p length bytes and @p pending pieces, reporting to @p c. */
ReadJoin
makeJoin(std::uint32_t length, int pending, Completion &c)
{
    ReadJoin j;
    j.cb = [&c](IoStatus st, ec::Buffer data) {
        ++c.calls;
        c.status = st;
        c.data = std::move(data);
    };
    j.length = length;
    j.pending = pending;
    return j;
}

void
settle(ReadJoin &j, bool ok)
{
    j.settle(ok, telemetry::Probe(), sim::Ticks::zero(), nullptr);
}

} // namespace

TEST(ReadJoin, WholeRangePieceIsAdoptedWithoutCopy)
{
    Completion c;
    ReadJoin j = makeJoin(4096, 1, c);
    ec::Buffer piece(4096);
    piece.fillPattern(1);
    const std::uint8_t *storage = piece.data();
    j.land(0, piece);
    settle(j, true);
    ASSERT_EQ(c.calls, 1);
    EXPECT_EQ(c.status, IoStatus::kOk);
    EXPECT_EQ(c.data.data(), storage);
    EXPECT_TRUE(c.data.contentEquals(piece));
}

TEST(ReadJoin, SplitPiecesAssembleInOrderOfPosition)
{
    // The piece at 0 covers only part of the range, so it must be copied
    // into a result of the full length, not adopted.
    Completion c;
    ReadJoin j = makeJoin(3000, 2, c);
    ec::Buffer whole(3000);
    whole.fillPattern(2);
    j.land(0, whole.slice(0, 1000));
    settle(j, true);
    EXPECT_EQ(c.calls, 0);
    j.land(1000, whole.slice(1000, 2000));
    settle(j, true);
    ASSERT_EQ(c.calls, 1);
    EXPECT_EQ(c.status, IoStatus::kOk);
    EXPECT_TRUE(c.data.contentEquals(whole));
}

TEST(ReadJoin, FailureHandsBackZerosNeverLandedBytes)
{
    for (const bool adopted : {true, false}) {
        SCOPED_TRACE(adopted ? "adopted" : "nothing landed");
        Completion c;
        ReadJoin j = makeJoin(2048, 2, c);
        ec::Buffer piece(2048);
        piece.fillPattern(3);
        if (adopted)
            j.land(0, piece);
        settle(j, false);
        settle(j, true);
        ASSERT_EQ(c.calls, 1);
        EXPECT_EQ(c.status, IoStatus::kError);
        EXPECT_TRUE(c.data.contentEquals(ec::Buffer(2048)));
    }
}
