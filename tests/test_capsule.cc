// Protocol capsules: wire round-trip fidelity and size accounting.

#include <gtest/gtest.h>

#include "proto/capsule.h"

using namespace draid::proto;

namespace {

Capsule
sampleCapsule()
{
    Capsule c;
    c.commandId = 0x1234567890abcdefull;
    c.opcode = Opcode::kPartialWrite;
    c.subtype = Subtype::kRmw;
    c.nsid = 3;
    c.offset = 0xdeadbeef00ull;
    c.length = 128 * 1024;
    c.fwdOffset = 4096;
    c.fwdLength = 64 * 1024;
    c.nextDest = 5;
    c.nextDest2 = 6;
    c.waitNum = 7;
    c.dataIdx = 2;
    c.stripe = 991;
    c.status = Status::kSuccess;
    c.sgList.push_back(Sge{0x1000, 512});
    c.sgList.push_back(Sge{0x2000, 1024});
    c.sgList2.push_back(Sge{0x3000, 2048});
    return c;
}

} // namespace

TEST(Capsule, EncodeDecodeRoundTrip)
{
    const Capsule c = sampleCapsule();
    const auto wire = c.encode();
    const auto back = Capsule::decode(wire.data(), wire.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
}

TEST(Capsule, WireSizeMatchesEncoding)
{
    const Capsule c = sampleCapsule();
    EXPECT_EQ(c.encode().size(), c.wireSize());

    Capsule minimal;
    EXPECT_EQ(minimal.encode().size(), minimal.wireSize());
}

TEST(Capsule, EveryOpcodeRoundTrips)
{
    for (Opcode op : {Opcode::kRead, Opcode::kWrite, Opcode::kPartialWrite,
                      Opcode::kParity, Opcode::kReconstruction,
                      Opcode::kPeer, Opcode::kCompletion}) {
        Capsule c;
        c.opcode = op;
        const auto wire = c.encode();
        const auto back = Capsule::decode(wire.data(), wire.size());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->opcode, op);
    }
}

TEST(Capsule, EverySubtypeRoundTrips)
{
    for (Subtype st : {Subtype::kNone, Subtype::kRmw, Subtype::kRwWrite,
                       Subtype::kRwRead, Subtype::kNoRead,
                       Subtype::kAlsoRead, Subtype::kDegraded,
                       Subtype::kNoReadQ, Subtype::kRawQ}) {
        Capsule c;
        c.subtype = st;
        const auto wire = c.encode();
        const auto back = Capsule::decode(wire.data(), wire.size());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->subtype, st);
    }
}

TEST(Capsule, DecodeRejectsBadMagic)
{
    auto wire = sampleCapsule().encode();
    wire[0] ^= 0xff;
    EXPECT_FALSE(Capsule::decode(wire.data(), wire.size()).has_value());
}

TEST(Capsule, DecodeRejectsTruncation)
{
    const auto wire = sampleCapsule().encode();
    for (std::size_t cut : {0u, 1u, 10u, 63u}) {
        EXPECT_FALSE(Capsule::decode(wire.data(), cut).has_value())
            << "cut=" << cut;
    }
    // Truncated SG list.
    EXPECT_FALSE(
        Capsule::decode(wire.data(), wire.size() - 1).has_value());
}

TEST(Capsule, StatusValuesRoundTrip)
{
    for (Status st :
         {Status::kSuccess, Status::kFailed, Status::kTimedOut}) {
        Capsule c;
        c.status = st;
        const auto wire = c.encode();
        EXPECT_EQ(Capsule::decode(wire.data(), wire.size())->status, st);
    }
}

TEST(Capsule, ToStringNames)
{
    EXPECT_STREQ(toString(Opcode::kPartialWrite), "PartialWrite");
    EXPECT_STREQ(toString(Subtype::kRwRead), "RW_READ");
    EXPECT_STREQ(toString(Status::kTimedOut), "TimedOut");
}

TEST(Capsule, InvalidNodeSentinelSurvives)
{
    Capsule c;
    c.nextDest = draid::sim::kInvalidNode;
    const auto wire = c.encode();
    EXPECT_EQ(Capsule::decode(wire.data(), wire.size())->nextDest,
              draid::sim::kInvalidNode);
}
