/**
 * @file
 * dRAID protocol opcodes and subtypes (paper §4, Figure 5).
 *
 * The protocol is a compatible extension of NVMe-oF: standard Read/Write
 * plus four dRAID operations. Subtypes select behaviour within an opcode
 * (write mode for PartialWrite/Parity, read role for Reconstruction).
 */

#ifndef DRAID_PROTO_OPCODES_H
#define DRAID_PROTO_OPCODES_H

#include <cstdint>

namespace draid::proto {

/** Command opcodes. The last four are dRAID extensions. */
enum class Opcode : std::uint8_t
{
    kRead = 0x02,           ///< standard NVMe-oF read
    kWrite = 0x01,          ///< standard NVMe-oF write
    kPartialWrite = 0x81,   ///< host -> bdevD: write data, emit partial parity
    kParity = 0x82,         ///< host -> bdevP/Q: collect and reduce parities
    kReconstruction = 0x83, ///< host -> bdev: degraded-read participation
    kPeer = 0x84,           ///< bdev -> bdev: partial result available
    kCompletion = 0xf0,     ///< target -> host: final status of an operation
};

/** Behaviour selector within an opcode. */
enum class Subtype : std::uint8_t
{
    kNone = 0,
    // PartialWrite / Parity write modes (§5.1, Algorithm 1).
    kRmw = 1,     ///< read-modify-write: delta against old data
    kRwWrite = 2, ///< reconstruct write, chunk receives new data
    kRwRead = 3,  ///< reconstruct write, untouched chunk read whole
    // Reconstruction roles (§6.1, Figure 8).
    kNoRead = 4,   ///< chunk only needed for reconstruction
    kAlsoRead = 5, ///< chunk also requested by the read I/O
    // Degraded-write participation: chunk must be reconstructed before
    // the stripe's parity can be updated.
    kDegraded = 6,
    // Q-parity rebuild: contribute the chunk, which the reducer multiplies
    // by g^data-idx (RAID-6 "other command data" path, §4).
    kNoReadQ = 7,
    // Peer: a Q-bound partial sent raw; the reducer multiplies it by
    // g^data-idx inside its fold.
    kRawQ = 8,
};

/** Final status of a command (§5.4: success / failed / timed out). */
enum class Status : std::uint8_t
{
    kSuccess = 0,
    kFailed = 1,
    kTimedOut = 2,
};

/** Printable names (diagnostics and tests). */
const char *toString(Opcode op);
const char *toString(Subtype st);
const char *toString(Status st);

} // namespace draid::proto

#endif // DRAID_PROTO_OPCODES_H
