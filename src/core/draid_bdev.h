/**
 * @file
 * The dRAID server-side controller (paper §3, §5, §6): a dRAID bdev.
 *
 * Extends the plain NVMe-oF target with the four dRAID opcodes:
 *  - PartialWrite (Algorithm 1): fetch new data from the host and read old
 *    data from the drive *in parallel*, derive the partial parity, then
 *    overlap the drive write with partial-parity forwarding (§5.3
 *    pipeline) and report its own completion to the host.
 *  - Parity (Algorithm 2): reduce incoming partial parities; the reduce
 *    proceeds even when the Parity command arrives late (§5.2), only the
 *    final persist waits for it.
 *  - Reconstruction (§6.1): read the union of the requested and the
 *    reconstructed segment in a single drive I/O, return requested data
 *    directly to the host, and route partial results to the reducer.
 *  - Peer: pull a partial result announced by a peer bdev and fold it in.
 *
 * A bdev is unaware of being part of a RAID: every command carries all the
 * information it needs (forward ranges, destinations, wait counts, Q
 * coefficients).
 *
 * Each command being served, each reduction's reply and each rebuild's
 * spare write keeps its state in one sim::SlotPool the bdev owns, and
 * every stage is a member function whose continuation captures only
 * (this, slot) (DESIGN.md §4.1).
 */

#ifndef DRAID_CORE_DRAID_BDEV_H
#define DRAID_CORE_DRAID_BDEV_H

#include <array>
#include <cstdint>

#include "blockdev/nvmf_target.h"
#include "core/draid.h"
#include "core/reduce_engine.h"
#include "sim/slot_pool.h"

namespace draid::core {

/** Per-bdev traffic and operation counters used by benches and tests. */
struct BdevCounters
{
    std::uint64_t partialWrites = 0;
    std::uint64_t parityCmds = 0;
    std::uint64_t peersAbsorbed = 0;
    std::uint64_t reconstructions = 0;
    std::uint64_t reductionsFinished = 0;
    std::uint64_t lateParityCmds = 0; ///< Parity arrived after >=1 peer
};

/** The server-side controller for one storage server. */
class DraidBdev : public blockdev::NvmfTarget
{
  public:
    DraidBdev(cluster::Cluster &cluster, std::uint32_t index,
              const DraidOptions &options);

    void onMessage(const net::Message &msg) override;

    const BdevCounters &counters() const { return counters_; }
    ReduceEngine &reduceEngine() { return reduce_; }

  private:
    /**
     * A drive read, or the remote fetch of new data, and its bytes; an
     * RMW's old-data read lands as the delta old ^ new.
     */
    struct Read
    {
        std::uint64_t addr = 0;
        std::uint32_t length = 0;
        bool remote = false; ///< the fetch: its bytes are the payload
        ec::Buffer data{};
    };

    /**
     * One command, reply or spare write in flight: the capsule fields its
     * stages read, with sgList[0] copied out as the chunk's address and
     * length, never a whole Capsule. Stage chains that run side by side
     * each hold a leg; the slot is freed after the last.
     */
    struct Command
    {
        std::uint64_t commandId = 0;
        std::uint64_t offset = 0;
        std::uint64_t chunkAddr = 0;
        std::uint64_t trace = 0;
        std::uint32_t length = 0;
        std::uint32_t chunkLen = 0;
        std::uint32_t fwdOffset = 0;
        std::uint32_t fwdLength = 0;
        sim::NodeId from = sim::kInvalidNode; ///< also: whom a reply goes to
        sim::NodeId nextDest = sim::kInvalidNode;
        sim::NodeId nextDest2 = sim::kInvalidNode;
        std::uint16_t dataIdx = 0;
        std::uint16_t waitNum = 0;
        proto::Opcode opcode = proto::Opcode::kCompletion;
        proto::Subtype subtype = proto::Subtype::kNone;
        /** A Peer's status; kFailed once a local drive read failed. */
        proto::Status status = proto::Status::kSuccess;
        std::uint8_t legs = 1;
        ec::Buffer payload{}; ///< as received; a reply's data
        ec::Buffer partial{}; ///< the partial result or preload
        /** A PartialWrite's phase 1; a Reconstruction's one drive read. */
        std::array<Read, 3> reads{};
        std::uint8_t numReads = 0;
        std::uint8_t landed = 0;
    };

    /** Free @p slot, emptied. */
    void retire(std::uint32_t slot);

    /** One leg of @p slot ended; retire it after the last. */
    void settle(std::uint32_t slot);

    /** Complete @p slot's command with @p status and its payload; retire. */
    void reply(std::uint32_t slot, proto::Status status);

    /** The srv.cmd charge is paid: run the command's first stage. */
    void parsed(std::uint32_t slot);

    // --- PartialWrite (Algorithm 1 + §5.3 pipeline) ---
    void partialWriteParsed(std::uint32_t slot);
    void phase1Issue(std::uint32_t slot, std::uint8_t i);
    void phase1Landed(std::uint32_t slot, std::uint8_t i);
    void partialWritePhase2(std::uint32_t slot);
    void partialWriteXored(std::uint32_t slot);
    void partialWriteStored(std::uint32_t slot, blockdev::IoStatus st);

    // --- Parity / Peer (Algorithm 2) ---
    void parityParsed(std::uint32_t slot);
    void peerParsed(std::uint32_t slot);
    void peerPulled(std::uint32_t slot);

    /**
     * Fold a contribution into @p slot's session (CPU-charged): the
     * payload, counted against wait-num, or a @p local partial (the old
     * parity, the reducer's own chunk) that completion waits for.
     */
    void absorbContribution(std::uint32_t slot, bool local);
    void contributionAbsorbed(std::uint32_t slot, bool local);
    void maybeFinish(std::uint64_t key);

    /** Barrier-mode ablation: reduce once the full partial set arrived. */
    void tryBarrierFlush(std::uint64_t key);

    // --- Reconstruction (§6.1) ---
    void reconstructionParsed(std::uint32_t slot);
    void reconstructionLoaded(std::uint32_t slot, blockdev::IoStatus st,
                              ec::Buffer data);

    // --- shared helpers ---
    /**
     * Announce @p partial, a result of @p slot's command, to @p dest;
     * @p raw_q marks it for the reducer to multiply by g^dataIdx.
     * Without peer-to-peer forwarding the host that sent the command
     * relays it, spending its own NIC bandwidth both ways.
     */
    void forwardPartial(std::uint32_t slot, sim::NodeId dest,
                        ec::Buffer partial, proto::Status status,
                        bool raw_q);

    /**
     * Send @p slot's partial to the parity bdevs its command names: to
     * its next-dest (P, or the reducer), and to its next-dest2 (RAID-6 Q)
     * when set, on a leg of its own after a parity.gf charge. Both get the
     * same bytes; the Q-bound one is marked raw. A failed @p status sends
     * each of them a failed partial with no payload instead (DESIGN.md
     * §4.1).
     */
    void forwardToParity(std::uint32_t slot,
                         proto::Status status = proto::Status::kSuccess);
    void forwardToQ(std::uint32_t slot);

    DraidOptions opts_;
    ReduceEngine reduce_;
    BdevCounters counters_;
    sim::SlotPool<Command> commands_;
};

} // namespace draid::core

#endif // DRAID_CORE_DRAID_BDEV_H
