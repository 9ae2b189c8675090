/**
 * @file
 * Host-side NVMe-oF initiator: issues standard Read/Write commands to
 * remote targets and matches their completions, with per-operation
 * deadlines (§5.4 explicit timeouts).
 *
 * The initiator is not a fabric endpoint itself — the host controller
 * that owns it receives all host-bound messages and offers completions via
 * tryComplete(), so one host node can host a RAID controller and an
 * initiator side by side.
 *
 * A batch is an ordered list of plain reads and writes sharing one
 * completion: the RAID hosts read and write a stripe's chunks through it,
 * and it answers whether the list succeeded and which device to blame.
 */

#ifndef DRAID_BLOCKDEV_NVMF_INITIATOR_H
#define DRAID_BLOCKDEV_NVMF_INITIATOR_H

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.h"
#include "cluster/cluster.h"
#include "net/fabric.h"
#include "sim/deadline_queue.h"

namespace draid::blockdev {

/**
 * Allocates operation identifiers unique across one host's components.
 * Wire command ids are composed as (operation id << 8 | sub-index); the
 * initiator reserves sub-index 0xff, dRAID sub-commands use the rest.
 */
struct CommandIdAllocator
{
    std::uint64_t next = 1;

    std::uint64_t alloc() { return next++; }
};

/** One plain command of a batch, handed back completed. */
struct BatchIo
{
    std::uint32_t device = 0; ///< member device the command stands for
    std::uint32_t target = 0; ///< cluster target serving that device
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    bool isRead = false;
    /** A write's data until issued; a read's payload once it is kOk. */
    ec::Buffer data;
    IoStatus status = IoStatus::kOk;

    static BatchIo
    read(std::uint32_t device, std::uint32_t target, std::uint64_t offset,
         std::uint32_t length)
    {
        return BatchIo{device, target, offset, length, true, {}};
    }

    static BatchIo
    write(std::uint32_t device, std::uint32_t target, std::uint64_t offset,
          ec::Buffer data)
    {
        const auto length = static_cast<std::uint32_t>(data.size());
        return BatchIo{device, target, offset, length, false,
                       std::move(data)};
    }
};

/** A batch after its last command has completed or timed out. */
struct BatchResult
{
    // draid-lint: cap(commands of one batch; at most a stripe's chunks)
    std::vector<BatchIo> ios; ///< in list order
    bool ok = true;           ///< every command returned kOk
    /**
     * Device to fail over to once retries are used up: that of the first
     * command in list order that timed out. A read error names none.
     */
    std::optional<std::uint32_t> suspect;
};

using BatchCallback = std::function<void(BatchResult)>;

/** Host-side initiator multiplexing all remote targets. */
class NvmfInitiator
{
  public:
    NvmfInitiator(cluster::Cluster &cluster, CommandIdAllocator &ids);

    /**
     * Read [offset, offset+length) of remote target @p target. @p trace
     * tags the command capsule (and so every downstream span) with a
     * telemetry trace id; 0 = untraced.
     */
    void readRemote(std::uint32_t target, std::uint64_t offset,
                    std::uint32_t length, ReadCallback cb,
                    std::uint64_t trace = 0);

    /** Write to remote target @p target. */
    void writeRemote(std::uint32_t target, std::uint64_t offset,
                     ec::Buffer data, WriteCallback cb,
                     std::uint64_t trace = 0);

    /**
     * Issue @p ios in list order, each as readRemote/writeRemote would
     * and all tagged @p trace, and run @p cb once, after the last has
     * completed or timed out. @p ios must not be empty.
     */
    void submitBatch(std::vector<BatchIo> ios, std::uint64_t trace,
                     BatchCallback cb);

    /**
     * Offer a host-bound message. Returns true if it completed one of this
     * initiator's pending commands (including late completions of already
     * timed-out commands, which are swallowed).
     */
    bool tryComplete(const net::Message &msg);

    /** Pending commands (tests). */
    std::size_t pendingOps() const { return pending_.size(); }

    std::uint64_t timeoutsFired() const { return deadlines_.expiredCount(); }

  private:
    /**
     * One command from submission until its callback has run: the
     * capsule fields the send stage reads, the callback and the
     * deadline. The send and completion continuations capture only
     * (this, slot), and the deadline is armed with the slot as its id.
     */
    struct Command
    {
        std::uint64_t id = 0;
        std::uint64_t offset = 0;
        std::uint64_t trace = 0;
        std::uint32_t length = 0;
        std::uint32_t target = 0;
        std::uint32_t tenant = 0;
        bool isRead = false;
        bool sent = false;     ///< the capsule has left the host CPU
        bool timedOut = false; ///< the deadline ran the callback
        IoStatus status = IoStatus::kOk;
        sim::DeadlineQueue::Handle deadline;
        /** Write data until sent; a read's data once completed. */
        ec::Buffer payload;
        ReadCallback readCb;
        WriteCallback writeCb;
    };

    /** Stage @p c, arm its deadline and queue its send; @p c.id is new. */
    void submit(Command c);

    /** The host CPU is done with @p slot's command: send its capsule. */
    void send(std::uint32_t slot);

    /** The host CPU is done with @p slot's completion: run its callback. */
    void complete(std::uint32_t slot);

    /** @p slot's command reached its deadline before completing. */
    void onTimeout(std::uint32_t slot);

    /** Command @p i of batch @p slot is done; the last runs its callback. */
    void settleBatch(std::uint32_t slot, std::uint32_t i, IoStatus st,
                     ec::Buffer data);

    /**
     * A batch in flight. Each command's callback captures only (this,
     * slot, index), which std::function stores inline.
     */
    struct Batch
    {
        // draid-lint: cap(commands of one batch; at most a stripe's chunks)
        std::vector<BatchIo> ios;
        std::size_t pending = 0; ///< commands still to settle
        BatchCallback cb;
    };

    /** Command id -> slot. */
    using PendingMap = std::unordered_map<std::uint64_t, std::uint32_t>;

    /** Stop matching command @p it; returns the command's slot. */
    std::uint32_t stopMatching(PendingMap::iterator it);

    cluster::Cluster &cluster_;
    CommandIdAllocator &ids_;
    /** Every command whose callback has not run yet. */
    sim::SlotPool<Command> commands_;
    /** Slot of each command still awaiting completion or deadline. */
    // draid-lint: cap(in-flight commands; bounded by the host queue depth)
    PendingMap pending_;
    /** Every batch whose callback has not run yet. */
    sim::SlotPool<Batch> batches_;
    /** Nodes erased from pending_, reused so that arming allocates none. */
    // draid-lint: cap(peak in-flight commands; one node per erased entry)
    std::vector<PendingMap::node_type> spareNodes_;
    /** Each command's opTimeout deadline, from submission to completion. */
    sim::DeadlineQueue deadlines_;
};

} // namespace draid::blockdev

#endif // DRAID_BLOCKDEV_NVMF_INITIATOR_H
