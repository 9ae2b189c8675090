/**
 * @file
 * Reduce-phase bookkeeping for the server-side controller (paper §5.2,
 * Algorithm 2, and the reconstruction reduce of §6.1).
 *
 * A ReduceSession collects partial results for one in-flight operation.
 * Sessions are keyed by the host operation id — the paper keys by offset,
 * which relies on the one-write-per-stripe rule; the id key additionally
 * tolerates the concurrent same-stripe *reads* enabled by the §8
 * lock-free-read optimization.
 *
 * The non-blocking multi-stage property lives here: a session is created
 * by whichever arrives first (host Parity/Reconstruction command or a
 * Peer partial), partials are accepted on arrival, and only the final
 * persist/reply step waits for the host command (which carries wait-num).
 * The session holds each contribution's handle and finalWindow() folds
 * them all in one multi-source pass, so the result is written once
 * instead of once per contribution.
 *
 * The engine is pure bookkeeping plus buffer math: all I/O, CPU charging,
 * and networking is sequenced by DraidBdev, which makes the reduce logic
 * unit-testable without a cluster.
 */

#ifndef DRAID_CORE_REDUCE_ENGINE_H
#define DRAID_CORE_REDUCE_ENGINE_H

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ec/buffer.h"
#include "sim/small_vec.h"
#include "sim/types.h"

namespace draid::core {

/** What a reduce session produces. */
enum class SessionKind
{
    kParity,      ///< partial-stripe write: persist the reduced parity
    kReconstruct, ///< degraded read: return the reconstructed segment
};

/** One contribution a session holds until it finishes. */
struct Contribution
{
    ec::Buffer data;
    std::uint32_t offset = 0; ///< in-chunk offset of data[0]
    /**
     * GF(2^8) coefficient the fold multiplies the bytes by: 1 for a plain
     * XOR term, g^data-idx for a raw Q-bound partial.
     */
    std::uint8_t coef = 1;
};

/** One in-flight reduce operation on a bdev. */
struct ReduceSession
{
    SessionKind kind = SessionKind::kParity;

    /** Host command seen yet? (it may arrive after peers, §5.2). */
    bool hostCmdSeen = false;

    /** Outstanding contributions: += wait-num, -1 per absorbed partial. */
    int remaining = 0;

    /** Old-parity preload (RMW) still in flight? */
    bool preloadPending = false;

    /**
     * A contribution is missing: a participant's drive read or the
     * old-parity preload failed. The session still counts its
     * contributions down, then persists nothing and fails its command.
     */
    bool failed = false;

    /**
     * The contributions absorbed so far, unfolded. Two stay inline: an
     * RMW holds the old-parity preload and, for a one-chunk write, one
     * delta.
     */
    sim::SmallVec<Contribution, 2> held;

    /** Final window (from the host command): in-chunk offset + length. */
    std::uint32_t baseOffset = 0;
    std::uint32_t length = 0;

    /** Device address of the chunk start (persist location). */
    std::uint64_t chunkDeviceAddr = 0;

    /** Who to notify and under which command id. */
    sim::NodeId replyTo = sim::kInvalidNode;
    std::uint64_t hostCmdId = 0;

    /**
     * Rebuild only: node whose drive receives the reconstructed chunk
     * (peer-to-peer spare write); kInvalidNode for ordinary degraded
     * reads, whose result returns to the host.
     */
    sim::NodeId spareDest = sim::kInvalidNode;

    /** Contributions absorbed (stats/tests). */
    std::uint32_t absorbed = 0;

    /** Bytes of the contributions absorbed (stats). */
    std::uint64_t bytesAbsorbed = 0;

    /** Telemetry trace id of the owning host operation (0 = untraced). */
    std::uint64_t traceId = 0;

    /**
     * Barrier-mode ablation: number of Peer partials that must be
     * stashed before reduction starts; -1 until the host command arrives.
     */
    int barrierExpect = -1;

    /**
     * Barrier-mode ablation: the DraidBdev command slots of Peer partials
     * pulled before the full set arrived; they are absorbed together.
     */
    // draid-lint: cap(one slot per expected partial; at most stripe width)
    std::vector<std::uint32_t> stashed;
};

/** Lifetime-aggregate reduce statistics (telemetry probes). */
struct ReduceStats
{
    std::uint64_t sessionsCreated = 0;
    std::uint64_t partialsAbsorbed = 0;
    std::uint64_t bytesAbsorbed = 0;
};

/** Session table plus the reduce arithmetic. */
class ReduceEngine
{
  public:
    /** Get or create the session for host operation @p key. */
    ReduceSession &obtain(std::uint64_t key);

    /** Look up an existing session; nullptr if absent. */
    ReduceSession *find(std::uint64_t key);

    /** Drop a finished session, folding its tallies into stats(). */
    void erase(std::uint64_t key);

    std::size_t activeSessions() const { return sessions_.size(); }

    /** Aggregates over all sessions ever created (survives erase()). */
    const ReduceStats &stats() const { return stats_; }

    /**
     * Hold @p data, at in-chunk offset @p offset and multiplied by
     * @p coef, until finalWindow() folds it; decrement the outstanding
     * count. Nothing is XORed here. Move a buffer in when the session may
     * take it as the fold's destination; a handle the caller keeps never
     * sees the reduction.
     */
    static void absorb(ReduceSession &s, std::uint32_t offset,
                       ec::Buffer data, std::uint8_t coef = 1);

    /** absorb() without touching the outstanding count (RMW preload). */
    static void absorbNoCount(ReduceSession &s, std::uint32_t offset,
                              ec::Buffer data, std::uint8_t coef = 1);

    /**
     * Ready to persist/reply: host command processed, no outstanding
     * contributions, no preload in flight.
     */
    static bool readyToFinish(const ReduceSession &s);

    /**
     * Fold the held contributions into the final bytes [baseOffset,
     * baseOffset+length) of the window, in one pass over all of them;
     * bytes no contribution covers read as zero. The fold writes in place
     * into a plain contribution that covers exactly the window and is
     * unique() now, which then is the result; otherwise into a fresh
     * buffer. The session holds no contribution afterwards.
     */
    static ec::Buffer finalWindow(ReduceSession &s);

  private:
    // draid-lint: cap(concurrent rebuild sessions; at most one per failed device)
    std::unordered_map<std::uint64_t, ReduceSession> sessions_;
    ReduceStats stats_;
};

} // namespace draid::core

#endif // DRAID_CORE_REDUCE_ENGINE_H
