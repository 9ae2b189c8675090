/**
 * @file
 * In-memory backing store holding the exact bytes of a simulated drive.
 *
 * Holds the *actual bytes* of every simulated drive so RAID semantics are
 * verifiable bit-for-bit. Untouched ranges read as zeros, like a fresh
 * drive. Completion is immediate (timing belongs to nvme::Ssd, which wraps
 * this store).
 *
 * Layout: a hash directory of 256 KB extents, each holding 64 slots of
 * 4 KB. A slot is a fill byte plus an optional owned 4 KB page; without a
 * page it reads as 4 KB of its fill byte. A whole-slot write whose bytes
 * are all equal just sets the fill byte, so constant-filled payloads cost
 * one 16-byte slot per 4 KB. Any other write materializes the page. Every
 * read returns exactly the bytes last written (DESIGN.md §4.2), filling
 * each run of bytes that read as one value with one memset.
 */

#ifndef DRAID_BLOCKDEV_MEMORY_BDEV_H
#define DRAID_BLOCKDEV_MEMORY_BDEV_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "blockdev/block_device.h"
#include "ec/buffer.h"

namespace draid::blockdev {

/** Sparse, byte-exact in-memory block store. */
class MemoryBdev : public BlockDevice
{
  public:
    explicit MemoryBdev(std::uint64_t capacity);

    std::uint64_t sizeBytes() const override { return capacity_; }

    void read(std::uint64_t offset, std::uint32_t length,
              ReadCallback cb) override;

    void write(std::uint64_t offset, ec::Buffer data,
               WriteCallback cb) override;

    /**
     * Synchronous accessors used by tests and the timing wrapper.
     * readSync returns a new buffer holding the stored bytes, or, given a
     * non-empty @p operand of @p length bytes, stored ^ operand, made in
     * the same pass; the operand is left unchanged.
     */
    ec::Buffer readSync(std::uint64_t offset, std::uint32_t length,
                        const ec::Buffer &operand = {}) const;
    void writeSync(std::uint64_t offset, const ec::Buffer &data);

    /**
     * Number of 256 KB extents touched so far: every extent a non-empty
     * write has reached, whatever its slots hold now.
     */
    std::size_t pagesAllocated() const { return extents_.size(); }

    /**
     * Host bytes the store holds: materialized 4 KB pages plus the extent
     * directory (its nodes and bucket array).
     */
    std::size_t residentBytes() const;

  private:
    static constexpr std::uint32_t kSlotSize = 4 * 1024;
    static constexpr std::uint32_t kExtentSize = 256 * 1024;
    static constexpr std::uint32_t kSlotsPerExtent = kExtentSize / kSlotSize;

    struct Slot
    {
        std::uint8_t fill = 0;
        std::unique_ptr<std::uint8_t[]> bytes; ///< null: all bytes == fill
    };
    using Extent = std::array<Slot, kSlotsPerExtent>;

    /** Store @p n bytes of @p src at @p in_slot within @p slot. */
    void writeSlot(Slot &slot, std::uint32_t in_slot, const std::uint8_t *src,
                   std::uint32_t n);

    std::uint64_t capacity_;
    std::size_t materialized_ = 0; ///< slots with a non-null page
    // draid-lint: cap(capacity_ / kExtentSize; one extent per touched region)
    std::unordered_map<std::uint64_t, Extent> extents_;
};

} // namespace draid::blockdev

#endif // DRAID_BLOCKDEV_MEMORY_BDEV_H
