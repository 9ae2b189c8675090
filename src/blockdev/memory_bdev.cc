#include "blockdev/memory_bdev.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace draid::blockdev {

namespace {

/** True when all @p n bytes at @p p are equal. @pre n > 0 */
bool
uniform(const std::uint8_t *p, std::size_t n)
{
    return std::memcmp(p, p + 1, n - 1) == 0;
}

} // namespace

MemoryBdev::MemoryBdev(std::uint64_t capacity) : capacity_(capacity) {}

void
MemoryBdev::read(std::uint64_t offset, std::uint32_t length, ReadCallback cb)
{
    cb(IoStatus::kOk, readSync(offset, length));
}

void
MemoryBdev::write(std::uint64_t offset, ec::Buffer data, WriteCallback cb)
{
    writeSync(offset, data);
    cb(IoStatus::kOk);
}

std::size_t
MemoryBdev::residentBytes() const
{
    // Each directory node holds the key/extent pair and a chain link.
    constexpr std::size_t kNodeBytes =
        sizeof(void *) + sizeof(std::pair<const std::uint64_t, Extent>);
    return materialized_ * kSlotSize + extents_.size() * kNodeBytes +
           extents_.bucket_count() * sizeof(void *);
}

ec::Buffer
MemoryBdev::readSync(std::uint64_t offset, std::uint32_t length) const
{
    assert(offset + length <= capacity_);
    ec::Buffer out = ec::Buffer::forOverwrite(length);
    std::uint8_t *dst = out.data();
    std::uint64_t pos = offset;
    const std::uint64_t end = offset + length;
    while (pos < end) {
        const std::uint64_t extent_end =
            std::min(end, (pos / kExtentSize + 1) * kExtentSize);
        auto it = extents_.find(pos / kExtentSize);
        if (it == extents_.end()) {
            // Fresh-drive semantics: an untouched extent reads as zeros.
            std::memset(dst, 0, extent_end - pos);
            dst += extent_end - pos;
            pos = extent_end;
            continue;
        }
        while (pos < extent_end) {
            const Slot &slot = it->second[(pos % kExtentSize) / kSlotSize];
            const std::uint32_t in_slot =
                static_cast<std::uint32_t>(pos % kSlotSize);
            const std::uint32_t take = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(extent_end - pos,
                                        kSlotSize - in_slot));
            if (slot.bytes)
                std::memcpy(dst, slot.bytes.get() + in_slot, take);
            else
                std::memset(dst, slot.fill, take);
            dst += take;
            pos += take;
        }
    }
    return out;
}

void
MemoryBdev::writeSync(std::uint64_t offset, const ec::Buffer &data)
{
    assert(offset + data.size() <= capacity_);
    const std::uint8_t *src = data.data();
    std::uint64_t pos = offset;
    const std::uint64_t end = offset + data.size();
    while (pos < end) {
        const std::uint64_t extent_end =
            std::min(end, (pos / kExtentSize + 1) * kExtentSize);
        Extent &extent = extents_[pos / kExtentSize];
        while (pos < extent_end) {
            const std::uint32_t in_slot =
                static_cast<std::uint32_t>(pos % kSlotSize);
            const std::uint32_t take = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(extent_end - pos,
                                        kSlotSize - in_slot));
            writeSlot(extent[(pos % kExtentSize) / kSlotSize], in_slot, src,
                      take);
            src += take;
            pos += take;
        }
    }
}

void
MemoryBdev::writeSlot(Slot &slot, std::uint32_t in_slot,
                      const std::uint8_t *src, std::uint32_t n)
{
    if (n == kSlotSize && uniform(src, n)) {
        slot.fill = src[0];
        if (slot.bytes) {
            slot.bytes.reset();
            --materialized_;
        }
        return;
    }
    if (!slot.bytes) {
        if (src[0] == slot.fill && uniform(src, n))
            return; // the slot already reads as these bytes
        slot.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(kSlotSize);
        ++materialized_;
        if (n < kSlotSize)
            std::memset(slot.bytes.get(), slot.fill, kSlotSize);
    }
    std::memcpy(slot.bytes.get() + in_slot, src, n);
}

} // namespace draid::blockdev
