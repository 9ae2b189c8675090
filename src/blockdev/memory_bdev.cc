#include "blockdev/memory_bdev.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "ec/xor_kernel.h"

namespace draid::blockdev {

namespace {

/** True when all @p n bytes at @p p are equal. @pre n > 0 */
bool
uniform(const std::uint8_t *p, std::size_t n)
{
    return std::memcmp(p, p + 1, n - 1) == 0;
}

/**
 * Write @p n output bytes at @p dst that read as @p value: the value
 * itself, or @p op ^ value when an operand is given.
 */
void
fillRun(std::uint8_t *dst, const std::uint8_t *op, std::uint8_t value,
        std::size_t n)
{
    if (!op) {
        std::memset(dst, value, n);
    } else if (value == 0) {
        std::memcpy(dst, op, n);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = static_cast<std::uint8_t>(op[i] ^ value);
    }
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
MemoryBdev::readSync(std::uint64_t offset, std::uint32_t length,
                     const ec::Buffer &operand) const
{
    assert(offset + length <= capacity_);
    assert(operand.empty() || operand.size() == length);
    ec::Buffer out = ec::Buffer::forOverwrite(length);
    std::uint8_t *dst = out.data();
    const std::uint8_t *op = operand.empty() ? nullptr : operand.data();
    // Output bytes [run, done) all read as run_fill and are not written
    // yet: a run grows across slots and extents until a materialized page
    // or another value ends it, and is then written in one call.
    std::size_t run = 0;
    std::size_t done = 0;
    std::uint8_t run_fill = 0;
    const auto endRun = [&]() {
        if (done > run)
            fillRun(dst + run, op ? op + run : nullptr, run_fill, done - run);
        run = done;
    };
    const auto uniformBytes = [&](std::uint8_t value, std::uint64_t n) {
        if (value != run_fill) {
            endRun();
            run_fill = value;
        }
        done += n;
    };
    const std::uint64_t end = offset + length;
    while (done < length) {
        const std::uint64_t extent_end =
            std::min(end, ((offset + done) / kExtentSize + 1) * kExtentSize);
        auto it = extents_.find((offset + done) / kExtentSize);
        if (it == extents_.end()) {
            // Fresh-drive semantics: an untouched extent reads as zeros.
            uniformBytes(0, extent_end - offset - done);
            continue;
        }
        for (std::uint64_t pos = offset + done; pos < extent_end;
             pos = offset + done) {
            const Slot &slot = it->second[(pos % kExtentSize) / kSlotSize];
            const std::uint32_t in_slot =
                static_cast<std::uint32_t>(pos % kSlotSize);
            const std::uint32_t take = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(extent_end - pos,
                                        kSlotSize - in_slot));
            if (!slot.bytes) {
                uniformBytes(slot.fill, take);
                continue;
            }
            endRun();
            const std::uint8_t *page = slot.bytes.get() + in_slot;
            if (op)
                ec::xorBlocks(dst + done, op + done, page, take);
            else
                std::memcpy(dst + done, page, take);
            done += take;
            run = done;
        }
    }
    endRun();
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
