/**
 * @file
 * Reference-counted byte buffers used throughout the data plane.
 *
 * Buffers are cheap to copy (shared ownership) so a payload can be handed
 * through the simulated network, reduced at a peer, and verified at the
 * host without deep copies — mirroring the zero-copy RDMA data path of the
 * real system.
 *
 * Sharing is safe under one ownership rule (DESIGN.md): a buffer handed
 * into the data path is never mutated by its sender afterwards, and code
 * mutates in place only a buffer it allocated or holds alone (unique()).
 */

#ifndef DRAID_EC_BUFFER_H
#define DRAID_EC_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace draid::ec {

/** A shared, fixed-size byte buffer. */
class Buffer
{
  public:
    /** An empty (null) buffer. */
    Buffer() = default;

    /** Allocate a zero-initialized buffer of @p size bytes. */
    explicit Buffer(std::size_t size);

    /** Allocate and fill from @p src (copies @p size bytes). */
    Buffer(const std::uint8_t *src, std::size_t size);

    /**
     * Allocate @p size bytes left uninitialized, for an output the caller
     * overwrites in full before reading it.
     */
    static Buffer forOverwrite(std::size_t size);

    Buffer(const Buffer &) = default;
    Buffer &operator=(const Buffer &) = default;

    /** A moved-from buffer is empty: it holds no storage and no bytes. */
    Buffer(Buffer &&other) noexcept
        : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0))
    {
    }

    Buffer &
    operator=(Buffer &&other) noexcept
    {
        data_ = std::move(other.data_);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::uint8_t *data() { return data_.get(); }
    const std::uint8_t *data() const { return data_.get(); }

    std::uint8_t &operator[](std::size_t i) { return data_.get()[i]; }
    std::uint8_t operator[](std::size_t i) const { return data_.get()[i]; }

    /** Deep copy. */
    Buffer clone() const;

    /**
     * Bytes [offset, offset+len). The whole range shares this buffer's
     * storage; any shorter range is an independent copy, so a sub-range
     * never pins a larger parent. @pre offset+len <= size()
     */
    Buffer slice(std::size_t offset, std::size_t len) const;

    /**
     * True when this handle is the only one to its storage, so its owner
     * may mutate it in place without another holder seeing the change.
     */
    bool unique() const { return data_.use_count() == 1; }

    /** Byte-wise equality (both empty counts as equal). */
    bool contentEquals(const Buffer &other) const;

    /** Fill the whole buffer with @p value. */
    void fill(std::uint8_t value);

    /** Fill with a deterministic pattern derived from @p seed (testing). */
    void fillPattern(std::uint64_t seed);

  private:
    std::shared_ptr<std::uint8_t[]> data_;
    std::size_t size_ = 0;
};

} // namespace draid::ec

#endif // DRAID_EC_BUFFER_H
