#include "ec/buffer.h"

#include <cassert>
#include <cstring>

namespace draid::ec {

Buffer::Buffer(std::size_t size)
    : data_(std::make_shared<std::uint8_t[]>(size)), size_(size)
{
}

Buffer::Buffer(const std::uint8_t *src, std::size_t size)
    : Buffer(forOverwrite(size))
{
    std::memcpy(data_.get(), src, size);
}

Buffer
Buffer::forOverwrite(std::size_t size)
{
    Buffer b;
    b.data_ = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    b.size_ = size;
    return b;
}

Buffer
Buffer::clone() const
{
    if (empty())
        return Buffer();
    return Buffer(data_.get(), size_);
}

Buffer
Buffer::slice(std::size_t offset, std::size_t len) const
{
    assert(offset + len <= size_);
    if (offset == 0 && len == size_)
        return *this;
    return Buffer(data_.get() + offset, len);
}

bool
Buffer::contentEquals(const Buffer &other) const
{
    if (size_ != other.size_)
        return false;
    if (size_ == 0)
        return true;
    return std::memcmp(data_.get(), other.data_.get(), size_) == 0;
}

void
Buffer::fill(std::uint8_t value)
{
    if (size_)
        std::memset(data_.get(), value, size_);
}

void
Buffer::fillPattern(std::uint64_t seed)
{
    // Cheap splitmix-style stream; good enough to make collisions
    // vanishingly unlikely in integrity tests.
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < size_; ++i) {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        data_.get()[i] = static_cast<std::uint8_t>(z ^ (z >> 31));
    }
}

} // namespace draid::ec
