/**
 * @file
 * SmallVec: a vector that keeps a single element inline and moves to the
 * heap only when a second one arrives.
 *
 * Most ranges the RAID layer maps are small reads inside one chunk, which
 * map to one stripe group of one extent; with SmallVec, mapping them
 * allocates nothing.
 */

#ifndef DRAID_SIM_SMALL_VEC_H
#define DRAID_SIM_SMALL_VEC_H

#include <cstddef>
#include <utility>
#include <vector>

namespace draid::sim {

/** Contiguous storage, inline for one element, on the heap for more. */
template <typename T>
class SmallVec
{
  public:
    SmallVec() = default;
    SmallVec(const SmallVec &) = default;
    SmallVec &operator=(const SmallVec &) = default;

    /** Moving leaves @p other empty. */
    SmallVec(SmallVec &&other) noexcept
        : first_(std::move(other.first_)),
          spill_(std::move(other.spill_)),
          size_(std::exchange(other.size_, 0))
    {
    }

    SmallVec &
    operator=(SmallVec &&other) noexcept
    {
        first_ = std::move(other.first_);
        spill_ = std::move(other.spill_);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    void
    push_back(T value)
    {
        if (size_ == 0) {
            first_ = std::move(value);
        } else {
            if (size_ == 1)
                spill_.push_back(std::move(first_));
            spill_.push_back(std::move(value));
        }
        ++size_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() { return size_ > 1 ? spill_.data() : &first_; }
    T *end() { return begin() + size_; }
    const T *begin() const { return size_ > 1 ? spill_.data() : &first_; }
    const T *end() const { return begin() + size_; }

    T &operator[](std::size_t i) { return begin()[i]; }
    const T &operator[](std::size_t i) const { return begin()[i]; }
    T &back() { return begin()[size_ - 1]; }

  private:
    T first_{}; ///< the element while there is only one
    // draid-lint: cap(the caller's element count, once it exceeds one)
    std::vector<T> spill_;
    std::size_t size_ = 0;
};

} // namespace draid::sim

#endif // DRAID_SIM_SMALL_VEC_H
