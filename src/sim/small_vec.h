/**
 * @file
 * SmallVec: a vector that keeps its first N elements inline (one by
 * default) and moves to the heap only when one more arrives.
 *
 * Most ranges the RAID layer maps are small reads inside one chunk, which
 * map to one stripe group of one extent; with SmallVec, mapping them
 * allocates nothing. A reduce session holds two contributions inline: the
 * old-parity preload and the one delta of a single-chunk RMW.
 */

#ifndef DRAID_SIM_SMALL_VEC_H
#define DRAID_SIM_SMALL_VEC_H

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

namespace draid::sim {

/** Contiguous storage, inline for up to N elements, on the heap for more. */
template <typename T, std::size_t N = 1>
class SmallVec
{
    static_assert(N >= 1, "SmallVec keeps at least one element inline");

  public:
    SmallVec() = default;
    SmallVec(const SmallVec &) = default;
    SmallVec &operator=(const SmallVec &) = default;

    /** Moving leaves @p other empty. */
    SmallVec(SmallVec &&other) noexcept
        : inline_(std::move(other.inline_)),
          spill_(std::move(other.spill_)),
          size_(std::exchange(other.size_, 0))
    {
    }

    SmallVec &
    operator=(SmallVec &&other) noexcept
    {
        inline_ = std::move(other.inline_);
        spill_ = std::move(other.spill_);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    void
    push_back(T value)
    {
        if (size_ < N) {
            inline_[size_] = std::move(value);
        } else {
            if (size_ == N) {
                for (T &e : inline_)
                    spill_.push_back(std::move(e));
            }
            spill_.push_back(std::move(value));
        }
        ++size_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() { return size_ > N ? spill_.data() : inline_.data(); }
    T *end() { return begin() + size_; }
    const T *
    begin() const
    {
        return size_ > N ? spill_.data() : inline_.data();
    }
    const T *end() const { return begin() + size_; }

    T &operator[](std::size_t i) { return begin()[i]; }
    const T &operator[](std::size_t i) const { return begin()[i]; }
    T &back() { return begin()[size_ - 1]; }

  private:
    std::array<T, N> inline_{}; ///< the elements while there are at most N
    // draid-lint: cap(the caller's element count, once it exceeds N)
    std::vector<T> spill_;
    std::size_t size_ = 0;
};

} // namespace draid::sim

#endif // DRAID_SIM_SMALL_VEC_H
