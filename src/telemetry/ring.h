/**
 * @file
 * Fixed-capacity ring that overwrites its oldest entry: the store behind
 * the event journal and the flight recorder. Memory is allocated once at
 * construction, and a push is one copy plus a wrapping cursor (no
 * division), cheap enough for the flight recorder's per-span path.
 */

#ifndef DRAID_TELEMETRY_RING_H
#define DRAID_TELEMETRY_RING_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace draid::telemetry {

template <typename T>
class Ring
{
  public:
    /** A ring of @p capacity slots (at least one). */
    explicit Ring(std::size_t capacity)
        : slots_(std::max<std::size_t>(capacity, 1))
    {
    }

    std::size_t capacity() const { return slots_.size(); }
    /** Entries held (== capacity once the ring has wrapped). */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            std::min<std::uint64_t>(total_, slots_.size()));
    }
    /** Entries ever pushed (size() + overwritten). */
    std::uint64_t total() const { return total_; }

    /** Append @p v, overwriting the oldest entry once full. */
    void
    push(const T &v)
    {
        slots_[next_] = v;
        if (++next_ == slots_.size())
            next_ = 0;
        ++total_;
    }

    /** The held entries, oldest first. */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(size());
        // Once full, the oldest entry sits at the write cursor.
        const auto cursor =
            slots_.begin() + static_cast<std::ptrdiff_t>(next_);
        if (total_ >= slots_.size())
            out.insert(out.end(), cursor, slots_.end());
        out.insert(out.end(), slots_.begin(), cursor);
        return out;
    }

    /** Drop every entry; the capacity stays. */
    void
    clear()
    {
        next_ = 0;
        total_ = 0;
    }

  private:
    // draid-lint: cap(capacity ctor arg; ring overwrite, never grows)
    std::vector<T> slots_;
    std::size_t next_ = 0;    ///< slot the next push lands in
    std::uint64_t total_ = 0; ///< entries ever pushed
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_RING_H
