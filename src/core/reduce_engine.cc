#include "core/reduce_engine.h"

#include <algorithm>
#include <cstring>

#include "ec/xor_kernel.h"

namespace draid::core {

ReduceSession &
ReduceEngine::obtain(std::uint64_t key)
{
    auto [it, created] = sessions_.try_emplace(key);
    if (created)
        ++stats_.sessionsCreated;
    return it->second;
}

ReduceSession *
ReduceEngine::find(std::uint64_t key)
{
    auto it = sessions_.find(key);
    return it == sessions_.end() ? nullptr : &it->second;
}

void
ReduceEngine::erase(std::uint64_t key)
{
    auto it = sessions_.find(key);
    if (it == sessions_.end())
        return;
    stats_.partialsAbsorbed += it->second.absorbed;
    stats_.bytesAbsorbed += it->second.bytesAbsorbed;
    sessions_.erase(it);
}

namespace {

/**
 * Grow the accumulator so it covers [begin, end) as well. New bytes are
 * zero. @pre the accumulator is not empty
 */
void
cover(ReduceSession &s, std::uint32_t begin, std::uint32_t end)
{
    if (begin >= s.accBegin && end <= s.accEnd)
        return;
    const std::uint32_t new_begin = std::min(begin, s.accBegin);
    const std::uint32_t new_end = std::max(end, s.accEnd);
    ec::Buffer grown = ec::Buffer::forOverwrite(new_end - new_begin);
    const std::uint32_t below = s.accBegin - new_begin;
    std::memset(grown.data(), 0, below);
    std::memcpy(grown.data() + below, s.acc.data(), s.acc.size());
    std::memset(grown.data() + below + s.acc.size(), 0, new_end - s.accEnd);
    s.acc = std::move(grown);
    s.accBegin = new_begin;
    s.accEnd = new_end;
}

} // namespace

void
ReduceEngine::absorb(ReduceSession &s, std::uint32_t offset,
                     ec::Buffer data)
{
    absorbNoCount(s, offset, std::move(data));
    --s.remaining;
}

void
ReduceEngine::absorbNoCount(ReduceSession &s, std::uint32_t offset,
                            ec::Buffer data)
{
    const auto end = offset + static_cast<std::uint32_t>(data.size());
    ++s.absorbed;
    s.bytesAbsorbed += data.size();
    if (data.empty())
        return;
    if (s.acc.empty()) {
        s.acc = data.unique() ? std::move(data) : data.clone();
        s.accBegin = offset;
        s.accEnd = end;
        return;
    }
    cover(s, offset, end);
    ec::xorInto(s.acc.data() + (offset - s.accBegin), data.data(),
                data.size());
}

bool
ReduceEngine::readyToFinish(const ReduceSession &s)
{
    return s.hostCmdSeen && s.remaining == 0 && !s.preloadPending;
}

ec::Buffer
ReduceEngine::finalWindow(const ReduceSession &s)
{
    const std::uint32_t end = s.baseOffset + s.length;
    if (s.baseOffset >= s.accBegin && end <= s.accEnd)
        return s.acc.slice(s.baseOffset - s.accBegin, s.length);
    ec::Buffer out(s.length);
    const std::uint32_t lo = std::max(s.baseOffset, s.accBegin);
    const std::uint32_t hi = std::min(end, s.accEnd);
    if (lo < hi)
        std::memcpy(out.data() + (lo - s.baseOffset),
                    s.acc.data() + (lo - s.accBegin), hi - lo);
    return out;
}

} // namespace draid::core
