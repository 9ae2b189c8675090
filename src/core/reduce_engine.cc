#include "core/reduce_engine.h"

#include <algorithm>
#include <cstring>

#include "ec/gf256.h"
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

/** Sources one xorMany call reads; a longer list folds in groups. */
constexpr std::size_t kFoldGroup = 16;

/**
 * Fold every contribution of @p s that covers the in-chunk range [lo, hi)
 * into @p window, the result buffer whose first byte is in-chunk offset
 * @p base: the plain ones in one xorMany pass, then each coefficient term
 * with one GF(2^8) pass. @p into, when set, is the contribution the
 * window already holds; it is the first source of the pass.
 */
void
foldSegment(std::uint8_t *window, std::uint32_t base, std::uint32_t lo,
            std::uint32_t hi, const ReduceSession &s,
            const Contribution *into)
{
    std::uint8_t *out = window + (lo - base);
    const std::size_t len = hi - lo;
    const auto covers = [&](const Contribution &c) {
        return &c != into && c.offset <= lo && c.offset + c.data.size() >= hi;
    };
    const std::uint8_t *srcs[kFoldGroup];
    std::size_t n = 0;
    bool have = into != nullptr; // does out hold a term already?
    if (have)
        srcs[n++] = out;
    for (const Contribution &c : s.held) {
        if (c.coef != 1 || !covers(c))
            continue;
        srcs[n++] = c.data.data() + (lo - c.offset);
        if (n == kFoldGroup) {
            ec::xorMany(out, srcs, n, len);
            have = true;
            n = 0;
            srcs[n++] = out;
        }
    }
    if (n > (have ? 1u : 0u)) {
        ec::xorMany(out, srcs, n, len);
        have = true;
    }
    const auto &gf = ec::Gf256::instance();
    for (const Contribution &c : s.held) {
        if (c.coef == 1 || !covers(c))
            continue;
        const std::uint8_t *src = c.data.data() + (lo - c.offset);
        if (have)
            gf.mulAccum(c.coef, src, out, len);
        else
            gf.mulBlock(c.coef, src, out, len);
        have = true;
    }
    if (!have)
        std::memset(out, 0, len);
}

} // namespace

void
ReduceEngine::absorb(ReduceSession &s, std::uint32_t offset,
                     ec::Buffer data, std::uint8_t coef)
{
    absorbNoCount(s, offset, std::move(data), coef);
    --s.remaining;
}

void
ReduceEngine::absorbNoCount(ReduceSession &s, std::uint32_t offset,
                            ec::Buffer data, std::uint8_t coef)
{
    ++s.absorbed;
    s.bytesAbsorbed += data.size();
    if (!data.empty())
        s.held.push_back(Contribution{std::move(data), offset, coef});
}

bool
ReduceEngine::readyToFinish(const ReduceSession &s)
{
    return s.hostCmdSeen && s.remaining == 0 && !s.preloadPending;
}

ec::Buffer
ReduceEngine::finalWindow(ReduceSession &s)
{
    const std::uint32_t lo = s.baseOffset;
    const std::uint32_t hi = lo + s.length;
    const Contribution *into = nullptr;
    for (const Contribution &c : s.held) {
        if (c.coef == 1 && c.offset == lo && c.data.size() == s.length &&
            c.data.unique()) {
            into = &c;
            break;
        }
    }
    ec::Buffer out = into ? into->data : ec::Buffer::forOverwrite(s.length);
    // One segment per run of bytes the same contributions cover; when they
    // all share the window's range, that is the whole window.
    for (std::uint32_t a = lo; a < hi;) {
        std::uint32_t b = hi;
        for (const Contribution &c : s.held) {
            const auto end =
                c.offset + static_cast<std::uint32_t>(c.data.size());
            if (c.offset > a)
                b = std::min(b, c.offset);
            else if (end > a)
                b = std::min(b, end);
        }
        foldSegment(out.data(), lo, a, b, s, into);
        a = b;
    }
    s.held = {};
    return out;
}

} // namespace draid::core
