#include "ec/xor_kernel.h"

#include <cassert>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#define DRAID_XOR_SSE2 1
#endif

namespace draid::ec {

namespace detail {

namespace {

// Word-wise with 4x unrolling; memcpy keeps this free of alignment UB and
// compiles to plain loads/stores. Every load of a step precedes its store,
// so dst may equal a (the in-place form).
void
portableBlocks(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
               std::size_t len)
{
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        std::uint64_t x[4], y[4];
        std::memcpy(x, a + i, 32);
        std::memcpy(y, b + i, 32);
        x[0] ^= y[0];
        x[1] ^= y[1];
        x[2] ^= y[2];
        x[3] ^= y[3];
        std::memcpy(dst + i, x, 32);
    }
    for (; i < len; ++i)
        dst[i] = a[i] ^ b[i];
}

// The same 32-byte words over k sources, from byte @p i on; each step
// loads every source before its store, so dst may equal srcs[0].
void
portableManyFrom(std::uint8_t *dst, const std::uint8_t *const *srcs,
                 std::size_t k, std::size_t i, std::size_t len)
{
    for (; i + 32 <= len; i += 32) {
        std::uint64_t x[4], y[4];
        std::memcpy(x, srcs[0] + i, 32);
        for (std::size_t s = 1; s < k; ++s) {
            std::memcpy(y, srcs[s] + i, 32);
            x[0] ^= y[0];
            x[1] ^= y[1];
            x[2] ^= y[2];
            x[3] ^= y[3];
        }
        std::memcpy(dst + i, x, 32);
    }
    for (; i < len; ++i) {
        std::uint8_t x = srcs[0][i];
        for (std::size_t s = 1; s < k; ++s)
            x ^= srcs[s][i];
        dst[i] = x;
    }
}

void
portableMany(std::uint8_t *dst, const std::uint8_t *const *srcs,
             std::size_t k, std::size_t len)
{
    portableManyFrom(dst, srcs, k, 0, len);
}

const XorKernels kPortable{"portable", portableBlocks, portableMany};

#ifdef DRAID_XOR_SSE2
/** @p lanes consecutive 16-byte blocks at byte @p i, loads before stores. */
template <std::size_t lanes>
inline void
sse2Step(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
         std::size_t i)
{
    __m128i v[lanes];
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t at = i + 16 * l;
        v[l] = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + at)),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + at)));
    }
    for (std::size_t l = 0; l < lanes; ++l)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i + 16 * l), v[l]);
}

// 64 bytes per step, then 16, then the tail shorter than 16 bytes through
// the portable body.
void
sse2Blocks(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
           std::size_t len)
{
    std::size_t i = 0;
    for (; i + 64 <= len; i += 64)
        sse2Step<4>(dst, a, b, i);
    for (; i + 16 <= len; i += 16)
        sse2Step<1>(dst, a, b, i);
    portableBlocks(dst + i, a + i, b + i, len - i);
}

/** sse2Step over k sources: srcs[0] ^ ... ^ srcs[k-1] into dst. */
template <std::size_t lanes>
inline void
sse2ManyStep(std::uint8_t *dst, const std::uint8_t *const *srcs,
             std::size_t k, std::size_t i)
{
    __m128i v[lanes];
    for (std::size_t l = 0; l < lanes; ++l)
        v[l] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(srcs[0] + i + 16 * l));
    for (std::size_t s = 1; s < k; ++s) {
        for (std::size_t l = 0; l < lanes; ++l) {
            v[l] = _mm_xor_si128(
                v[l], _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                          srcs[s] + i + 16 * l)));
        }
    }
    for (std::size_t l = 0; l < lanes; ++l)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i + 16 * l), v[l]);
}

// The steps of sse2Blocks, each reading all k sources; the tail shorter
// than 16 bytes goes through the portable body.
void
sse2Many(std::uint8_t *dst, const std::uint8_t *const *srcs, std::size_t k,
         std::size_t len)
{
    std::size_t i = 0;
    for (; i + 64 <= len; i += 64)
        sse2ManyStep<4>(dst, srcs, k, i);
    for (; i + 16 <= len; i += 16)
        sse2ManyStep<1>(dst, srcs, k, i);
    portableManyFrom(dst, srcs, k, i, len);
}

const XorKernels kSse2{"sse2", sse2Blocks, sse2Many};
constexpr auto kSelectedBlocks = sse2Blocks;
constexpr auto kSelectedMany = sse2Many;
const XorKernels &kSelected = kSse2;
#else
constexpr auto kSelectedBlocks = portableBlocks;
constexpr auto kSelectedMany = portableMany;
const XorKernels &kSelected = kPortable;
#endif

} // namespace

const XorKernels &
portableXorKernels()
{
    return kPortable;
}

const XorKernels &
selectedXorKernels()
{
    return kSelected;
}

} // namespace detail

void
xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t len)
{
    detail::kSelectedBlocks(dst, dst, src, len);
}

void
xorBlocks(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
          std::size_t len)
{
    detail::kSelectedBlocks(dst, a, b, len);
}

void
xorMany(std::uint8_t *dst, const std::uint8_t *const *srcs, std::size_t k,
        std::size_t len)
{
    assert(k >= 1);
    detail::kSelectedMany(dst, srcs, k, len);
}

const char *
xorKernelName()
{
    return detail::selectedXorKernels().name;
}

void
xorInto(Buffer &dst, const Buffer &src)
{
    assert(dst.size() == src.size());
    xorInto(dst.data(), src.data(), dst.size());
}

Buffer
xorOf(const Buffer &a, const Buffer &b)
{
    assert(a.size() == b.size());
    Buffer out = Buffer::forOverwrite(a.size());
    xorBlocks(out.data(), a.data(), b.data(), a.size());
    return out;
}

} // namespace draid::ec
