#include "ec/gf256.h"

#include <cassert>

#include "ec/gf256_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DRAID_GF_SSSE3 1
#endif

namespace draid::ec {

namespace detail {

namespace {

enum class Op
{
    kSet,       ///< q = c*src
    kAccum,     ///< q ^= c*src
    kXorAccum,  ///< p ^= src; q ^= c*src
};

template <Op op>
void
portableBody(const GfNibbleTables &t, const std::uint8_t *src,
             std::uint8_t *p, std::uint8_t *q, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        const std::uint8_t s = src[i];
        const auto v = static_cast<std::uint8_t>(t.lo[s & 0x0f] ^ t.hi[s >> 4]);
        if constexpr (op == Op::kSet)
            q[i] = v;
        else
            q[i] ^= v;
        if constexpr (op == Op::kXorAccum)
            p[i] ^= s;
    }
}

const GfKernels kPortable{"portable", portableBody<Op::kSet>,
                          portableBody<Op::kAccum>,
                          portableBody<Op::kXorAccum>};

#ifdef DRAID_GF_SSSE3
/**
 * @p lanes consecutive 16-byte blocks at byte @p i: pshufb looks up both
 * nibbles of 16 bytes at once, and every load is issued before the stores.
 */
template <Op op, std::size_t lanes>
__attribute__((target("ssse3"))) inline void
ssse3Step(__m128i lo, __m128i hi, const std::uint8_t *src, std::uint8_t *p,
          std::uint8_t *q, std::size_t i)
{
    const __m128i mask = _mm_set1_epi8(0x0f);
    __m128i v[lanes];
    __m128i pv[lanes];
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t at = i + 16 * l;
        const __m128i s =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(src + at));
        v[l] = _mm_xor_si128(
            _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
            _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)));
        if constexpr (op != Op::kSet) {
            v[l] = _mm_xor_si128(
                v[l],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(q + at)));
        }
        if constexpr (op == Op::kXorAccum) {
            pv[l] = _mm_xor_si128(
                s, _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + at)));
        }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t at = i + 16 * l;
        _mm_storeu_si128(reinterpret_cast<__m128i *>(q + at), v[l]);
        if constexpr (op == Op::kXorAccum)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(p + at), pv[l]);
    }
}

// 64 bytes per step, then 16, then the tail shorter than 16 bytes through
// the portable body.
template <Op op>
__attribute__((target("ssse3"))) void
ssse3Body(const GfNibbleTables &t, const std::uint8_t *src, std::uint8_t *p,
          std::uint8_t *q, std::size_t len)
{
    const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i *>(t.lo));
    const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i *>(t.hi));
    std::size_t i = 0;
    for (; i + 64 <= len; i += 64)
        ssse3Step<op, 4>(lo, hi, src, p, q, i);
    for (; i + 16 <= len; i += 16)
        ssse3Step<op, 1>(lo, hi, src, p, q, i);
    portableBody<op>(t, src + i, op == Op::kXorAccum ? p + i : p, q + i,
                     len - i);
}

const GfKernels kSsse3{"ssse3", ssse3Body<Op::kSet>, ssse3Body<Op::kAccum>,
                       ssse3Body<Op::kXorAccum>};
#endif

} // namespace

const GfKernels &
portableGfKernels()
{
    return kPortable;
}

const GfKernels &
selectedGfKernels()
{
#ifdef DRAID_GF_SSSE3
    __builtin_cpu_init();
    if (__builtin_cpu_supports("ssse3"))
        return kSsse3;
#endif
    return kPortable;
}

} // namespace detail

const Gf256 &
Gf256::instance()
{
    static const Gf256 field;
    return field;
}

Gf256::Gf256() : kernels_(&detail::selectedGfKernels())
{
    // Generator g = 2, polynomial 0x11d.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
        exp_[i] = static_cast<std::uint8_t>(x);
        log_[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i)
        exp_[i] = exp_[i - 255];
    log_[0] = 0; // Unused; mul() guards zero operands.

    for (unsigned c = 0; c < 256; ++c) {
        const auto cc = static_cast<std::uint8_t>(c);
        for (unsigned n = 0; n < 16; ++n) {
            tables_[c].lo[n] = mul(cc, static_cast<std::uint8_t>(n));
            tables_[c].hi[n] = mul(cc, static_cast<std::uint8_t>(n << 4));
        }
    }
}

std::uint8_t
Gf256::div(std::uint8_t a, std::uint8_t b) const
{
    assert(b != 0);
    if (a == 0)
        return 0;
    return exp_[(log_[a] + 255 - log_[b]) % 255];
}

std::uint8_t
Gf256::inv(std::uint8_t a) const
{
    assert(a != 0);
    return exp_[(255 - log_[a]) % 255];
}

void
Gf256::mulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len) const
{
    if (c != 0)
        kernels_->mulAccum(tables_[c], src, nullptr, dst, len);
}

void
Gf256::mulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len) const
{
    kernels_->mulBlock(tables_[c], src, nullptr, dst, len);
}

void
Gf256::xorMulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *p,
                   std::uint8_t *q, std::size_t len) const
{
    kernels_->xorMulAccum(tables_[c], src, p, q, len);
}

const char *
Gf256::kernelName() const
{
    return kernels_->name;
}

} // namespace draid::ec
