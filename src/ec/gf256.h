/**
 * @file
 * GF(2^8) arithmetic for RAID-6 (polynomial 0x11d, generator 2).
 *
 * Follows the construction in H. P. Anvin, "The mathematics of RAID-6":
 * the Q parity is sum_i g^i * D_i over GF(2^8) where g = 2. Tables are
 * built once at startup.
 *
 * The block kernels use ISA-L's split-nibble scheme: for a coefficient c,
 * c * s = lo[s & 15] ^ hi[s >> 4], with two 16-entry tables per
 * coefficient. On x86 with SSSE3 one pshufb looks up 16 bytes at a time;
 * elsewhere a portable body reads the same tables. The body is chosen once,
 * by CPU feature detection, when the field is built.
 */

#ifndef DRAID_EC_GF256_H
#define DRAID_EC_GF256_H

#include <cstddef>
#include <cstdint>

namespace draid::ec {

namespace detail {
struct GfKernels;
} // namespace detail

/** Split-nibble product tables of one coefficient c. */
struct GfNibbleTables
{
    alignas(16) std::uint8_t lo[16]; ///< lo[n] = c * n
    alignas(16) std::uint8_t hi[16]; ///< hi[n] = c * (n << 4)
};

/** Galois field GF(2^8) with the RAID-6 polynomial x^8+x^4+x^3+x^2+1. */
class Gf256
{
  public:
    /** The singleton field instance (tables built on first use). */
    static const Gf256 &instance();

    /** Field multiply. */
    std::uint8_t
    mul(std::uint8_t a, std::uint8_t b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return exp_[log_[a] + log_[b]];
    }

    /** Field divide. @pre b != 0 */
    std::uint8_t div(std::uint8_t a, std::uint8_t b) const;

    /** Multiplicative inverse. @pre a != 0 */
    std::uint8_t inv(std::uint8_t a) const;

    /** g^n for generator g = 2 (n may exceed 255; reduced mod 255). */
    std::uint8_t pow2(unsigned n) const { return exp_[n % 255]; }

    /** Discrete log base 2 of a. @pre a != 0 */
    std::uint8_t log2(std::uint8_t a) const { return log_[a]; }

    /** The split-nibble tables of coefficient @p c. */
    const GfNibbleTables &tables(std::uint8_t c) const { return tables_[c]; }

    /**
     * dst[i] ^= c * src[i] — the multiply-accumulate kernel used for Q
     * parity generation and reconstruction.
     */
    void mulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) const;

    /** dst[i] = c * src[i]. */
    void mulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) const;

    /**
     * p[i] ^= src[i] and q[i] ^= c * src[i] in one pass: the fused RAID-6
     * P+Q update for one data chunk.
     */
    void xorMulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *p,
                     std::uint8_t *q, std::size_t len) const;

    /** Name of the block-kernel body in use ("ssse3" or "portable"). */
    const char *kernelName() const;

  private:
    Gf256();

    // exp_ is doubled so mul() can skip the mod-255 reduction.
    std::uint8_t exp_[512];
    std::uint8_t log_[256];
    GfNibbleTables tables_[256];
    const detail::GfKernels *kernels_;
};

} // namespace draid::ec

#endif // DRAID_EC_GF256_H
