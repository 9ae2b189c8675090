/**
 * @file
 * XOR kernels — the RAID-5 parity primitive.
 *
 * These are the software counterparts of the ISA-L routines the paper uses
 * (§8). On x86-64 they run an SSE2 body, 64 bytes per step as four
 * unaligned 16-byte lanes; SSE2 is baseline there, so the body is chosen
 * at compile time. Other targets run the portable body of 64-bit words.
 * The simulated CPU cost of running them is modeled separately by
 * sim::CpuCore with a calibrated bytes/sec rate.
 */

#ifndef DRAID_EC_XOR_KERNEL_H
#define DRAID_EC_XOR_KERNEL_H

#include <cstddef>
#include <cstdint>

#include "ec/buffer.h"

namespace draid::ec {

/** dst[i] ^= src[i] for i in [0, len). */
void xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t len);

/** dst[i] = a[i] ^ b[i] for i in [0, len). */
void xorBlocks(std::uint8_t *dst, const std::uint8_t *a,
               const std::uint8_t *b, std::size_t len);

/**
 * dst[i] = srcs[0][i] ^ ... ^ srcs[k-1][i] for i in [0, len), in one pass
 * over all k sources. dst may equal srcs[0]: that is the in-place form
 * dst ^= srcs[1] ^ ... ^ srcs[k-1]. @pre k >= 1
 */
void xorMany(std::uint8_t *dst, const std::uint8_t *const *srcs,
             std::size_t k, std::size_t len);

/** Name of the body the XOR kernels run: "sse2" or "portable". */
const char *xorKernelName();

/**
 * Buffer overloads. Lengths must match; asserts in debug builds.
 * @{
 */
void xorInto(Buffer &dst, const Buffer &src);
Buffer xorOf(const Buffer &a, const Buffer &b);
/** @} */

namespace detail {

/**
 * One XOR body (internal to src/ec and its tests): blocks is dst = a ^ b,
 * where dst may equal a (xorInto is the dst == a form); many is xorMany.
 */
struct XorKernels
{
    const char *name;
    void (*blocks)(std::uint8_t *dst, const std::uint8_t *a,
                   const std::uint8_t *b, std::size_t len);
    void (*many)(std::uint8_t *dst, const std::uint8_t *const *srcs,
                 std::size_t k, std::size_t len);
};

/** The portable scalar body; runs on every CPU. */
const XorKernels &portableXorKernels();

/** The body this build runs: SSE2 on x86-64, else portable. */
const XorKernels &selectedXorKernels();

} // namespace detail

} // namespace draid::ec

#endif // DRAID_EC_XOR_KERNEL_H
