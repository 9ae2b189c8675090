/**
 * @file
 * GF(2^8) block-kernel bodies behind Gf256 (internal to src/ec and its
 * tests).
 *
 * Every body shares one signature: it multiplies src by the coefficient
 * whose split-nibble tables it is given and stores the product into q
 * (mulBlock) or XORs it into q (mulAccum); xorMulAccum also XORs src into
 * p. p is unused by the other two.
 */

#ifndef DRAID_EC_GF256_KERNELS_H
#define DRAID_EC_GF256_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "ec/gf256.h"

namespace draid::ec::detail {

using GfBody = void (*)(const GfNibbleTables &t, const std::uint8_t *src,
                        std::uint8_t *p, std::uint8_t *q, std::size_t len);

/** One implementation of the three block kernels. */
struct GfKernels
{
    const char *name;
    GfBody mulBlock;
    GfBody mulAccum;
    GfBody xorMulAccum;
};

/** The portable scalar body; runs on every CPU. */
const GfKernels &portableGfKernels();

/** The body this CPU runs: SSSE3 where the CPU has it, else portable. */
const GfKernels &selectedGfKernels();

} // namespace draid::ec::detail

#endif // DRAID_EC_GF256_KERNELS_H
