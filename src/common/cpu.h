#pragma once

// Runtime ISA dispatch shared by every hand-vectorized kernel. A kernel is
// written once and compiled twice: inlined into an entry point marked
// __attribute__((target("avx2"))) and into a baseline-ISA one; the caller
// takes the AVX2 build when HUMO_HAS_AVX2_DISPATCH is defined and
// CpuHasAvx2() says the CPU runs it. The AVX2 target adds 256-bit integer
// and floating-point operations but never fused multiply-add, so each lane
// rounds exactly like the baseline build's instructions and both builds
// compute the same bits.

#if defined(__GNUC__) && defined(__x86_64__)
#define HUMO_HAS_AVX2_DISPATCH 1
#endif

namespace humo {

/// Four doubles, one per lane. GCC/Clang vector extensions: every operator
/// is the per-lane IEEE operation (256-bit instructions in an AVX2 build,
/// two SSE2 halves in the baseline build, scalar code elsewhere), and with
/// -ffp-contract=off a product is never fused into the sum that consumes
/// it. may_alias: the storage is also read as plain doubles; aligned(8):
/// operands need not be 32-byte aligned.
typedef double V4 __attribute__((vector_size(32), may_alias, aligned(8)));

/// True when the CPU runs AVX2 instructions (always false where
/// HUMO_HAS_AVX2_DISPATCH is undefined). Probed once per process.
bool CpuHasAvx2();

}  // namespace humo
