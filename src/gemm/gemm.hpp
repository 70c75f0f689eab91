// Small-GEMM substrate.
//
// The paper's microkernel is "a perfectly-chained sequence of small GEMM
// operations" (Section II-D): out[y][m] += sum_x in[y][x] * wt[x][m], i.e.
// C(NxM) += B(NxK) * A(KxM) with M the unit-stride dimension (M maps to the
// vectorized output-channel block, K to the input-channel block, N to the RBQ
// output pixels). All implementations here use that operand naming:
//
//   wt : K x M, row stride lda (the "A" matrix, vector-loaded)
//   in : N x K, row stride ldb (the "B" matrix, scalar-broadcast)
//   out: N x M, row stride ldc (accumulated into)
//
// Two engines with identical semantics, used by the comparator baselines
// (src/baselines) only; the library's own kernels are the forward
// generator's (a 1x1 kernel is exactly this small GEMM):
//   * gemm_ref      — naive triple loop; correctness oracle and the paper's
//                     "autovec" baseline (compiler auto-vectorization only).
//   * gemm_blocked  — hand-blocked, OpenMP-SIMD inner loops; the compiled
//                     "libxsmm-flavor" engine.
#pragma once

#include <cstdint>

namespace xconv::gemm {

/// out(N x M, ldc) += in(N x K, ldb) * wt(K x M, lda); naive loops.
void gemm_ref(int M, int N, int K, const float* wt, int lda, const float* in,
              int ldb, float* out, int ldc);

/// Same contract, register/cache blocked with OpenMP SIMD hints.
void gemm_blocked(int M, int N, int K, const float* wt, int lda,
                  const float* in, int ldb, float* out, int ldc);

/// beta=0 variants: out is overwritten instead of accumulated.
void gemm_ref_b0(int M, int N, int K, const float* wt, int lda,
                 const float* in, int ldb, float* out, int ldc);
void gemm_blocked_b0(int M, int N, int K, const float* wt, int lda,
                     const float* in, int ldb, float* out, int ldc);

}  // namespace xconv::gemm
