// Layout transforms between the framework-facing logical layouts (NCHW
// activations, KCRS weights, both dense row-major) and the blocked SIMD
// layouts of layout.hpp, plus the backward-duality weight transform of paper
// Section II-I.
#pragma once

#include <cstddef>
#include <functional>

#include "core/conv_params.hpp"
#include "tensor/layout.hpp"

namespace xconv::tensor {

// ---- Activations ----------------------------------------------------------

/// Copy a dense NCHW array (n*c*h*w floats) into a blocked ActTensor,
/// zero-filling channel-padding lanes and the spatial halo.
void nchw_to_blocked(const float* src, ActTensor& dst);

/// Copy the logical interior of a blocked ActTensor back to dense NCHW.
void blocked_to_nchw(const ActTensor& src, float* dst);

// ---- Weights --------------------------------------------------------------

/// KCRS (dense, k-major) -> forward blocked form W[Kb][Cb][R][S][vc][vk].
void kcrs_to_blocked_fwd(const float* src, int K, int C, WtTensor& dst);

/// Forward blocked form back to dense KCRS (drops padding lanes).
void blocked_fwd_to_kcrs(const WtTensor& src, int K, int C, float* dst);

/// KCRS -> backward-dual blocked form W'[Cb][Kb][R][S][vk][vc] with flipped
/// spatial taps: W'[c][k][R-1-r][S-1-s] = W[k][c][r][s] (Section II-I).
void kcrs_to_blocked_bwd(const float* src, int K, int C, WtTensor& dst);

/// Forward blocked form -> backward-dual blocked form directly (used when the
/// master copy of the weights lives in blocked layout). Every element of
/// `bwd` is written, so it needs no prior zeroing. Runs on `threads` OpenMP
/// threads (0 = omp_get_max_threads()); the result does not depend on it.
void blocked_fwd_to_bwd(const WtTensor& fwd, WtTensor& bwd, int threads = 0);

/// The duality transform one v x v block at a time: `body(f, b)` runs once
/// for every block of the forward-form `fwd`, where `f` is the element
/// offset of the block in `fwd` and `b` the offset of the block it becomes
/// in the backward form (channel blocks swapped, taps flipped). Blocks are
/// split across `threads` OpenMP threads (0 = omp_get_max_threads()); each
/// block is visited by exactly one thread.
void for_each_dual_block(const WtTensor& fwd, int threads,
                         const std::function<void(std::size_t f,
                                                  std::size_t b)>& body);

/// Write the forward-form block `src` ([c][k], v x v) into the backward-form
/// block `dst` ([k][c]): the per-block body of the duality transform.
inline void transpose_block(const float* src, float* dst, int v) {
  for (int k = 0; k < v; ++k)
    for (int c = 0; c < v; ++c) dst[k * v + c] = src[c * v + k];
}

// ---- Gradient-weight form -------------------------------------------------

/// The weight-update pass produces dW in the forward blocked layout; this
/// exports it to dense KCRS like blocked_fwd_to_kcrs (alias for clarity).
inline void blocked_dw_to_kcrs(const WtTensor& src, int K, int C, float* dst) {
  blocked_fwd_to_kcrs(src, K, C, dst);
}

}  // namespace xconv::tensor
