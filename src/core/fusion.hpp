// Layer fusion (paper Section II-G): bandwidth-bound operators applied to an
// output sub-tensor right after its last convolution contribution, while the
// data is hot in cache. In the kernel-streams encoding these are the APPLY
// records (Section II-H).
//
// Two mechanisms exist and are chosen by the driver:
//   * in-kernel: a pure ReLU folds into the conv microkernel's store path
//     (vmaxps) at the last Cb iteration — zero extra passes;
//   * APPLY: operators needing extra operands (bias, batch-norm statistics
//     and affine parameters, residual eltwise-add) run as a separate record
//     over the still-hot block.
//
// GxM inference uses the APPLY records: a BatchNorm whose producer is a
// convolution runs as that convolution's batchnorm / batchnorm_relu APPLY
// (gxm/graph.cpp pairs them), so its output is written once, straight into
// the BatchNorm's top.
#pragma once

#include <cstdint>
#include <string>

namespace xconv::core {

enum class FusedOp : int {
  none = 0,
  relu,           ///< in-kernel vmaxps
  bias,           ///< O[k] += bias[k]
  bias_relu,      ///< O[k] = max(0, O[k] + bias[k])
  batchnorm,      ///< O[k] = bn_infer(O[k], gamma, mean, invstd, beta)[k]
  batchnorm_relu, ///< batchnorm, then O < 0 -> 0 (NaN and -0 pass through)
  eltwise_add,        ///< O += residual (same blocked layout)
  eltwise_add_relu,
};

const char* fused_op_name(FusedOp op);
/// True when the op needs an APPLY record (vs folding into the kernel).
bool needs_apply(FusedOp op);

/// BatchNorm's inference expression for one element, shared by the
/// batchnorm APPLY and gxm::BatchNormNode so both give the same bits.
inline float bn_infer(float x, float gamma, float mean, float invstd,
                      float beta) {
  return gamma * (x - mean) * invstd + beta;
}

/// Per-channel / residual operands supplied at execution time. Channel arrays
/// are indexed in the blocked layout: arg[kb*vlen + lane], length Kb*vlen.
/// The batchnorm ops take BatchNorm's own operands: gamma, beta, the mean
/// and the inverse standard deviation 1/sqrt(var + eps).
struct FusionArgs {
  const float* bias = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  const float* mean = nullptr;
  const float* invstd = nullptr;
  const float* residual = nullptr;  ///< same blocked layout as the output

  /// True when no operand is set: stream replay then skips APPLY records.
  bool empty() const {
    return bias == nullptr && gamma == nullptr && beta == nullptr &&
           mean == nullptr && invstd == nullptr && residual == nullptr;
  }
};

/// One APPLY record: the op plus the output block it covers.
struct ApplyRecord {
  FusedOp op = FusedOp::none;
  std::int64_t out_off = 0;  ///< element offset of the block in the output
  int rows = 0;              ///< block height in pixels
  int cols = 0;              ///< block width in pixels
  int row_stride = 0;        ///< output elements between pixel rows
  int kb = 0;                ///< output feature block (per-channel operands)
  int vlen = 0;
};

/// Execute one APPLY record against the output tensor base pointer.
void apply_fused_op(const ApplyRecord& rec, float* out_base,
                    const FusionArgs& args);

}  // namespace xconv::core
