#include "core/fusion.hpp"

#include <stdexcept>

namespace xconv::core {

const char* fused_op_name(FusedOp op) {
  switch (op) {
    case FusedOp::none: return "none";
    case FusedOp::relu: return "relu";
    case FusedOp::bias: return "bias";
    case FusedOp::bias_relu: return "bias_relu";
    case FusedOp::batchnorm: return "batchnorm";
    case FusedOp::batchnorm_relu: return "batchnorm_relu";
    case FusedOp::eltwise_add: return "eltwise_add";
    case FusedOp::eltwise_add_relu: return "eltwise_add_relu";
  }
  return "unknown";
}

bool needs_apply(FusedOp op) {
  return op != FusedOp::none && op != FusedOp::relu;
}

namespace {

template <class Fn>
void for_block(const ApplyRecord& rec, float* out_base, Fn&& fn) {
  for (int p = 0; p < rec.rows; ++p) {
    float* row = out_base + rec.out_off +
                 static_cast<std::int64_t>(p) * rec.row_stride;
    for (int q = 0; q < rec.cols; ++q) {
      float* px = row + static_cast<std::int64_t>(q) * rec.vlen;
#pragma omp simd
      for (int k = 0; k < rec.vlen; ++k) fn(px[k], k);
    }
  }
}

/// batchnorm / batchnorm_relu over one block, with the lane count V a
/// compile-time constant so the lane loop vectorizes.
template <int V, bool Relu>
void batchnorm_block(const ApplyRecord& rec, float* out_base,
                     const FusionArgs& a) {
  const int c0 = rec.kb * V;
  float g[V], mu[V], is[V], b[V];
  for (int k = 0; k < V; ++k) {
    g[k] = a.gamma[c0 + k];
    mu[k] = a.mean[c0 + k];
    is[k] = a.invstd[c0 + k];
    b[k] = a.beta[c0 + k];
  }
  for (int p = 0; p < rec.rows; ++p) {
    float* row = out_base + rec.out_off +
                 static_cast<std::int64_t>(p) * rec.row_stride;
    for (int q = 0; q < rec.cols; ++q) {
      float* px = row + static_cast<std::int64_t>(q) * V;
#pragma omp simd
      for (int k = 0; k < V; ++k) {
        const float v = bn_infer(px[k], g[k], mu[k], is[k], b[k]);
        px[k] = Relu && v < 0.0f ? 0.0f : v;
      }
    }
  }
}

template <bool Relu>
void batchnorm(const ApplyRecord& rec, float* out_base, const FusionArgs& a) {
  if (a.gamma == nullptr || a.beta == nullptr || a.mean == nullptr ||
      a.invstd == nullptr)
    throw std::invalid_argument("fusion: batchnorm operands missing");
  switch (rec.vlen) {
    case 8: return batchnorm_block<8, Relu>(rec, out_base, a);
    case 16: return batchnorm_block<16, Relu>(rec, out_base, a);
    default:
      throw std::invalid_argument("fusion: batchnorm needs vlen 8 or 16");
  }
}

}  // namespace

void apply_fused_op(const ApplyRecord& rec, float* out_base,
                    const FusionArgs& args) {
  const int base_k = rec.kb * rec.vlen;
  switch (rec.op) {
    case FusedOp::none:
      return;
    case FusedOp::relu:
      for_block(rec, out_base,
                [](float& v, int) { v = v > 0.0f ? v : 0.0f; });
      return;
    case FusedOp::bias:
      if (args.bias == nullptr)
        throw std::invalid_argument("fusion: bias operand missing");
      for_block(rec, out_base,
                [&](float& v, int k) { v += args.bias[base_k + k]; });
      return;
    case FusedOp::bias_relu:
      if (args.bias == nullptr)
        throw std::invalid_argument("fusion: bias operand missing");
      for_block(rec, out_base, [&](float& v, int k) {
        v += args.bias[base_k + k];
        v = v > 0.0f ? v : 0.0f;
      });
      return;
    case FusedOp::batchnorm:
      return batchnorm<false>(rec, out_base, args);
    case FusedOp::batchnorm_relu:
      return batchnorm<true>(rec, out_base, args);
    case FusedOp::eltwise_add:
    case FusedOp::eltwise_add_relu: {
      if (args.residual == nullptr)
        throw std::invalid_argument("fusion: residual operand missing");
      const bool relu = rec.op == FusedOp::eltwise_add_relu;
      for (int p = 0; p < rec.rows; ++p) {
        float* row = out_base + rec.out_off +
                     static_cast<std::int64_t>(p) * rec.row_stride;
        const float* res = args.residual + rec.out_off +
                           static_cast<std::int64_t>(p) * rec.row_stride;
#pragma omp simd
        for (int i = 0; i < rec.cols * rec.vlen; ++i) {
          float v = row[i] + res[i];
          row[i] = relu ? (v > 0.0f ? v : 0.0f) : v;
        }
      }
      return;
    }
  }
}

}  // namespace xconv::core
