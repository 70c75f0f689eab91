// Shared helpers for the xconv test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <vector>

#include "baselines/naive_conv.hpp"
#include "core/conv_layer.hpp"
#include "tensor/norms.hpp"
#include "tensor/transform.hpp"

namespace xconv::testing {

/// `o` steered by an explicit plan: the default plan a layer built from
/// (p, o) resolves, with `edit` applied. ConvOptions::plan is the one way to
/// steer a layer; validation of the edited plan happens at construction.
inline core::ConvOptions with_plan(
    const core::ConvParams& p, core::ConvOptions o,
    const std::function<void(core::ConvPlan&)>& edit) {
  core::ConvPlan plan = core::plan_default(core::plan_key(p, o));
  edit(plan);
  o.plan = plan;
  return o;
}

inline std::vector<float> random_vec(std::size_t n, unsigned seed,
                                     float lo = -1.0f, float hi = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Dense random test problem for one conv layer.
struct ConvProblem {
  core::ConvParams p;
  std::vector<float> in, wt, dout;

  explicit ConvProblem(const core::ConvParams& params, unsigned seed = 42)
      : p(params),
        in(random_vec(p.input_elems(), seed)),
        wt(random_vec(p.weight_elems(), seed + 1)),
        dout(random_vec(p.output_elems(), seed + 2)) {}
};

/// Relative-error check tolerant to fp32 reassociation.
inline void expect_close(const std::vector<float>& ref,
                         const std::vector<float>& got, double tol = 2e-3,
                         const char* what = "") {
  ASSERT_EQ(ref.size(), got.size()) << what;
  const tensor::ErrorNorms e =
      tensor::compare(ref.data(), got.data(), ref.size());
  EXPECT_LT(e.l2_rel, tol) << what << " " << e.to_string();
}

/// Relative L2 bound for an fp32 sum of `len` products taken in two
/// different orders: rounding errors grow like sqrt(len) * eps. The same rule
/// benchsuite's Table I check uses (len = C*R*S fwd, K*R*S bwd).
inline double reduction_bound(double len) {
  return 4.0 * std::numeric_limits<float>::epsilon() * std::sqrt(len);
}

inline void expect_within_reduction_bound(const std::vector<float>& ref,
                                          const std::vector<float>& got,
                                          double len, const char* what = "") {
  ASSERT_EQ(ref.size(), got.size()) << what;
  const tensor::ErrorNorms e =
      tensor::compare(ref.data(), got.data(), ref.size());
  EXPECT_LE(e.l2_rel, reduction_bound(len))
      << what << " reduction length " << len << " " << e.to_string();
}

/// Exact (bit-identical) comparison: two runs of the same kernel-call
/// sequence per output element give the same floats.
inline void expect_bitwise(const std::vector<float>& a,
                           const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) return;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
}

/// Fill a blocked tensor with quiet NaN. The layer helpers below poison
/// every buffer a pass writes, so a kernel call the pass drops (e.g. one its
/// stream recorder missed) leaves a NaN in the result and fails any bound.
template <class Tensor>
void poison(Tensor& t) {
  std::fill(t.data(), t.data() + t.size(),
            std::numeric_limits<float>::quiet_NaN());
}

/// Run ConvLayer forward on dense data; returns dense output.
inline std::vector<float> layer_forward(core::ConvLayer& layer,
                                        const ConvProblem& pr) {
  auto bin = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bwt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
  auto bout = layer.make_output();
  poison(bout);
  layer.forward(bin, bwt, bout);
  std::vector<float> out(pr.p.output_elems());
  tensor::blocked_to_nchw(bout, out.data());
  return out;
}

inline std::vector<float> layer_backward(core::ConvLayer& layer,
                                         const ConvProblem& pr) {
  auto bdout = layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);
  auto bwt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
  auto bdin = layer.make_input();
  poison(bdin);
  layer.backward(bdout, bwt, bdin);
  std::vector<float> din(pr.p.input_elems());
  tensor::blocked_to_nchw(bdin, din.data());
  return din;
}

inline std::vector<float> layer_update(core::ConvLayer& layer,
                                       const ConvProblem& pr) {
  auto bin = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bdout = layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);
  auto bdwt = layer.make_weights();
  poison(bdwt);
  layer.update(bin, bdout, bdwt);
  std::vector<float> dwt(pr.p.weight_elems());
  tensor::blocked_fwd_to_kcrs(bdwt, pr.p.K, pr.p.C, dwt.data());
  return dwt;
}

inline std::vector<float> naive_fwd(const ConvProblem& pr) {
  std::vector<float> out(pr.p.output_elems());
  baselines::naive_forward(pr.p, pr.in.data(), pr.wt.data(), out.data());
  return out;
}
inline std::vector<float> naive_bwd(const ConvProblem& pr) {
  std::vector<float> din(pr.p.input_elems());
  baselines::naive_backward(pr.p, pr.dout.data(), pr.wt.data(), din.data());
  return din;
}
inline std::vector<float> naive_upd(const ConvProblem& pr) {
  std::vector<float> dwt(pr.p.weight_elems());
  baselines::naive_update(pr.p, pr.in.data(), pr.dout.data(), dwt.data());
  return dwt;
}

}  // namespace xconv::testing
