// Plan-space autotuning (the ROADMAP's "profile-guided plan autotuning").
//
// autotune_plan() searches the tunable dimensions of a ConvPlan for one
// layer and returns the empirically fastest candidate:
//
//   stage 1 — forward register blocking (rbp, rbq): the default plus exact
//             divisors of Q up to the full accumulator budget (the closed
//             form caps RBQ at kFwdRbqCap; the search may spend all
//             max_accumulators registers when measurement says it pays),
//   stage 2 — update pixel blocking (upd_bp, upd_bq) around the
//             kUpdBpCap/kUpdBqCap defaults, then the viable strategies
//             (task / minibatch / hybrid) at the winning blocking.
//
// Candidates are real ConvLayers constructed with explicit plans and timed
// with the existing platform::time_runs machinery, so a tuned plan is
// exactly what the production path will execute. The default plan is always
// candidate #0 — the argmax can never be slower than the default within one
// session's measurements, which is what the autotune-smoke CI job asserts.
//
// This lives in its own TU (not plan.cpp) because it constructs ConvLayers:
// conv_layer.hpp includes plan.hpp, so plan.cpp must not include it back.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/conv_layer.hpp"
#include "core/plan.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "platform/timer.hpp"
#include "tensor/layout.hpp"

namespace xconv::core {

namespace {

// Deterministic tensor fill (no <random> to keep construction cheap); the
// values only need to be nonzero and varied so timing reflects real FMA work.
void fill_pseudorandom(float* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t s = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = static_cast<float>((s >> 8) & 0xFFFF) / 65536.0f - 0.5f;
  }
}

ConvOptions exec_options(const PlanKey& key, bool fwd_only) {
  ConvOptions o;
  o.isa = key.isa;
  o.threads = key.threads;
  o.fwd_only = fwd_only;
  return o;
}

double measure_fwd(ConvLayer& layer, tensor::ActTensor& in,
                   tensor::WtTensor& wt, tensor::ActTensor& out,
                   const AutotuneConfig& cfg) {
  const auto st = platform::time_runs([&] { layer.forward(in, wt, out); },
                                      cfg.runs, cfg.warmup);
  return st.min_s;  // best-of-runs: least noise-sensitive comparison
}

double measure_upd(ConvLayer& layer, tensor::ActTensor& in,
                   tensor::ActTensor& dout, tensor::WtTensor& dw,
                   const AutotuneConfig& cfg) {
  const auto st = platform::time_runs([&] { layer.update(in, dout, dw); },
                                      cfg.runs, cfg.warmup);
  return st.min_s;
}

/// Candidate (rbp, rbq) pairs: default first, then exact divisors of Q
/// (largest first, no edge kernels) with the matching RBP refinements.
std::vector<std::pair<int, int>> fwd_candidates(const ConvParams& p,
                                                const ConvPlan& base,
                                                int max_acc, int limit) {
  const int P = p.P(), Q = p.Q();
  std::vector<std::pair<int, int>> cands;
  auto add = [&](int rbp, int rbq) {
    if (rbp < 1 || rbq < 1 || rbp * rbq > max_acc) return;
    if (static_cast<int>(cands.size()) >= limit) return;
    for (const auto& c : cands)
      if (c.first == rbp && c.second == rbq) return;
    cands.emplace_back(rbp, rbq);
  };
  add(base.rbp, base.rbq);
  for (int rb = std::min(Q, max_acc); rb >= kRbMinExtent; --rb) {
    if (Q % rb != 0) continue;
    add(1, rb);
    // Narrow layers: also try stacking rows on top of a full-row RBQ.
    if (rb == Q) {
      for (int rp = 2; rp <= std::min(P, max_acc / rb); ++rp) add(rp, rb);
    }
  }
  add(1, std::min(Q, max_acc));
  add(1, std::min(Q, kFwdRbqCap));
  return cands;
}

/// Candidate (upd_bp, upd_bq) pairs around the closed-form caps.
std::vector<std::pair<int, int>> upd_candidates(const ConvParams& p,
                                                const ConvPlan& base,
                                                int limit) {
  const int P = p.P(), Q = p.Q();
  std::vector<std::pair<int, int>> cands;
  auto add = [&](int bp, int bq) {
    if (bp < 1 || bp > P || bq < 1 || bq > Q) return;
    if (static_cast<int>(cands.size()) >= limit) return;
    for (const auto& c : cands)
      if (c.first == bp && c.second == bq) return;
    cands.emplace_back(bp, bq);
  };
  add(base.upd_bp, base.upd_bq);
  for (const int bp : {std::min(P, kUpdBpCap / 2), std::min(P, kUpdBpCap),
                       std::min(P, 2 * kUpdBpCap), P}) {
    for (const int bq : {std::min(Q, kUpdBqCap / 2), std::min(Q, kUpdBqCap),
                         std::min(Q, 2 * kUpdBqCap), Q}) {
      add(pick_block_extent(P, bp, kUpdBlockMin),
          pick_block_extent(Q, bq, kUpdBlockMin));
    }
  }
  return cands;
}

}  // namespace

AutotuneResult autotune_plan(const PlanKey& key, const AutotuneConfig& cfg) {
  // Mark this thread as tuning: candidate layers (and their internal dual
  // layers) must resolve plans closed-form instead of recursing back here.
  const detail::AutotuneScope scope;

  const ConvParams& p = key.params;
  const ConvPlan base = plan_default(key);
  const int max_acc =
      jit::ConvKernelDesc::max_accumulators(kernel_isa(key.isa));
  const double gflop = static_cast<double>(p.flops()) / 1e9;

  AutotuneResult result;
  result.plan = base;
  result.plan.tuned = true;

  // --- stage 1: forward register blocking -------------------------------
  {
    ConvPlan best = result.plan;
    double best_s = 0, default_s = 0;
    tensor::ActTensor in, out;
    tensor::WtTensor wt;
    bool tensors_ready = false;
    for (const auto& [rbp, rbq] : fwd_candidates(p, base, max_acc,
                                                 cfg.max_fwd_candidates)) {
      ConvPlan cand = result.plan;
      cand.rbp = rbp;
      cand.rbq = rbq;
      ConvOptions o = exec_options(key, /*fwd_only=*/true);
      o.plan = cand;
      ConvLayer layer(p, o);
      if (!tensors_ready) {
        // Geometry (halos/strides) is plan-independent: share one tensor set.
        in = layer.make_input();
        out = layer.make_output();
        wt = layer.make_weights();
        fill_pseudorandom(in.data(), in.size(), 1);
        fill_pseudorandom(wt.data(), wt.size(), 2);
        in.zero_halo();
        tensors_ready = true;
      }
      const double s = measure_fwd(layer, in, wt, out, cfg);
      ++result.candidates_tried;
      if (rbp == base.rbp && rbq == base.rbq) default_s = s;
      if (best_s == 0 || s < best_s) {
        best_s = s;
        best = cand;
      }
    }
    result.plan = best;
    result.default_fwd_gflops = default_s > 0 ? gflop / default_s : 0;
    result.tuned_fwd_gflops = best_s > 0 ? gflop / best_s : 0;
  }

  // --- stage 2: update pixel blocking + strategy ------------------------
  if (key.pass == PlanPass::train) {
    ConvPlan best = result.plan;
    double best_s = 0, default_s = 0;
    tensor::ActTensor in, dout;
    tensor::WtTensor dw;
    bool tensors_ready = false;
    auto try_candidate = [&](const ConvPlan& cand) {
      ConvOptions o = exec_options(key, /*fwd_only=*/false);
      o.plan = cand;
      ConvLayer layer(p, o);
      if (!tensors_ready) {
        in = layer.make_input();
        dout = layer.make_output();
        dw = layer.make_weights();
        fill_pseudorandom(in.data(), in.size(), 3);
        fill_pseudorandom(dout.data(), dout.size(), 4);
        in.zero_halo();
        dout.zero_halo();
        tensors_ready = true;
      }
      const double s = measure_upd(layer, in, dout, dw, cfg);
      ++result.candidates_tried;
      if (cand.upd_bp == base.upd_bp && cand.upd_bq == base.upd_bq &&
          cand.upd_strategy == base.upd_strategy &&
          cand.upd_loop_order == base.upd_loop_order &&
          cand.upd_reduce_unroll == base.upd_reduce_unroll)
        default_s = s;
      if (best_s == 0 || s < best_s) {
        best_s = s;
        best = cand;
      }
    };
    for (const auto& [bp, bq] :
         upd_candidates(p, base, cfg.max_upd_candidates)) {
      ConvPlan cand = result.plan;
      cand.upd_bp = bp;
      cand.upd_bq = bq;
      try_candidate(cand);
    }
    // Strategy sweep at the winning blocking (skips the one already timed).
    std::vector<UpdStrategy> strategies{UpdStrategy::task};
    if (p.N >= kUpdMinMinibatch && key.threads >= 2)
      strategies.push_back(UpdStrategy::minibatch);
    if (upd_hybrid_groups(p, key.vlen, key.threads) >= 2)
      strategies.push_back(UpdStrategy::hybrid);
    const ConvPlan at_best = best;
    for (const UpdStrategy st : strategies) {
      if (st == at_best.upd_strategy) continue;
      ConvPlan cand = at_best;
      cand.upd_strategy = st;
      try_candidate(cand);
    }
    // Loop-order sweep at the winning configuration (the heuristic pick was
    // already timed as part of the candidates above).
    {
      const ConvPlan lo_base = best;
      for (const UpdLoopOrder lo :
           {UpdLoopOrder::task_outer, UpdLoopOrder::pixel_outer}) {
        if (lo == lo_base.upd_loop_order) continue;
        ConvPlan cand = lo_base;
        cand.upd_loop_order = lo;
        try_candidate(cand);
      }
    }
    // The reduce unroll only matters when the winner privatizes dW
    // (minibatch/hybrid).
    if (best.upd_strategy != UpdStrategy::task) {
      const ConvPlan red_base = best;
      for (const int u : {1, 2, 8}) {
        if (u == red_base.upd_reduce_unroll) continue;
        ConvPlan cand = red_base;
        cand.upd_reduce_unroll = u;
        try_candidate(cand);
      }
    }
    result.plan = best;
    result.default_upd_gflops = default_s > 0 ? gflop / default_s : 0;
    result.tuned_upd_gflops = best_s > 0 ? gflop / best_s : 0;
  }

  return result;
}

}  // namespace xconv::core
