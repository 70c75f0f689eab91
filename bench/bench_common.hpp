// Shared scaffolding for the paper-figure benchmarks.
//
// Every bench prints the same rows/series the paper's figure reports, plus
// host-measured numbers. Environment knobs (keep default runs fast):
//   XCONV_MB         minibatch (default 1; paper used 28 on SKX / 70 on KNM)
//   XCONV_BENCH_RUNS measured repetitions per point (default 3)
#pragma once

#include <cstdio>
#include <random>
#include <string>

#include "core/conv_layer.hpp"
#include "platform/roofline.hpp"
#include "platform/timer.hpp"
#include "tensor/transform.hpp"
#include "topo/resnet50.hpp"

namespace xconv::bench {

struct LayerTensors {
  tensor::ActTensor in, out, dout, din;
  tensor::WtTensor wt, dwt;
};

inline LayerTensors make_tensors(core::ConvLayer& layer, unsigned seed = 1) {
  LayerTensors t{layer.make_input(),  layer.make_output(),
                 layer.make_output(), layer.make_input(),
                 layer.make_weights(), layer.make_weights()};
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-0.5f, 0.5f);
  for (auto* a : {&t.in, &t.out, &t.dout}) {
    for (std::size_t i = 0; i < a->size(); ++i) a->data()[i] = d(rng);
    a->zero_halo();
  }
  for (std::size_t i = 0; i < t.wt.size(); ++i) t.wt.data()[i] = d(rng);
  return t;
}

inline double fwd_gflops(core::ConvLayer& layer, LayerTensors& t, int runs) {
  const auto st = platform::time_runs(
      [&] { layer.forward(t.in, t.wt, t.out); }, runs, 1);
  return st.gflops(layer.params().flops());
}

inline double bwd_gflops(core::ConvLayer& layer, LayerTensors& t, int runs) {
  const auto st = platform::time_runs(
      [&] { layer.backward(t.dout, t.wt, t.din); }, runs, 1);
  return st.gflops(layer.params().flops());
}

inline double upd_gflops(core::ConvLayer& layer, LayerTensors& t, int runs) {
  const auto st = platform::time_runs(
      [&] { layer.update(t.in, t.dout, t.dwt); }, runs, 1);
  return st.gflops(layer.params().flops());
}

/// Escape a string for the hand-rolled JSON that bench_autotune, bench_codec
/// and bench_overlap write.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

inline void print_header(const char* title, int mb, int runs) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("minibatch=%d | runs=%d\n", mb, runs);
  std::printf("==============================================================\n");
}

}  // namespace xconv::bench
