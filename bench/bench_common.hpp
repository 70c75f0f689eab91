// Shared scaffolding for the paper-figure benchmarks.
//
// Every bench prints the same rows/series the paper's figure reports, plus
// host-measured numbers. Environment knobs (keep default runs fast):
//   XCONV_MB         minibatch (default 1; paper used 28 on SKX / 70 on KNM)
//   XCONV_BENCH_RUNS measured repetitions per point (default 3)
#pragma once

#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/conv_layer.hpp"
#include "jit/gemm_kernel_gen.hpp"
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

/// Full timing stats for one (layer, pass): used by the JSON trajectory
/// emitter, which records ms alongside GFLOPS.
inline platform::BenchStats time_pass(core::ConvLayer& layer, LayerTensors& t,
                                      const char* pass, int runs) {
  const std::string p(pass);
  if (p == "fwd")
    return platform::time_runs([&] { layer.forward(t.in, t.wt, t.out); },
                               runs, 1);
  if (p == "bwd")
    return platform::time_runs([&] { layer.backward(t.dout, t.wt, t.din); },
                               runs, 1);
  if (p == "upd")
    return platform::time_runs([&] { layer.update(t.in, t.dout, t.dwt); },
                               runs, 1);
  throw std::invalid_argument("time_pass: unknown pass " + p);
}

// --- BENCH_*.json trajectory output ---------------------------------------
// Minimal hand-rolled JSON emitter (no external deps): one metadata object
// plus a flat `results` array, so successive PRs can diff per-layer numbers.

struct BenchResult {
  std::string set;    ///< layer set: "resnet50" | "inception" | "smoke"
  std::string layer;  ///< stable per-layer label, e.g. "rn50_L04"
  std::string params; ///< human-readable ConvParams string
  std::string pass;   ///< "fwd" | "bwd" | "upd"
  std::string mode;   ///< executor: always "stream"
  double ms = 0;      ///< mean wall-clock per call
  double gflops = 0;
  double pct_peak = 0;  ///< % of measured host peak (1 core x threads)
};

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

/// Write the BENCH_streams.json schema (documented in README "Benchmark
/// trajectory files"). Returns false when the file cannot be opened.
inline bool write_bench_json(const std::string& path, const std::string& name,
                             int minibatch, int threads, int runs,
                             double peak_gflops,
                             const std::vector<BenchResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", json_escape(name).c_str());
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n",
               platform::isa_name(platform::effective_isa()));
  std::fprintf(f, "  \"vlen\": %d,\n",
               platform::vlen_fp32(platform::effective_isa()));
  std::fprintf(f, "  \"minibatch\": %d,\n", minibatch);
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"runs\": %d,\n", runs);
  std::fprintf(f, "  \"peak_gflops_1core\": %.3f,\n", peak_gflops);
  std::fprintf(f, "  \"results\": [");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f, "%s\n    {\"set\": \"%s\", \"layer\": \"%s\", "
                 "\"params\": \"%s\", \"pass\": \"%s\", \"mode\": \"%s\", "
                 "\"ms\": %.6f, \"gflops\": %.3f, \"pct_peak\": %.2f}",
                 i == 0 ? "" : ",", json_escape(r.set).c_str(),
                 json_escape(r.layer).c_str(), json_escape(r.params).c_str(),
                 json_escape(r.pass).c_str(), json_escape(r.mode).c_str(),
                 r.ms, r.gflops, r.pct_peak);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Host compute peak for %-of-peak columns (measured once). Uses a JIT'ed
/// small-GEMM kernel over L1-resident data — the portable C++ measurement
/// underestimates on AVX-512 hosts when the library is built without
/// -march flags, while the JIT always emits the widest supported FMAs.
inline double host_peak_gflops() {
  static const double peak = [] {
    const double scalar_peak = platform::measure_host_peak_gflops_core();
    const auto isa = platform::max_isa();
    if (isa == platform::Isa::scalar) return scalar_peak;
    jit::GemmKernelDesc d;
    d.isa = isa == platform::Isa::avx512_vnni ? platform::Isa::avx512 : isa;
    d.vlen = platform::vlen_fp32(d.isa);
    d.n = jit::ConvKernelDesc::max_accumulators(d.isa);
    d.k = 64;
    d.lda = d.vlen;
    d.ldb = d.k;
    d.ldc = d.vlen;
    auto k = jit::generate_gemm_kernel(d);
    std::vector<float> a(static_cast<std::size_t>(d.k) * d.lda, 1.0f);
    std::vector<float> b(static_cast<std::size_t>(d.n) * d.ldb, 1.0f);
    std::vector<float> c(static_cast<std::size_t>(d.n) * d.ldc, 0.0f);
    const long iters = 20000;
    const auto st = platform::time_runs(
        [&] {
          for (long i = 0; i < iters; ++i) (*k)(b.data(), a.data(), c.data());
        },
        3, 1);
    const double flops =
        2.0 * iters * d.n * d.k * d.vlen;
    return std::max(scalar_peak, flops / st.min_s / 1e9);
  }();
  return peak;
}

inline void print_header(const char* title, int mb, int runs) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("host peak (1 core, measured): %.1f GFLOPS | minibatch=%d | "
              "runs=%d\n",
              host_peak_gflops(), mb, runs);
  std::printf("==============================================================\n");
}

}  // namespace xconv::bench
