// Unified benchmark runner: times forward / backward / weight-update (kernel
// stream replay) for the ResNet-50 (Table I) and Inception-v3 layer sets,
// prints a table, and writes a BENCH_streams.json trajectory file so
// successive perf PRs can diff per-layer GFLOPS. Every row's "mode" is
// "stream", the only executor.
//
// Usage:
//   bench_runner [--set=resnet50|inception|smoke|all] [--out=PATH]
// Environment: XCONV_MB (minibatch, default 1), XCONV_BENCH_RUNS (default 3),
// plus the library-wide XCONV_ISA knob.
// --set=smoke runs a single tiny shape (the CI trajectory-capture job).
#include <omp.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "topo/inception_v3.hpp"

using namespace xconv;

namespace {

struct BenchLayer {
  std::string set;
  std::string label;
  core::ConvParams p;
};

std::vector<BenchLayer> collect_layers(const std::string& set, int mb) {
  std::vector<BenchLayer> layers;
  if (set == "smoke") {
    layers.push_back({"smoke", "smoke_3x3_8x8",
                      core::make_conv(mb, 16, 16, 8, 8, 3, 3, 1)});
    return layers;
  }
  if (set == "resnet50" || set == "all") {
    for (const auto& spec : topo::resnet50_table1()) {
      char label[32];
      std::snprintf(label, sizeof(label), "rn50_L%02d", spec.id);
      layers.push_back({"resnet50", label, topo::table1_params(spec, mb)});
    }
  }
  if (set == "inception" || set == "all") {
    int idx = 0;
    for (const auto& conv : topo::inception_v3_convs()) {
      char label[64];
      std::snprintf(label, sizeof(label), "incv3_%02d_%s", idx++, conv.block);
      layers.push_back({"inception", label, topo::inception_params(conv, mb)});
    }
  }
  return layers;
}

}  // namespace

int main(int argc, char** argv) {
  std::string set = "resnet50";
  std::string out = "BENCH_streams.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--set=", 0) == 0) {
      set = arg.substr(6);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--set=resnet50|inception|smoke|all] "
                   "[--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (set != "resnet50" && set != "inception" && set != "smoke" &&
      set != "all") {
    std::fprintf(stderr, "bench_runner: unknown --set=%s\n", set.c_str());
    return 2;
  }

  const int mb = platform::bench_minibatch(1);
  const int runs = platform::bench_runs(3);
  const int threads = omp_get_max_threads();
  const double peak = bench::host_peak_gflops();
  const auto layers = collect_layers(set, mb);

  bench::print_header("bench_runner: fwd/bwd/upd, stream replay", mb, runs);
  std::printf("%-16s %-5s %10s %10s %9s\n", "layer", "pass", "ms", "GFLOPS",
              "%peak");

  std::vector<bench::BenchResult> results;
  for (const auto& bl : layers) {
    core::ConvLayer layer(bl.p);
    auto t = bench::make_tensors(layer);
    for (const char* pass : {"fwd", "bwd", "upd"}) {
      const auto st = bench::time_pass(layer, t, pass, runs);
      bench::BenchResult r;
      r.set = bl.set;
      r.layer = bl.label;
      r.params = bl.p.to_string();
      r.pass = pass;
      r.mode = "stream";
      r.ms = st.mean_s * 1e3;
      r.gflops = st.gflops(bl.p.flops());
      r.pct_peak = peak > 0 ? 100.0 * r.gflops / (peak * threads) : 0.0;
      results.push_back(r);
      std::printf("%-16s %-5s %10.3f %10.1f %8.1f%%\n", r.layer.c_str(),
                  r.pass.c_str(), r.ms, r.gflops, r.pct_peak);
    }
  }

  if (!bench::write_bench_json(out, "streams", mb, threads, runs, peak,
                               results)) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu results)\n", out.c_str(), results.size());
  return 0;
}
