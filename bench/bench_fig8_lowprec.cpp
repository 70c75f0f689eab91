// Figure 8: ResNet-50 (a) forward, (b) backward, (c) weight update with
// reduced-precision int16 kernels vs fp32, layers 2-20 (the paper's x-axis
// skips layer 1). Reports GOPS for both precisions and the speedup. Expected
// shape: fwd/bwd average speedup ~1.6x (below the 2x instruction-throughput
// gain: 32-bit output traffic + restricted accumulation chains), upd ~1.3x
// (additionally pays the dO pair-interleave "transpose" and 32-bit dW
// reduction traffic). Layer 1 (7x7 stride-2) is excluded as in the paper.
#include "bench_common.hpp"
#include "quant/qconv_layer.hpp"

using namespace xconv;
using namespace xconv::bench;

int main() {
  const int mb = platform::bench_minibatch(1);
  const int runs = platform::bench_runs(3);
  const bool have_vnni =
      platform::effective_isa() == platform::Isa::avx512_vnni;
  print_header("Figure 8: int16 (qi16f32) vs fp32, ResNet-50 layers 2-20",
               mb, runs);
  if (!have_vnni)
    std::printf("NOTE: effective ISA lacks AVX512-VNNI; int16 kernels run "
                "the scalar path (speedups below 1 expected).\n");
  std::printf("%3s | %9s %9s %7s | %9s %9s %7s | %9s %9s %7s\n", "ID",
              "fwd32", "fwd16", "spd", "bwd32", "bwd16", "spd", "upd32",
              "upd16", "spd");

  double sum_f = 0, sum_b = 0, sum_u = 0;
  int cnt_f = 0, cnt_b = 0, cnt_u = 0;
  for (const auto& l : topo::resnet50_table1()) {
    if (l.id == 1) continue;
    const auto p = topo::table1_params(l, mb);
    core::ConvLayer f32(p);
    auto t = make_tensors(f32);
    const double g_f32 = fwd_gflops(f32, t, runs);
    const double g_b32 = bwd_gflops(f32, t, runs);
    const double g_u32 = upd_gflops(f32, t, runs);

    quant::QConvLayer q(p);
    const auto qin = quant::quantize_act(t.in);
    const auto qwt = quant::quantize_wt(t.wt);
    const auto qdout = quant::quantize_act(t.dout);
    const auto qwtb = quant::quantize_wt_bwd(t.wt);

    const double g_f16 =
        platform::time_runs([&] { q.forward(qin, qwt, t.out); }, runs, 1)
            .gflops(p.flops());
    double g_b16 = 0;
    const bool bwd_ok = (p.stride_h == 1) || (p.R == 1 && p.S == 1);
    if (bwd_ok)
      g_b16 = platform::time_runs(
                  [&] { q.backward(qdout, qwtb, t.din); }, runs, 1)
                  .gflops(p.flops());
    const double g_u16 =
        platform::time_runs([&] { q.update(qin, qdout, t.dwt); }, runs, 1)
            .gflops(p.flops());

    const double sf = g_f32 > 0 ? g_f16 / g_f32 : 0;
    const double sb = (bwd_ok && g_b32 > 0) ? g_b16 / g_b32 : 0;
    const double su = g_u32 > 0 ? g_u16 / g_u32 : 0;
    sum_f += sf;
    ++cnt_f;
    if (bwd_ok) {
      sum_b += sb;
      ++cnt_b;
    }
    sum_u += su;
    ++cnt_u;
    std::printf("%3d | %9.1f %9.1f %7.2f | %9.1f %9.1f %7.2f | %9.1f %9.1f "
                "%7.2f\n",
                l.id, g_f32, g_f16, sf, g_b32, g_b16, sb, g_u32, g_u16, su);
  }
  std::printf("\naverage speedups: fwd %.2fx  bwd %.2fx  upd %.2fx\n",
              sum_f / cnt_f, sum_b / std::max(1, cnt_b), sum_u / cnt_u);
  std::printf("Paper reference (KNM 4VNNIW): fwd 1.63x, bwd 1.58x, upd 1.3x "
              "(all < 2x: 32-bit outputs + restricted accumulation chains; "
              "upd also pays the dO transpose).\n");
  return 0;
}
