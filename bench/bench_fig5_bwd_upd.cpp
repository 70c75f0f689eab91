// Figure 5: ResNet-50 (a) backward propagation and (b) weight-gradient
// update per layer on the SKX-class host. Expected shapes (Section III-A):
// bwd tracks fwd closely (duality), stride-2 layers degrade (dI write
// expansion), upd runs 10-15% below fwd (reduction overhead).
#include "bench_common.hpp"

using namespace xconv;
using namespace xconv::bench;

int main() {
  const int mb = platform::bench_minibatch(1);
  const int runs = platform::bench_runs(3);
  print_header("Figure 5: ResNet-50 BWD (a) and UPD (b) per layer [GFLOPS]",
               mb, runs);
  std::printf("%3s | %9s %9s | %9s %7s | %8s %8s\n", "ID", "fwd", "bwd",
              "upd", "upd/fwd", "SKXbwd%", "SKXupd%");

  for (const auto& l : topo::resnet50_table1()) {
    const auto p = topo::table1_params(l, mb);

    core::ConvLayer work(p);
    auto t = make_tensors(work);
    const double g_fwd = fwd_gflops(work, t, runs);
    const double g_bwd = bwd_gflops(work, t, runs);
    const double g_upd = upd_gflops(work, t, runs);

    const double proj_bwd = 100.0 * platform::skx_model().project_efficiency(
                                        p, platform::Pass::bwd);
    const double proj_upd = 100.0 * platform::skx_model().project_efficiency(
                                        p, platform::Pass::upd);
    std::printf("%3d | %9.1f %9.1f | %9.1f %7.2f | %8.1f %8.1f\n", l.id,
                g_fwd, g_bwd, g_upd, g_fwd > 0 ? g_upd / g_fwd : 0, proj_bwd,
                proj_upd);
  }
  std::printf("\nPaper reference: bwd ~= fwd except stride-2 layers; upd "
              "10-15%% below fwd on SKX.\n");
  return 0;
}
