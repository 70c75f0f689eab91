// Multi-node gradient-sync benchmark: sweeps payload codec (fp32 | int16 |
// bf16 | topk) x bucket layout x comm-thread count on the ResNet-mini and
// ResNet-50 GxM topologies and writes a JSON file (schema v5, default
// bench_overlap.json) — per-run img/s, exposed-comm seconds, *measured*
// per-codec wire bytes (actual encode() payload sizes, which is what makes
// the variable-rate top-k row meaningful) split by topology level,
// compression ratio, and the reduction schedule. Rows labelled "bulk" run
// one bucket holding the whole gradient, posted after backward (the
// bulk-synchronous baseline); "overlap" rows run the size-capped buckets
// posted during backward.
//
// Each topology's bulk/fp32 run doubles as the calibration anchor for
// mlsl::project_scaling's analytic overlap model: its measured allreduce
// time yields an effective NetworkModel (NetworkModel::from_measured), and
// every sweep row then carries a `projected_exposed_comm_s` column next to
// the measured one — the ROADMAP's measured-vs-projected reconciliation.
// Every row feeds the projection its *measured per-bucket wait histogram*
// (MultiNodeStats::bucket_wait_seconds) instead of the scalar
// backward-fraction window, so the projection knows which buckets the
// backward pass actually hid. Gaps between the two are the model's
// unmodeled terms (codec encode/decode compute, scheduling noise), which is
// exactly what the comparison is for.
//
// The rank-farm section is the Figure-9 extrapolation the ROADMAP names:
// it scales the in-process harness to 64 ranks on a heterogeneous two-level
// wire (fast intra-node fabric, slow high-latency inter-node links),
// calibrates that wire with the two-point NetworkModel::from_measured
// (recovering bandwidth and per-message latency separately from two
// one-bucket allreduce timings), and races the flat ring against the
// hierarchical schedule per codec — hierarchical must beat flat on exposed
// comm at the largest rank count, which CI gates. Farm rows carry no
// projection (no calibrated compute time), so they omit
// `projected_exposed_comm_s`.
//
// The simulated wire (XCONV_MN_WIRE_GBS / --wire-gbs, default 0.1 GB/s
// here; 0 disables) makes reductions wait out their ring transmission time,
// so compressed payloads genuinely shrink exposed communication instead of
// only the byte counters. The default is chosen so comm time is comparable
// to compute on the mini topology — the regime the overlap machinery (and
// Figure 9) is about.
//
// Usage:
//   bench_overlap [--set=mini|resnet50|all] [--nodes=N] [--iters=K]
//                 [--wire-gbs=G] [--out=PATH] [--no-farm]
// Environment: XCONV_MB (minibatch per rank, default 4), XCONV_MN_BUCKET_KB
// (bucket cap of the overlap rows, default 256), XCONV_MN_WIRE_GBS
// (overrides --wire-gbs), XCONV_MN_TOPK (top-k kept fraction for the topk
// rows, default 0.1), plus the library-wide knobs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mlsl/allreduce.hpp"
#include "mlsl/netmodel.hpp"
#include "mlsl/scaling.hpp"
#include "platform/timer.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;

namespace {

struct OverlapResult {
  std::string topology;
  std::string mode;
  std::string codec;
  std::string algorithm = "flat";
  int ranks = 0;
  int ranks_per_node = 1;
  int comm_threads = 1;
  double img_s = 0;
  double exposed_comm_s = 0;  ///< per run (iters iterations), rank 0
  /// Analytic model, same window; unset on farm rows, which omit the field.
  std::optional<double> projected_exposed_comm_s;
  std::size_t bucket_count = 0;
  std::size_t bucket_bytes = 0;    ///< largest bucket
  std::size_t gradient_bytes = 0;  ///< whole flat gradient, fp32 bytes
  std::size_t allreduce_bytes_per_rank = 0;
  std::size_t wire_bytes_per_rank = 0;
  std::size_t intra_wire_bytes_per_rank = 0;
  std::size_t inter_wire_bytes_per_rank = 0;
  double compression_ratio = 1.0;
  double residual_l2 = 0;
  float last_loss = 0;
};

void write_result_rows(std::FILE* f, const std::vector<OverlapResult>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OverlapResult& r = rows[i];
    char projected[64] = "";
    if (r.projected_exposed_comm_s)
      std::snprintf(projected, sizeof(projected),
                    "\"projected_exposed_comm_s\": %.6f, ",
                    *r.projected_exposed_comm_s);
    std::fprintf(
        f,
        "%s\n    {\"topology\": \"%s\", \"mode\": \"%s\", \"codec\": \"%s\", "
        "\"algorithm\": \"%s\", \"ranks\": %d, \"ranks_per_node\": %d, "
        "\"comm_threads\": %d, \"img_s\": %.3f, \"exposed_comm_s\": %.6f, "
        "%s\"bucket_count\": %zu, "
        "\"bucket_bytes\": %zu, \"gradient_bytes\": %zu, "
        "\"allreduce_bytes_per_rank\": %zu, "
        "\"wire_bytes_per_rank\": %zu, \"intra_wire_bytes_per_rank\": %zu, "
        "\"inter_wire_bytes_per_rank\": %zu, \"compression_ratio\": %.4f, "
        "\"residual_l2\": %.6g, \"last_loss\": %.6f}",
        i == 0 ? "" : ",", bench::json_escape(r.topology).c_str(),
        bench::json_escape(r.mode).c_str(),
        bench::json_escape(r.codec).c_str(),
        bench::json_escape(r.algorithm).c_str(), r.ranks, r.ranks_per_node,
        r.comm_threads, r.img_s, r.exposed_comm_s, projected,
        r.bucket_count, r.bucket_bytes, r.gradient_bytes,
        r.allreduce_bytes_per_rank, r.wire_bytes_per_rank,
        r.intra_wire_bytes_per_rank, r.inter_wire_bytes_per_rank,
        r.compression_ratio, r.residual_l2, r.last_loss);
  }
}

bool write_overlap_json(const std::string& path, int nodes, int iters, int mb,
                        std::size_t bucket_cap_bytes, double wire_gbs,
                        double topk_fraction,
                        const std::vector<OverlapResult>& results,
                        const std::vector<OverlapResult>& farm_results,
                        const mlsl::NetworkModel& farm_calibrated) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"overlap\",\n");
  std::fprintf(f, "  \"schema_version\": 5,\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n",
               platform::isa_name(platform::effective_isa()));
  std::fprintf(f, "  \"nodes\": %d,\n", nodes);
  std::fprintf(f, "  \"iters\": %d,\n", iters);
  std::fprintf(f, "  \"minibatch\": %d,\n", mb);
  std::fprintf(f, "  \"bucket_cap_bytes\": %zu,\n", bucket_cap_bytes);
  std::fprintf(f, "  \"wire_gbs\": %.6f,\n", wire_gbs);
  std::fprintf(f, "  \"topk_fraction\": %.6f,\n", topk_fraction);
  std::fprintf(f,
               "  \"farm_calibration\": {\"link_bandwidth_gbs\": %.6f, "
               "\"latency_us\": %.6f},\n",
               farm_calibrated.link_bandwidth_gbs, farm_calibrated.latency_us);
  std::fprintf(f, "  \"results\": [");
  write_result_rows(f, results);
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"farm_results\": [");
  write_result_rows(f, farm_results);
  std::fprintf(f, "%s  ]\n}\n", farm_results.empty() ? "" : "\n");
  std::fclose(f);
  return true;
}

OverlapResult row_from_stats(const char* topology_name, const char* mode,
                             int ranks, const mlsl::MultiNodeStats& st,
                             std::optional<double> proj_s) {
  OverlapResult r;
  r.topology = topology_name;
  r.mode = mode;
  r.codec = st.codec;
  r.algorithm = st.algorithm;
  r.ranks = ranks;
  r.ranks_per_node = st.ranks_per_node;
  r.comm_threads = st.comm_threads;
  r.img_s = st.images_per_second;
  r.exposed_comm_s = st.exposed_comm_seconds;
  r.projected_exposed_comm_s = proj_s;
  r.bucket_count = st.bucket_count;
  r.bucket_bytes = st.bucket_bytes;
  r.gradient_bytes = st.gradient_bytes;
  r.allreduce_bytes_per_rank = st.allreduce_bytes_per_rank;
  r.wire_bytes_per_rank = st.wire_bytes_per_rank;
  r.intra_wire_bytes_per_rank = st.intra_wire_bytes_per_rank;
  r.inter_wire_bytes_per_rank = st.inter_wire_bytes_per_rank;
  r.compression_ratio = st.compression_ratio;
  r.residual_l2 = st.residual_l2;
  r.last_loss = st.last_loss;
  return r;
}

void print_row(const OverlapResult& r) {
  char projected[32] = "-";
  if (r.projected_exposed_comm_s)
    std::snprintf(projected, sizeof(projected), "%.3f",
                  1e3 * *r.projected_exposed_comm_s);
  std::printf("%-12s %-8s %-6s %-5s %4d %3d %9.1f %11.3f %11s %12zu %6.2f\n",
              r.topology.c_str(), r.mode.c_str(), r.codec.c_str(),
              r.algorithm == "hierarchical" ? "hier" : r.algorithm.c_str(),
              r.ranks, r.comm_threads, r.img_s, 1e3 * r.exposed_comm_s,
              projected, r.wire_bytes_per_rank, r.compression_ratio);
}

/// Wall time of one fp32 round of a single bucket of `elems` floats on
/// `comm` (installed here, replacing the previous layout) — the measurement
/// the two-point NetworkModel::from_measured consumes.
double time_one_bucket_allreduce(mlsl::Communicator& comm,
                                 std::size_t elems) {
  mlsl::GradBucket bucket;
  bucket.segments.push_back({0, elems});
  bucket.elems = elems;
  comm.set_buckets({bucket});
  std::vector<std::vector<float>> data(static_cast<std::size_t>(comm.ranks()),
                                       std::vector<float>(elems, 1.0f));
  platform::Timer t;
  comm.parallel([&](int rank) {
    comm.overlap_begin(rank, data[static_cast<std::size_t>(rank)].data());
    comm.post_bucket(rank, 0);
    comm.wait_all(rank);
  });
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::string set = "mini";
  std::string out = "bench_overlap.json";
  int nodes = 2, iters = 10;
  double wire_gbs = 0.1;
  bool farm = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--set=", 0) == 0)
      set = arg.substr(6);
    else if (arg.rfind("--out=", 0) == 0)
      out = arg.substr(6);
    else if (arg.rfind("--nodes=", 0) == 0)
      nodes = std::atoi(arg.c_str() + 8);
    else if (arg.rfind("--iters=", 0) == 0)
      iters = std::atoi(arg.c_str() + 8);
    else if (arg.rfind("--wire-gbs=", 0) == 0)
      wire_gbs = std::atof(arg.c_str() + 11);
    else if (arg == "--no-farm")
      farm = false;
    else {
      std::fprintf(stderr,
                   "usage: %s [--set=mini|resnet50|all] [--nodes=N] "
                   "[--iters=K] [--wire-gbs=G] [--out=PATH] [--no-farm]\n",
                   argv[0]);
      return 2;
    }
  }
  if ((set != "mini" && set != "resnet50" && set != "all") || nodes < 1 ||
      iters < 1 || wire_gbs < 0) {
    std::fprintf(stderr, "bench_overlap: bad arguments\n");
    return 2;
  }

  const int mb = platform::bench_minibatch(4);
  mlsl::MultiNodeOptions mn_base;
  mn_base.bucket_cap_bytes = std::size_t{256} << 10;  // several buckets/net
  mn_base.comm.wire_gbs = wire_gbs;
  mn_base = mlsl::MultiNodeOptions::from_env(mn_base);

  struct Topology {
    const char* name;
    std::string text;
  };
  std::vector<Topology> topos;
  if (set == "mini" || set == "all")
    topos.push_back({"resnet_mini", topo::resnet_mini_topology(mb, 32, 4)});
  if (set == "resnet50" || set == "all")
    // Reduced resolution keeps the full 53-conv topology tractable on CI.
    topos.push_back({"resnet50", topo::resnet50_topology(mb, 56, 100)});

  std::printf("bench_overlap: codec x layout x comm-threads sweep | nodes=%d "
              "iters=%d mb=%d bucket_cap=%zu KiB wire=%.3f GB/s topk=%.3f\n",
              nodes, iters, mb, mn_base.bucket_cap_bytes >> 10,
              mn_base.comm.wire_gbs, mn_base.comm.topk_fraction);
  std::printf("%-12s %-8s %-6s %-5s %4s %3s %9s %11s %11s %12s %6s\n",
              "topology", "mode", "codec", "algo", "rank", "thr", "img/s",
              "exposed ms", "proj ms", "wire B/rank", "ratio");

  // "bulk" rows: one bucket holding the whole gradient. "overlap" rows: the
  // configured bucket cap.
  struct Run {
    bool bulk;
    mlsl::Codec codec;
    int threads;
  };
  std::vector<Run> runs;
  for (const mlsl::Codec c : {mlsl::Codec::kFp32, mlsl::Codec::kInt16,
                              mlsl::Codec::kBf16, mlsl::Codec::kTopK})
    runs.push_back({true, c, 1});
  for (const mlsl::Codec c : {mlsl::Codec::kFp32, mlsl::Codec::kInt16,
                              mlsl::Codec::kBf16, mlsl::Codec::kTopK})
    for (const int thr : {1, 2})
      runs.push_back({false, c, thr});

  std::vector<OverlapResult> results;
  for (const Topology& tp : topos) {
    const auto nl = gxm::parse_topology(tp.text);
    // Per-topology calibration state, filled by the bulk/fp32 run (always
    // the first of the sweep): effective wire model + compute time.
    mlsl::NetworkModel measured_net;
    double t_compute = 0;
    for (const Run& run : runs) {
      gxm::GraphOptions gopt;
      gopt.threads = 1;  // ranks are threads; avoid nested-OMP oversubscribe
      mlsl::MultiNodeOptions mn = mn_base;
      if (run.bulk)
        mn.bucket_cap_bytes = std::numeric_limits<std::size_t>::max();
      mn.comm.codec = run.codec;
      mn.comm.comm_threads = run.threads;
      mlsl::MultiNodeTrainer trainer(nl, nodes, gopt, mn);
      gxm::Solver solver;
      solver.lr = 0.01f;
      trainer.train(1, solver);  // warmup (JIT, allocation touch)
      const auto st = trainer.train(iters, solver);

      const double t_iter = st.seconds / iters;
      const double t_ar = st.exposed_comm_seconds / iters;
      if (run.bulk && run.codec == mlsl::Codec::kFp32) {
        // Calibrate the analytic model on the measured bulk fp32 allreduce:
        // the one bucket is posted after backward and exposes the entire
        // allreduce, so its per-iteration exposed time *is* the ring time
        // of the fp32 gradient payload. (One-point calibration folds
        // latency into bandwidth, which matches the latency-free legacy
        // wire this sweep runs on; the farm section uses the two-point
        // overload on its latency-bearing wire.)
        measured_net =
            mlsl::NetworkModel::from_measured(st.gradient_bytes, nodes, t_ar);
        t_compute = t_iter > t_ar ? t_iter - t_ar : t_iter;
      }

      // Analytic projection for this row (ROADMAP reconciliation): same
      // compute time, ring time scaled to this codec's *measured* wire
      // bytes (the counters publish the ring share 2(R-1)/R of the encoded
      // payload, so un-apply that factor to recover the payload the model
      // expects — with a per-element byte table this would be wrong for the
      // data-dependent top-k row). Every row hands the model its measured
      // per-bucket wait histogram (wire-payload bytes per bucket + mean
      // blocked wait), so hiding is per-bucket-measured instead of assumed.
      mlsl::ScalingConfig cfg;
      cfg.local_minibatch = mb;
      cfg.single_node_img_s = t_compute > 0 ? mb / t_compute : 0;
      cfg.gradient_bytes =
          nodes > 1 ? st.wire_bytes_per_rank * static_cast<std::size_t>(nodes) /
                          (2 * static_cast<std::size_t>(nodes) - 2)
                    : st.gradient_bytes;
      cfg.comm_core_penalty = 1.0;
      cfg.sync_overhead_frac = 0.0;
      if (nodes > 1) {
        cfg.measured_nodes = nodes;
        for (std::size_t b = 0; b < st.bucket_payload_bytes.size(); ++b) {
          // Approximate this bucket's wire payload from its fp32 payload
          // and the run's mean compression ratio.
          const double ratio =
              st.compression_ratio > 0 ? st.compression_ratio : 1.0;
          cfg.bucket_bytes.push_back(static_cast<std::size_t>(
              static_cast<double>(st.bucket_payload_bytes[b]) / ratio));
          cfg.bucket_wait_seconds.push_back(st.bucket_wait_seconds[b] /
                                            iters);
        }
      }
      cfg.net = measured_net;
      const auto pt = mlsl::project_scaling(cfg, nodes);

      const OverlapResult r =
          row_from_stats(tp.name, run.bulk ? "bulk" : "overlap", nodes, st,
                         pt.exposed_comm_ms * 1e-3 * iters);
      results.push_back(r);
      print_row(r);
    }
  }

  // --- rank farm: flat vs hierarchical at scale ----------------------------
  // 64 ranks as 8x8 (and 16 as 8x2) on a heterogeneous wire: fast low-
  // latency intra-node fabric, slow high-latency inter-node links — the
  // regime where the flat ring's 2(R-1) latency steps dominate and the
  // hierarchical schedule's 2(p-1)+2(N-1) steps win.
  std::vector<OverlapResult> farm_results;
  mlsl::NetworkModel farm_calibrated;
  if (farm) {
    const int farm_iters = std::min(iters, 3);
    mlsl::Topology farm_topo;
    farm_topo.ranks_per_node = 8;
    // High per-message inter-node latency: at 64 ranks the flat ring pays
    // 2*63 = 126 latency-bearing steps per bucket where the hierarchical
    // schedule pays 2*7 intra (cheap) + 2*7 inter, so the schedule choice —
    // not codec compute — dominates exposed comm.
    farm_topo.intra = mlsl::NetworkModel{10.0, 1.0};
    farm_topo.inter = mlsl::NetworkModel{0.02, 200.0};
    const auto nl = gxm::parse_topology(topo::resnet_mini_topology(1, 32, 4));

    // Two-point wire calibration on the largest farm: time two one-bucket
    // fp32 allreduces of different sizes over the flat schedule and recover
    // bandwidth and per-message latency *separately* (the one-point
    // calibration would fold the 12.6 ms of step latency into a bogus
    // effective bandwidth).
    {
      mlsl::CommConfig cc;
      cc.topo = farm_topo;
      mlsl::Communicator comm(64, cc);
      const std::size_t small_elems = 16 << 10, large_elems = 256 << 10;
      const double t_small = time_one_bucket_allreduce(comm, small_elems);
      const double t_large = time_one_bucket_allreduce(comm, large_elems);
      farm_calibrated = mlsl::NetworkModel::from_measured(
          small_elems * sizeof(float), t_small, large_elems * sizeof(float),
          t_large, 64);
      std::printf("farm calibration (two-point, 64-rank flat ring): "
                  "%.4f GB/s, %.2f us/message\n",
                  farm_calibrated.link_bandwidth_gbs,
                  farm_calibrated.latency_us);
    }

    for (const int ranks : {16, 64}) {
      for (const mlsl::Codec codec :
           {mlsl::Codec::kFp32, mlsl::Codec::kInt16}) {
        for (const mlsl::ReduceAlgorithm algo :
             {mlsl::ReduceAlgorithm::kFlatRing,
              mlsl::ReduceAlgorithm::kHierarchical}) {
          gxm::GraphOptions gopt;
          gopt.threads = 1;
          mlsl::MultiNodeOptions mn;
          mn.bucket_cap_bytes = std::size_t{32} << 10;
          mn.comm.codec = codec;
          mn.comm.comm_threads = 2;
          mn.comm.algorithm = algo;
          mn.comm.topo = farm_topo;  // nodes derived from the rank count
          mlsl::MultiNodeTrainer trainer(nl, ranks, gopt, mn);
          gxm::Solver solver;
          solver.lr = 0.01f;
          trainer.train(1, solver);  // warmup
          const auto st = trainer.train(farm_iters, solver);
          const OverlapResult r =
              row_from_stats("farm_mini", "overlap", ranks, st, std::nullopt);
          farm_results.push_back(r);
          print_row(r);
        }
      }
    }
  }

  if (!write_overlap_json(out, nodes, iters, mb, mn_base.bucket_cap_bytes,
                          mn_base.comm.wire_gbs, mn_base.comm.topk_fraction,
                          results, farm_results, farm_calibrated)) {
    std::fprintf(stderr, "bench_overlap: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu results, %zu farm results)\n", out.c_str(),
              results.size(), farm_results.size());
  return 0;
}
