// bench_suite: the benchmark xconv performance claims are measured with.
//
// One invocation runs one workload in its own process, as one closed-loop
// caller (the next step starts when the previous one returned) on at most
// nproc threads. It prints every metric as `name value unit`, then the
// operation counts as `attempted N` and `failed N`, and exits 1 when any
// operation or correctness check failed. Lines starting with `#` are notes.
//
//   bench_suite --workload=NAME --seed=N [--seconds=S] [--trace=FILE]
//               [--setup-only] [--quick]
//
// Workloads (README.md gives the reasons for each):
//   rn50_train   GxM ResNet-50 training steps (gxm::Graph::train_step)
//   rn50_infer   GxM ResNet-50 inference batches (gxm::Graph::forward)
//   rn50_mn      mlsl::MultiNodeTrainer, 2 ranks, overlapped int16 allreduce
//   conv_table1  the 20 ResNet-50 Table I layers, fwd/bwd/upd round-robin
//
// Without --trace the run prints the end-to-end metrics. With --trace it
// times every call into each layer from outside (walking the GxM schedules
// itself), prints the per-layer metrics and writes the spans to FILE as
// Chrome trace-event JSON. --setup-only prints only setup_s, so that the
// caller can take a median over fresh processes (the JIT kernel cache is
// process-wide). --quick runs a few steps instead of --seconds (smoke test).
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "baselines/naive_conv.hpp"
#include "core/conv_layer.hpp"
#include "core/plan.hpp"
#include "gxm/graph.hpp"
#include "gxm/parser.hpp"
#include "kernels/kernel_registry.hpp"
#include "mlsl/codec.hpp"
#include "mlsl/scaling.hpp"
#include "platform/timer.hpp"
#include "probes.hpp"
#include "tensor/norms.hpp"
#include "tensor/transform.hpp"
#include "topo/resnet50.hpp"
#include "trace.hpp"

using namespace xconv;

namespace {

// ---- workload shapes --------------------------------------------------------

constexpr int kMaxThreads = 4;
constexpr int kClasses = 100;
constexpr int kNetMinibatch = 4;  // rn50_train, rn50_infer
constexpr int kNetImage = 112;
constexpr int kMnRanks = 2;
constexpr int kMnMinibatch = 2;  // per rank
constexpr int kMnImage = 56;
constexpr int kTableMinibatch = 4;  // one image per thread, as the paper ran
                                    // one per core
constexpr int kWarmupSteps = 2;
constexpr int kQuickSteps = 3;

int run_threads() { return std::clamp(omp_get_num_procs(), 1, kMaxThreads); }

gxm::Solver make_solver() {
  gxm::Solver s;
  s.lr = 0.001f;
  return s;
}

// ---- options and output -----------------------------------------------------

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  std::string trace;  ///< non-empty: traced pass, spans written here
  bool setup_only = false;
  bool quick = false;
  bool traced() const { return !trace.empty(); }
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    const auto value = [&](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      const unsigned long s = std::strtoul(v, &end, 10);
      if (*v == '\0' || *end != '\0' || s > 0xffffffffUL) return false;
      o.seed = static_cast<unsigned>(s);
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !std::isfinite(o.seconds) ||
          o.seconds <= 0)
        return false;
    } else if (const char* v = value("--trace=")) {
      o.trace = v;
      if (o.trace.empty()) return false;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

/// Metric lines on stdout plus the attempted/failed operation counts.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    std::printf("%s %.17g %s\n", name.c_str(), value, unit);
  }
  /// Count one operation: a step or a correctness check.
  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "bench_suite: FAILED: %s\n", what.c_str());
    }
  }
  int finish() const {
    std::printf("attempted %ld\nfailed %ld\n", attempted_, failed_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

// ---- GxM node kinds and passes ----------------------------------------------

enum Kind { kConv, kBn, kEltwise, kSplit, kPool, kFc, kInput, kLoss, kOther,
            kKinds };
enum Phase { kFwd, kBwd, kUpd, kApply, kPhases };
constexpr const char* kKindName[kKinds] = {"conv", "bn",    "eltwise",
                                           "split", "pool", "fc",
                                           "input", "loss", "other"};
constexpr const char* kPhaseName[kPhases] = {"fwd", "bwd", "upd", "apply"};

/// The (kind, pass) pairs reported as gxm.<kind>.<pass>_ms. BatchNorm and
/// InnerProduct compute their gradients inside backward(), so they have no
/// upd; the loss node's two passes are reported together as gxm.loss_ms.
const std::vector<std::pair<Kind, std::vector<Phase>>> kGxmRows = {
    {kConv, {kFwd, kBwd, kUpd, kApply}}, {kBn, {kFwd, kBwd, kApply}},
    {kEltwise, {kFwd, kBwd}},            {kSplit, {kFwd, kBwd}},
    {kPool, {kFwd, kBwd}},               {kFc, {kFwd, kBwd, kApply}},
    {kInput, {kFwd}}};

std::string gxm_row_name(Kind k, Phase p) {
  return std::string("gxm.") + kKindName[k] + "." + kPhaseName[p] + "_ms";
}

Kind kind_of(const std::string& type) {
  if (type == "Convolution") return kConv;
  if (type == "BatchNorm") return kBn;
  if (type == "Eltwise") return kEltwise;
  if (type == "Split") return kSplit;
  if (type == "MaxPool" || type == "AvgPool") return kPool;
  if (type == "InnerProduct") return kFc;
  if (type == "Input") return kInput;
  if (type == "SoftmaxLoss") return kLoss;
  return kOther;
}

/// Every per-layer metric, in print order. A workload that does not run a
/// layer leaves that layer's metrics at 0: no work of that kind happened.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [kind, phases] : kGxmRows)
      for (Phase p : phases) add(gxm_row_name(kind, p), "ms");
    add("gxm.loss_ms", "ms");
    add("gxm.unattributed_ms", "ms");
    add("gxm.trace_overhead_pct", "%");
    for (const char* pass : {"fwd", "bwd", "upd"})
      add(std::string("core.") + pass + "_gflops", "GFLOPS");
    add("core.bwd_over_fwd", "ratio");
    for (const char* pass : {"fwd", "bwd", "upd"})
      add(std::string("core.") + pass + "_pct_peak", "%");
    for (const auto& spec : topo::resnet50_table1())
      for (const char* pass : {"fwd", "bwd", "upd"})
        add(table_row_name(spec.id, pass), "GFLOPS");
    add("core.table1.max_pct_peak", "%");
    add("tensor.fwd_to_bwd_ms", "ms");
    add("tensor.fwd_to_bwd_share", "ratio");
    add("setup.parse_s", "s");
    add("setup.build_s", "s");
    add("setup.warmup_s", "s");
    add("jit.kernels_built", "count");
    add("jit.kernel_hits", "count");
    add("core.plans_made", "count");
    add("core.plan_hits", "count");
    add("mlsl.exposed_comm_ms_p50", "ms");
    add("mlsl.exposed_share", "ratio");
    add("mlsl.wire_mb_per_rank", "MB");
    add("mlsl.compression_ratio", "ratio");
    add("mlsl.bucket_count", "count");
    add("mlsl.bucket_wait_ms_max", "ms");
    add("mlsl.int16_encode_gbs", "GB/s");
    add("mlsl.int16_decode_acc_gbs", "GB/s");
    add("platform.peak_gflops", "GFLOPS");
    add("platform.mem_gbs", "GB/s");
  }

  static std::string table_row_name(int id, const char* pass) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "core.rn50_L%02d.%s_gflops", id, pass);
    return buf;
  }

  void set(const std::string& name, double v) {
    for (Row& r : rows_)
      if (r.name == name) {
        r.value = v;
        return;
      }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  void print(Report& rep) const {
    for (const Row& r : rows_) rep.metric(r.name, r.value, r.unit);
  }

 private:
  struct Row {
    std::string name;
    const char* unit;
    double value;
  };
  void add(std::string name, const char* unit) {
    rows_.push_back({std::move(name), unit, 0.0});
  }
  std::vector<Row> rows_;
};

// ---- statistics -------------------------------------------------------------

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <class F>
double timed(F&& f) {
  platform::Timer t;
  f();
  return t.seconds();
}

bool same_bits(float a, float b) {
  std::uint32_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// Closed loop: call `step` until `seconds` of wall time have passed
/// (kQuickSteps calls with --quick) and return each call's duration. Every
/// call is one operation; one that returns false failed, one that throws
/// failed and ends the loop, since the state it leaves is unknown.
std::vector<double> closed_loop(const Options& o, Report& r, const char* what,
                                const std::function<bool()>& step) {
  std::vector<double> out;
  platform::Timer total;
  while (o.quick ? out.size() < kQuickSteps : total.seconds() < o.seconds) {
    platform::Timer t;
    try {
      const bool ok = step();
      out.push_back(t.seconds());
      r.op(ok, what);
    } catch (const std::exception& e) {
      r.op(false, std::string(what) + ": " + e.what());
      break;
    }
  }
  return out;
}

/// The end-to-end metrics, from the timed steps of an untraced run. The
/// rate uses the median step: on a shared host the mean follows other
/// tenants' bursts more than the code.
void report_end_to_end(Report& r, const std::vector<double>& step_s,
                       double images_per_step, double conv_gflops,
                       double setup_s) {
  if (step_s.empty()) return;  // every step failed; the counts say so
  const double p50 = median(step_s);
  const double p75 = percentile(step_s, 0.75);
  const auto beyond = std::count_if(step_s.begin(), step_s.end(),
                                    [&](double s) { return s > p75; });
  std::printf("# %zu steps: p50 %.3f ms, p75 %.3f ms with %ld beyond it\n",
              step_s.size(), 1e3 * p50, 1e3 * p75, static_cast<long>(beyond));
  r.metric("img_s", images_per_step / p50, "img/s");
  r.metric("step_ms_p75", 1e3 * p75, "ms");
  r.metric("conv_gflops", conv_gflops, "GFLOPS");
  r.metric("setup_s", setup_s, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Set-up cost of a workload, phase by phase, with the JIT kernel and plan
/// cache traffic it caused.
struct Setup {
  kernels::KernelRegistry::Stats k0 = kernels::KernelRegistry::instance().stats();
  core::PlanCache::Stats p0 = core::PlanCache::instance().stats();
  kernels::KernelRegistry::Stats k1;
  core::PlanCache::Stats p1;
  double parse_s = 0, build_s = 0, warmup_s = 0;

  void done() {
    k1 = kernels::KernelRegistry::instance().stats();
    p1 = core::PlanCache::instance().stats();
  }
  double total() const { return parse_s + build_s + warmup_s; }
  void set(LayerMetrics& lm) const {
    lm.set("setup.parse_s", parse_s);
    lm.set("setup.build_s", build_s);
    lm.set("setup.warmup_s", warmup_s);
    lm.set("jit.kernels_built", static_cast<double>(k1.misses - k0.misses));
    lm.set("jit.kernel_hits", static_cast<double>(k1.hits - k0.hits));
    lm.set("core.plans_made", static_cast<double>(p1.misses - p0.misses));
    lm.set("core.plan_hits", static_cast<double>(p1.hits - p0.hits));
  }
};

/// Peak and bandwidth probes. Returns the peak every pct_peak of the run is
/// checked against; `meter` may already hold samples taken between steps.
double calibrate(Report& r, LayerMetrics& lm, bench::PeakMeter& meter,
                 int threads) {
  for (int i = 0; i < 5; ++i) meter.probe();
  const double peak = meter.best();
  const bench::Triad triad = bench::triad_gbs(threads);
  std::printf("# peak %.1f GFLOPS on %d threads; triad arrays %.0f MiB each, "
              "last-level cache %.0f MiB\n",
              peak, threads, triad.array_bytes / 1048576.0,
              triad.llc_bytes / 1048576.0);
  lm.set("platform.peak_gflops", peak);
  lm.set("platform.mem_gbs", triad.gbs);
  r.op(peak > 0 && triad.gbs > 0, "platform probes");
  return peak;
}

void check_pct_peak(Report& r, const std::string& what, double pct) {
  r.op(pct <= 100.0, what + " at " + std::to_string(pct) + "% of peak");
}

// ---- GxM: ResNet-50 training and inference ---------------------------------

std::vector<gxm::ConvNode*> conv_nodes(const gxm::Graph& g) {
  std::vector<gxm::ConvNode*> out;
  for (const gxm::Task& t : g.fwd_schedule())
    if (auto* c = dynamic_cast<gxm::ConvNode*>(t.node)) out.push_back(c);
  return out;
}

/// FLOPs of one pass over every convolution of the graph.
double conv_pass_flops(const gxm::Graph& g) {
  double f = 0;
  for (gxm::ConvNode* c : conv_nodes(g))
    f += static_cast<double>(c->layer()->params().flops());
  return f;
}

/// Walks a graph's ETG schedules making exactly the calls Graph::forward and
/// Graph::train_step make, in the same order (src/gxm/graph.cpp), and times
/// each one. The same inputs therefore give bitwise the same loss.
class TracedWalk {
 public:
  TracedWalk(gxm::Graph& g, bench::SpanLog& log) : g_(g), log_(log) {}

  void step(bool train, const gxm::Solver& solver, bool record) {
    record_ = record;
    const int step = record ? log_.begin("step", "step") : -1;
    int pass = record ? log_.begin("fwd", "pass", step) : -1;
    for (const gxm::Task& t : g_.fwd_schedule())
      call(t.node, kFwd, pass, [&] { t.node->forward(train); });
    end(pass);
    if (train) {
      pass = record ? log_.begin("bwd", "pass", step) : -1;
      for (const gxm::Task& t : g_.bwd_schedule()) {
        call(t.node, kBwd, pass, [&] { t.node->backward(); });
        if (t.node->param_count() > 0)
          call(t.node, kUpd, pass, [&] { t.node->compute_grads(); });
      }
      end(pass);
      pass = record ? log_.begin("apply", "pass", step) : -1;
      for (const gxm::Task& t : g_.upd_schedule())
        call(t.node, kApply, pass, [&] { t.node->apply_update(solver); });
      end(pass);
    }
    end(step);
    if (record) ++steps_;
  }

  int steps() const { return steps_; }
  /// Seconds spent in (kind, phase) calls over the recorded steps.
  double seconds(Kind k, Phase p) const { return s_[k][p]; }

 private:
  template <class F>
  void call(gxm::Node* n, Phase p, int parent, F&& f) {
    if (!record_) {
      f();
      return;
    }
    const auto t0 = bench::SpanLog::Clock::now();
    f();
    const auto t1 = bench::SpanLog::Clock::now();
    s_[kind_of(n->type())][p] += std::chrono::duration<double>(t1 - t0).count();
    log_.add(n->name() + "." + kPhaseName[p], n->type(), parent, t0, t1);
  }
  void end(int id) {
    if (id >= 0) log_.end(id);
  }

  gxm::Graph& g_;
  bench::SpanLog& log_;
  bool record_ = false;
  int steps_ = 0;
  double s_[kKinds][kPhases] = {};
};

void run_rn50(const Options& o, bool train, Report& r, bench::SpanLog& log) {
  const int threads = run_threads();
  const gxm::Solver solver = make_solver();
  gxm::GraphOptions gopt;
  gopt.threads = threads;
  gopt.seed = o.seed;
  const auto step = [&](gxm::Graph& g) {
    if (train)
      g.train_step(solver);
    else
      g.forward(false);
    return g.loss();
  };

  Setup su;
  std::vector<gxm::NodeSpec> nl;
  su.parse_s = timed([&] {
    nl = gxm::parse_topology(
        topo::resnet50_topology(kNetMinibatch, kNetImage, kClasses));
  });
  std::unique_ptr<gxm::Graph> g;
  su.build_s = timed([&] { g = std::make_unique<gxm::Graph>(nl, gopt); });
  std::vector<float> warm_loss;
  su.warmup_s = timed([&] {
    for (int i = 0; i < kWarmupSteps; ++i) warm_loss.push_back(step(*g));
  });
  su.done();
  for (float l : warm_loss) r.op(std::isfinite(l), "warm-up loss is finite");
  if (o.setup_only) {
    r.metric("setup_s", su.total(), "s");
    return;
  }

  const double pass_flops = conv_pass_flops(*g);
  const double step_flops = (train ? 3 : 1) * pass_flops;
  if (!o.traced()) {
    const auto steps = closed_loop(o, r, "step loss is finite",
                                   [&] { return std::isfinite(step(*g)); });
    report_end_to_end(r, steps, kNetMinibatch,
                      step_flops / median(steps) / 1e9, su.total());
    return;
  }

  // Traced pass: a twin graph with the same seed starts from the same
  // weights and inputs. Each round runs one untraced step on `g` and one
  // traced walk on the twin; their losses must match bit for bit.
  LayerMetrics lm;
  su.set(lm);
  gxm::Graph twin(nl, gopt);
  TracedWalk walk(twin, log);
  for (float l : warm_loss) {
    walk.step(train, solver, false);
    r.op(same_bits(l, twin.loss()), "warm-up: traced loss == Graph loss");
  }
  const std::vector<gxm::ConvNode*> convs = conv_nodes(twin);
  std::vector<tensor::WtTensor> bwd_wt;
  for (gxm::ConvNode* c : convs) {
    const tensor::WtTensor& w = c->weights();
    bwd_wt.emplace_back(w.inner(), w.outer(), w.r(), w.s(), w.vlen());
  }
  std::vector<double> untraced, traced;
  double transform_s = 0;
  bench::PeakMeter meter(threads);
  platform::Timer total;
  while (o.quick ? traced.size() < kQuickSteps : total.seconds() < o.seconds) {
    float la = 0;
    untraced.push_back(timed([&] { la = step(*g); }));
    traced.push_back(timed([&] { walk.step(train, solver, true); }));
    const float lb = twin.loss();
    r.op(std::isfinite(la) && same_bits(la, lb),
         "traced loss " + std::to_string(lb) + " == Graph loss " +
             std::to_string(la));
    if (train)
      transform_s += timed([&] {
        for (std::size_t i = 0; i < convs.size(); ++i)
          tensor::blocked_fwd_to_bwd(convs[i]->weights(), bwd_wt[i]);
      });
    meter.sample();
  }

  const double n = walk.steps();
  const auto ms = [&](Kind k, Phase p) { return 1e3 * walk.seconds(k, p) / n; };
  double attributed = 0;
  for (const auto& [k, phases] : kGxmRows)
    for (Phase p : phases) {
      lm.set(gxm_row_name(k, p), ms(k, p));
      attributed += ms(k, p);
    }
  const double loss_ms = ms(kLoss, kFwd) + ms(kLoss, kBwd);
  attributed += loss_ms;
  lm.set("gxm.loss_ms", loss_ms);
  const double traced_ms = 1e3 * sum(traced) / n;
  const double unattributed = traced_ms - attributed;
  lm.set("gxm.unattributed_ms", unattributed);
  r.op(unattributed <= 0.05 * traced_ms,
       "unattributed " + std::to_string(unattributed) + " ms <= 5% of the " +
           std::to_string(traced_ms) + " ms traced step");
  lm.set("gxm.trace_overhead_pct",
         100.0 * (median(traced) / median(untraced) - 1.0));

  const double peak = calibrate(r, lm, meter, threads);
  const double conv_ms[3] = {ms(kConv, kFwd), ms(kConv, kBwd), ms(kConv, kUpd)};
  for (int p = 0; p < (train ? 3 : 1); ++p) {
    const double gflops = pass_flops / (1e-3 * conv_ms[p]) / 1e9;
    const std::string pass = kPhaseName[p];
    lm.set("core." + pass + "_gflops", gflops);
    lm.set("core." + pass + "_pct_peak", 100.0 * gflops / peak);
    check_pct_peak(r, "network conv " + pass, 100.0 * gflops / peak);
  }
  if (train) {
    lm.set("core.bwd_over_fwd", conv_ms[kFwd] / conv_ms[kBwd]);
    lm.set("tensor.fwd_to_bwd_ms", 1e3 * transform_s / n);
    lm.set("tensor.fwd_to_bwd_share", 1e3 * transform_s / n / conv_ms[kBwd]);
  }
  lm.print(r);
}

// ---- mlsl: multi-node training ----------------------------------------------

struct CodecRates {
  double encode_gbs = 0, decode_acc_gbs = 0;
};

/// Encode and decode-accumulate rates of the int16 codec over one buffer the
/// size of the whole gradient, median of several calls.
CodecRates int16_codec_rates(std::size_t n, unsigned seed) {
  const auto codec = mlsl::make_codec(mlsl::Codec::kInt16);
  std::vector<float> src(n), residual(n, 0.0f), dst(n, 0.0f);
  std::mt19937 rng(seed);
  std::normal_distribution<float> d(0.0f, 1e-3f);
  for (float& x : src) x = d(rng);
  std::vector<std::uint8_t> wire(codec->max_encoded_bytes(n));
  std::vector<double> enc, dec;
  std::size_t bytes = 0;
  for (int i = 0; i < 7; ++i) {
    enc.push_back(timed([&] {
      bytes = codec->encode(src.data(), residual.data(), n, wire.data());
    }));
    dec.push_back(timed(
        [&] { codec->decode_accumulate(wire.data(), bytes, dst.data(), n); }));
  }
  const double gb = 4.0 * static_cast<double>(n) / 1e9;  // fp32 side
  return {gb / median(enc), gb / median(dec)};
}

void run_mn(const Options& o, Report& r, bench::SpanLog& log) {
  const gxm::Solver solver = make_solver();
  gxm::GraphOptions gopt;
  gopt.threads = 1;  // ranks x 1 thread + 1 comm thread <= kMaxThreads
  gopt.seed = o.seed;
  mlsl::MultiNodeOptions mo;
  mo.mode = mlsl::SyncMode::kOverlap;
  mo.bucket_cap_bytes = std::size_t{4} << 20;
  mo.comm.codec = mlsl::Codec::kInt16;
  mo.comm.comm_threads = 1;
  mo.comm.wire_gbs = 1.0;

  Setup su;
  std::vector<gxm::NodeSpec> nl;
  su.parse_s = timed([&] {
    nl = gxm::parse_topology(
        topo::resnet50_topology(kMnMinibatch, kMnImage, kClasses));
  });
  std::unique_ptr<mlsl::MultiNodeTrainer> mt;
  su.build_s = timed([&] {
    mt = std::make_unique<mlsl::MultiNodeTrainer>(nl, kMnRanks, gopt, mo);
  });
  std::vector<float> warm_loss;
  su.warmup_s = timed([&] {
    for (int i = 0; i < kWarmupSteps; ++i)
      warm_loss.push_back(mt->train(1, solver).last_loss);
  });
  su.done();
  for (float l : warm_loss) r.op(std::isfinite(l), "warm-up loss is finite");
  if (o.setup_only) {
    r.metric("setup_s", su.total(), "s");
    return;
  }

  std::vector<double> exposed_s, bucket_wait_s;
  mlsl::MultiNodeStats last;
  const auto steps = closed_loop(o, r, "all rank losses are finite", [&] {
    const int span = o.traced() ? log.begin("train(1)", "step") : -1;
    last = mt->train(1, solver);
    if (span >= 0) log.end(span);
    exposed_s.push_back(last.exposed_comm_seconds);
    bucket_wait_s.resize(last.bucket_wait_seconds.size(), 0.0);
    for (std::size_t b = 0; b < bucket_wait_s.size(); ++b)
      bucket_wait_s[b] += last.bucket_wait_seconds[b];
    bool ok = true;
    for (int rank = 0; rank < kMnRanks; ++rank)
      ok = ok && std::isfinite(mt->rank_graph(rank).loss());
    return ok;
  });
  // Synchronous SGD keeps every replica's weights bitwise equal.
  const std::size_t np = mt->rank_graph(0).grad_elems();
  std::vector<float> p0(np), pr(np);
  mt->rank_graph(0).export_params(p0.data());
  for (int rank = 1; rank < kMnRanks; ++rank) {
    mt->rank_graph(rank).export_params(pr.data());
    r.op(std::memcmp(p0.data(), pr.data(), np * sizeof(float)) == 0,
         "rank " + std::to_string(rank) + " weights == rank 0 weights");
  }
  if (steps.empty()) return;

  const double pass_flops = conv_pass_flops(mt->rank_graph(0));
  if (!o.traced()) {
    report_end_to_end(r, steps, kMnRanks * kMnMinibatch,
                      kMnRanks * 3 * pass_flops / median(steps) / 1e9,
                      su.total());
    return;
  }
  LayerMetrics lm;
  su.set(lm);
  const double n = static_cast<double>(steps.size());
  lm.set("mlsl.exposed_comm_ms_p50", 1e3 * median(exposed_s));
  lm.set("mlsl.exposed_share", sum(exposed_s) / sum(steps));
  lm.set("mlsl.wire_mb_per_rank",
         static_cast<double>(last.wire_bytes_per_rank) / 1e6);
  lm.set("mlsl.compression_ratio", last.compression_ratio);
  lm.set("mlsl.bucket_count", static_cast<double>(last.bucket_count));
  lm.set("mlsl.bucket_wait_ms_max",
         1e3 * *std::max_element(bucket_wait_s.begin(), bucket_wait_s.end()) /
             n);
  const CodecRates rates = int16_codec_rates(np, o.seed);
  lm.set("mlsl.int16_encode_gbs", rates.encode_gbs);
  lm.set("mlsl.int16_decode_acc_gbs", rates.decode_acc_gbs);
  bench::PeakMeter meter(run_threads());
  calibrate(r, lm, meter, run_threads());
  lm.print(r);
}

// ---- core: the Table I layers -----------------------------------------------

struct TableLayer {
  int id = 0;
  core::ConvParams p;
  std::unique_ptr<core::ConvLayer> layer;
  tensor::ActTensor in, out, dout, din;
  tensor::WtTensor wt, dwt;
  std::vector<double> s[3];  ///< per-call seconds, fwd / bwd / upd
};

std::vector<float> random_dense(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<float> d(-0.5f, 0.5f);
  std::vector<float> v(n);
  for (float& x : v) x = d(rng);
  return v;
}

/// Blocked tensors filled from dense random data, so channel-padding lanes
/// and halos hold zeros exactly as the library's own transforms leave them.
void make_tensors(TableLayer& t, unsigned seed) {
  core::ConvLayer& l = *t.layer;
  std::mt19937 rng(seed * 7919u + static_cast<unsigned>(t.id));
  t.in = l.make_input();
  t.din = l.make_input();
  t.out = l.make_output();
  t.dout = l.make_output();
  t.wt = l.make_weights();
  t.dwt = l.make_weights();
  tensor::nchw_to_blocked(random_dense(t.p.input_elems(), rng).data(), t.in);
  tensor::nchw_to_blocked(random_dense(t.p.output_elems(), rng).data(), t.dout);
  tensor::kcrs_to_blocked_fwd(random_dense(t.p.weight_elems(), rng).data(),
                              t.p.K, t.p.C, t.wt);
}

/// Relative L2 error bound for an fp32 sum of `len` products computed in
/// two different orders: rounding errors grow like sqrt(len) * eps.
double tolerance(double len) {
  return 4.0 * 1.1920929e-7 * std::sqrt(len);
}

/// One Table I layer's outputs against the naive reference loops: forward
/// and backward on image 0, the weight update over the whole minibatch.
/// Returns the worst error as a fraction of its tolerance (> 1 fails).
double check_table_layer(const TableLayer& t, int pass) {
  const core::ConvParams& p = t.p;
  core::ConvParams one = p;
  one.N = 1;
  std::vector<float> in(p.input_elems()), dout(p.output_elems()),
      wt(p.weight_elems());
  tensor::blocked_to_nchw(t.in, in.data());
  tensor::blocked_to_nchw(t.dout, dout.data());
  tensor::blocked_fwd_to_kcrs(t.wt, p.K, p.C, wt.data());
  std::vector<float> ref, got;
  double len = 0;
  if (pass == 0) {
    ref.resize(one.output_elems());
    baselines::naive_forward(one, in.data(), wt.data(), ref.data());
    got.resize(p.output_elems());
    tensor::blocked_to_nchw(t.out, got.data());
    len = static_cast<double>(p.C) * p.R * p.S;
  } else if (pass == 1) {
    ref.resize(one.input_elems());
    baselines::naive_backward(one, dout.data(), wt.data(), ref.data());
    got.resize(p.input_elems());
    tensor::blocked_to_nchw(t.din, got.data());
    len = static_cast<double>(p.K) * p.R * p.S;
  } else {
    ref.resize(p.weight_elems());
    baselines::naive_update(p, in.data(), dout.data(), ref.data());
    got.resize(p.weight_elems());
    tensor::blocked_fwd_to_kcrs(t.dwt, p.K, p.C, got.data());
    len = static_cast<double>(p.N) * p.P() * p.Q();
  }
  const tensor::ErrorNorms e = tensor::compare(ref.data(), got.data(),
                                               ref.size());
  return std::isfinite(e.l2_rel) ? e.l2_rel / tolerance(len) : 1e30;
}

void run_table1(const Options& o, Report& r, bench::SpanLog& log) {
  const int threads = run_threads();
  Setup su;
  std::vector<TableLayer> layers;
  su.parse_s = timed([&] {
    for (const auto& spec : topo::resnet50_table1()) {
      TableLayer t;
      t.id = spec.id;
      t.p = topo::table1_params(spec, kTableMinibatch);
      layers.push_back(std::move(t));
    }
  });
  su.build_s = timed([&] {
    core::ConvOptions opt;
    opt.threads = threads;
    for (TableLayer& t : layers)
      t.layer = std::make_unique<core::ConvLayer>(t.p, opt);
  });
  for (TableLayer& t : layers) make_tensors(t, o.seed);  // inputs: not set-up
  const auto call = [](TableLayer& t, int pass) {
    if (pass == 0) t.layer->forward(t.in, t.wt, t.out);
    if (pass == 1) t.layer->backward(t.dout, t.wt, t.din);
    if (pass == 2) t.layer->update(t.in, t.dout, t.dwt);
  };
  su.warmup_s = timed([&] {
    for (TableLayer& t : layers)
      for (int pass = 0; pass < 3; ++pass) call(t, pass);
  });
  su.done();
  if (o.setup_only) {
    r.metric("setup_s", su.total(), "s");
    return;
  }

  bench::PeakMeter meter(threads);
  const auto rounds = closed_loop(o, r, "Table I round", [&] {
    const int round = o.traced() ? log.begin("round", "step") : -1;
    for (TableLayer& t : layers)
      for (int pass = 0; pass < 3; ++pass) {
        const auto t0 = bench::SpanLog::Clock::now();
        call(t, pass);
        const auto t1 = bench::SpanLog::Clock::now();
        t.s[pass].push_back(std::chrono::duration<double>(t1 - t0).count());
        if (round >= 0)
          log.add(LayerMetrics::table_row_name(t.id, kPhaseName[pass]),
                  "Convolution", round, t0, t1);
      }
    if (round >= 0) {
      log.end(round);
      meter.sample();  // traced rounds report no round times
    }
    return true;
  });

  // Every layer and pass once against the reference, after timing.
  std::vector<double> err(layers.size() * 3, 0.0);
#pragma omp parallel for num_threads(threads) schedule(dynamic)
  for (std::size_t i = 0; i < err.size(); ++i)
    err[i] = check_table_layer(layers[i / 3], static_cast<int>(i % 3));
  double worst = 0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    worst = std::max(worst, err[i]);
    r.op(err[i] <= 1.0,
         LayerMetrics::table_row_name(layers[i / 3].id, kPhaseName[i % 3]) +
             " matches the naive reference (error " +
             std::to_string(err[i]) + " x tolerance)");
  }
  std::printf("# worst reference error %.3f x tolerance\n", worst);
  if (rounds.empty()) return;

  double flops[3] = {}, secs[3] = {};
  for (const TableLayer& t : layers)
    for (int pass = 0; pass < 3; ++pass) {
      flops[pass] += static_cast<double>(t.p.flops());
      secs[pass] += median(t.s[pass]);
    }
  if (!o.traced()) {
    report_end_to_end(r, rounds, kTableMinibatch,
                      (flops[0] + flops[1] + flops[2]) /
                          (secs[0] + secs[1] + secs[2]) / 1e9,
                      su.total());
    return;
  }
  LayerMetrics lm;
  su.set(lm);
  const double peak = calibrate(r, lm, meter, threads);
  double max_pct = 0;
  for (const TableLayer& t : layers)
    for (int pass = 0; pass < 3; ++pass) {
      const std::string name = LayerMetrics::table_row_name(t.id, kPhaseName[pass]);
      const double gflops =
          static_cast<double>(t.p.flops()) / median(t.s[pass]) / 1e9;
      lm.set(name, gflops);
      max_pct = std::max(max_pct, 100.0 * gflops / peak);
      check_pct_peak(r, name, 100.0 * gflops / peak);
    }
  lm.set("core.table1.max_pct_peak", max_pct);
  for (int pass = 0; pass < 3; ++pass) {
    const std::string name = kPhaseName[pass];
    const double gflops = flops[pass] / secs[pass] / 1e9;
    lm.set("core." + name + "_gflops", gflops);
    lm.set("core." + name + "_pct_peak", 100.0 * gflops / peak);
  }
  lm.set("core.bwd_over_fwd", secs[0] / secs[1]);
  lm.print(r);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload=rn50_train|rn50_infer|rn50_mn|"
                 "conv_table1 --seed=N [--seconds=S] [--trace=FILE] "
                 "[--setup-only] [--quick]\n",
                 argv[0]);
    return 2;
  }
  using Run = void (*)(const Options&, Report&, bench::SpanLog&);
  const std::map<std::string, Run> workloads = {
      {"rn50_train",
       [](const Options& op, Report& r, bench::SpanLog& l) {
         run_rn50(op, true, r, l);
       }},
      {"rn50_infer",
       [](const Options& op, Report& r, bench::SpanLog& l) {
         run_rn50(op, false, r, l);
       }},
      {"rn50_mn", run_mn},
      {"conv_table1", run_table1},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "bench_suite: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  std::printf("# workload %s seed %u threads %d\n", o.workload.c_str(), o.seed,
              run_threads());
  Report r;
  bench::SpanLog log;
  try {
    it->second(o, r, log);
  } catch (const std::exception& e) {
    r.op(false, std::string("workload threw: ") + e.what());
  }
  if (o.traced() && !o.setup_only)
    r.op(log.write_chrome(o.trace), "write trace " + o.trace);
  return r.finish();
}
