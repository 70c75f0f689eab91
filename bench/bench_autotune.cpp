// Plan-space autotuning demo + smoke gate (ROADMAP: profile-guided plan
// autotuning on top of the explicit ConvPlan layer).
//
// Cold run (empty --cache): each selected layer runs autotune_plan() — a
// measured search over forward register blockings and update pixel blockings
// / strategies — and persists the winner into the plan-cache directory.
// Warm run (same --cache): the tuned plan is served from disk with ZERO
// search work (candidates == 0, asserted by tools/autotune/autotune.py),
// and the bench re-measures tuned vs default GFLOPS from the persisted plan.
//
// Usage:
//   bench_autotune [--layers=2,5,8] [--cache=DIR] [--out=PATH] [--runs=N]
// --layers takes ResNet-50 Table-1 layer ids. Environment: XCONV_MB
// (minibatch, default 1), XCONV_BENCH_RUNS (default 3), plus the library-wide
// XCONV_ISA knob.
#include <omp.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/plan.hpp"

using namespace xconv;

namespace {

struct Row {
  std::string layer;
  std::string params;
  bool cache_hit = false;
  int candidates = 0;
  double default_fwd_gflops = 0, tuned_fwd_gflops = 0;
  double default_upd_gflops = 0, tuned_upd_gflops = 0;
  core::ConvPlan plan;
};

std::vector<int> parse_ids(const std::string& s) {
  std::vector<int> ids;
  std::string cur;
  for (const char c : s + ",") {
    if (c == ',') {
      if (!cur.empty()) ids.push_back(std::stoi(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  std::string layers = "2,5,8";
  std::string cache_dir;
  std::string out = "BENCH_autotune.json";
  int runs = platform::bench_runs(3);
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--layers=", 0) == 0) {
      layers = arg.substr(9);
    } else if (arg.rfind("--cache=", 0) == 0) {
      cache_dir = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = std::stoi(arg.substr(7));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--layers=ids] [--cache=DIR] [--out=PATH] "
                   "[--runs=N]\n",
                   argv[0]);
      return 2;
    }
  }

  const int mb = platform::bench_minibatch(1);
  const int threads = omp_get_max_threads();

  // The execution context every plan in this run is keyed to / measured in.
  core::ConvOptions base;
  base.threads = threads;

  core::PlanCache cache(cache_dir);
  core::AutotuneConfig cfg;
  cfg.runs = runs;

  bench::print_header("bench_autotune: measured plan search, cached winners",
                      mb, runs);
  std::printf("plan cache: %s\n",
              cache_dir.empty() ? "(memory only)" : cache_dir.c_str());
  std::printf("%-10s %-5s %-6s %-11s %-11s %-11s %-11s  %s\n", "layer", "hit",
              "cands", "fwd_def", "fwd_tuned", "upd_def", "upd_tuned",
              "plan");

  std::vector<Row> rows;
  for (const int id : parse_ids(layers)) {
    const topo::LayerSpec* spec = nullptr;
    for (const auto& l : topo::resnet50_table1())
      if (l.id == id) spec = &l;
    if (spec == nullptr) {
      std::fprintf(stderr, "bench_autotune: no ResNet-50 layer with id %d\n",
                   id);
      return 2;
    }
    Row row;
    char label[32];
    std::snprintf(label, sizeof(label), "rn50_L%02d", spec->id);
    row.layer = label;
    const core::ConvParams p = topo::table1_params(*spec, mb);
    row.params = p.to_string();

    const core::PlanKey key = core::plan_key(p, base);
    core::ConvPlan tuned;
    row.cache_hit = cache.peek(key, &tuned);
    if (!row.cache_hit) {
      const core::AutotuneResult res = core::autotune_plan(key, cfg);
      tuned = res.plan;
      row.candidates = res.candidates_tried;
      cache.put(key, tuned);
    }
    row.plan = tuned;

    const core::ConvPlan defplan = core::plan_default(key);
    {
      core::ConvOptions o = base;
      o.plan = defplan;
      core::ConvLayer layer(p, o);
      auto t = bench::make_tensors(layer);
      row.default_fwd_gflops = bench::fwd_gflops(layer, t, runs);
      row.default_upd_gflops = bench::upd_gflops(layer, t, runs);
    }
    core::ConvPlan cmp = tuned;
    cmp.tuned = false;
    if (cmp == defplan) {
      // The search kept the closed-form default: identical execution, so
      // the tuned columns are the default measurements by definition.
      row.tuned_fwd_gflops = row.default_fwd_gflops;
      row.tuned_upd_gflops = row.default_upd_gflops;
    } else {
      core::ConvOptions o = base;
      o.plan = tuned;
      core::ConvLayer layer(p, o);
      auto t = bench::make_tensors(layer);
      row.tuned_fwd_gflops = bench::fwd_gflops(layer, t, runs);
      row.tuned_upd_gflops = bench::upd_gflops(layer, t, runs);
    }

    char plan_desc[96];
    std::snprintf(plan_desc, sizeof(plan_desc),
                  "rb=%dx%d upd=%dx%d %s%s", row.plan.rbp, row.plan.rbq,
                  row.plan.upd_bp, row.plan.upd_bq,
                  core::upd_strategy_name(row.plan.upd_strategy),
                  row.plan.tuned ? " (tuned)" : "");
    std::printf("%-10s %-5s %-6d %11.1f %11.1f %11.1f %11.1f  %s\n",
                row.layer.c_str(), row.cache_hit ? "yes" : "no",
                row.candidates, row.default_fwd_gflops, row.tuned_fwd_gflops,
                row.default_upd_gflops, row.tuned_upd_gflops, plan_desc);
    rows.push_back(row);
  }

  const auto st = cache.stats();
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_autotune: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"autotune\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", platform::isa_name(base.isa));
  std::fprintf(f, "  \"minibatch\": %d,\n", mb);
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"runs\": %d,\n", runs);
  std::fprintf(f, "  \"cache_dir\": \"%s\",\n",
               bench::json_escape(cache_dir).c_str());
  std::fprintf(f, "  \"plan_cache_disk_hits\": %llu,\n",
               static_cast<unsigned long long>(st.disk_hits));
  std::fprintf(f, "  \"plan_cache_stores\": %llu,\n",
               static_cast<unsigned long long>(st.stores));
  std::fprintf(f, "  \"results\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "%s\n    {\"layer\": \"%s\", \"params\": \"%s\", "
        "\"cache_hit\": %s, \"candidates\": %d, "
        "\"default_fwd_gflops\": %.3f, \"tuned_fwd_gflops\": %.3f, "
        "\"default_upd_gflops\": %.3f, \"tuned_upd_gflops\": %.3f, "
        "\"rbp\": %d, \"rbq\": %d, \"upd_bp\": %d, \"upd_bq\": %d, "
        "\"upd_strategy\": \"%s\", \"tuned_plan\": %s}",
        i == 0 ? "" : ",", bench::json_escape(r.layer).c_str(),
        bench::json_escape(r.params).c_str(), r.cache_hit ? "true" : "false",
        r.candidates, r.default_fwd_gflops, r.tuned_fwd_gflops,
        r.default_upd_gflops, r.tuned_upd_gflops, r.plan.rbp, r.plan.rbq,
        r.plan.upd_bp, r.plan.upd_bq,
        core::upd_strategy_name(r.plan.upd_strategy),
        r.plan.tuned ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu layers)\n", out.c_str(), rows.size());
  return 0;
}
