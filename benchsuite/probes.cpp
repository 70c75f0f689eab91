#include "probes.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

#include "jit/assembler.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/cpu.hpp"
#include "platform/roofline.hpp"
#include "tensor/buffer.hpp"

namespace xconv::bench {

namespace {

using FmaLoop = void (*)(std::int64_t iters);

constexpr jit::Gpr kIters = jit::Gpr::rdi;  // SysV first argument

/// `acc` accumulators, each one FMA per iteration: with FMA latency 4 and
/// two FMA ports, 8 independent chains keep the ports busy; 12 (ymm) or 24
/// (zmm) leave margin for hosts with longer latency.
jit::CodeBuffer emit_fma_loop(platform::Isa isa, int acc) {
  const bool zmm = isa != platform::Isa::avx2;
  const jit::VecWidth w = zmm ? jit::VecWidth::zmm512 : jit::VecWidth::ymm256;
  const jit::Vec a{zmm ? 30 : 14}, b{zmm ? 31 : 15};
  jit::CodeBuffer buf(4096);
  jit::Assembler as(buf);
  for (int i = 0; i < acc; ++i) as.vxorps(w, jit::Vec{i}, jit::Vec{i}, jit::Vec{i});
  as.vxorps(w, a, a, a);
  as.vxorps(w, b, b, b);
  const std::size_t top = as.here();
  for (int i = 0; i < acc; ++i) as.vfmadd231ps(w, jit::Vec{i}, a, b);
  as.sub_ri(kIters, 1);
  as.cmp_ri(kIters, 0);
  as.jcc_back(jit::Cond::g, top);
  as.ret();
  buf.finalize();

  jit::verify::Contract c;
  c.isa = isa;
  c.iters_gpr = static_cast<int>(kIters);
  jit::verify::verify(c, buf.data(), buf.size(), "peak_fma_loop");
  return buf;
}

std::size_t llc_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;  // unknown: assume a large server LLC
}

}  // namespace

PeakMeter::PeakMeter(int threads) : threads_(threads) {
  const platform::Isa isa = std::min(platform::max_isa(), platform::Isa::avx512);
  if (isa == platform::Isa::scalar) return;
  accumulators_ = isa == platform::Isa::avx2 ? 12 : 24;
  vlen_ = platform::vlen_fp32(isa);
  code_.emplace(emit_fma_loop(isa, accumulators_));
}

void PeakMeter::probe() {
  since_.reset();
  if (!code_) {
    best_ = std::max(best_, platform::measure_host_peak_gflops_core() * threads_);
    return;
  }
  const auto fn = code_->entry<FmaLoop>();
  const std::int64_t iters = 2'000'000;
  platform::Timer t;
#pragma omp parallel num_threads(threads_)
  {
#pragma omp barrier
#pragma omp single
    t.reset();
    fn(iters);
  }
  const double flops =
      2.0 * accumulators_ * vlen_ * static_cast<double>(iters) * threads_;
  best_ = std::max(best_, flops / t.seconds() / 1e9);
}

void PeakMeter::sample() {
  if (since_.seconds() >= 0.5) probe();
}

Triad triad_gbs(int threads) {
  Triad r;
  r.llc_bytes = llc_bytes();
  r.array_bytes = 4 * r.llc_bytes;
  const std::size_t n = r.array_bytes / sizeof(double);
  tensor::AlignedBuffer<double> a(n), b(n), c(n);
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();
  const auto len = static_cast<std::int64_t>(n);
  // First touch on the threads that stream the pages later.
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double s = 3.0;
  double best_s = 0;
  for (int rep = 0; rep < 4; ++rep) {
    platform::Timer t;
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < len; ++i) pa[i] = pb[i] + s * pc[i];
    const double secs = t.seconds();
    if (rep == 0 || secs < best_s) best_s = secs;
  }
  r.gbs = 3.0 * static_cast<double>(r.array_bytes) / best_s / 1e9;
  return r;
}

}  // namespace xconv::bench
