// Gradient-codec kernel throughput: scalar reference loop vs the generated
// AVX-512 kernels (src/jit/codec_kernel_gen.cpp), per CodecOp, over a
// gradient-bucket-sized payload. The two backends are bitwise-identical by
// contract (tests/test_jit_codec_kernels.cpp); this bench reports the
// speedup that identity buys.
//
// The PR-9 acceptance line is the `encdec` rows: int16 and bf16 full
// encode+decode (fold + quant/pack + dequant/unpack) must clear 2x scalar.
//
// Usage: bench_codec [--n=ELEMS] [--out=FILE.json]
//   XCONV_BENCH_RUNS  measured repetitions per point (default 3)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "jit/codec_kernel_gen.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/microkernel.hpp"
#include "platform/timer.hpp"

namespace {

using namespace xconv;
using kernels::CodecCall;
using kernels::CodecMicrokernel;

struct Row {
  std::string op;
  std::int64_t n = 0;
  double scalar_ms = 0, jit_ms = 0;
  double scalar_gbs = 0, jit_gbs = 0;  ///< float-payload traffic only
  double speedup = 0;
};

struct Buffers {
  std::vector<float> src, io_seed, io;
  std::vector<std::uint8_t> wire_in, wire_out;
  std::vector<std::uint32_t> mag, idx;
  float amax = 0.0f;  ///< fold_amax running max
};

Buffers make_buffers(std::int64_t n) {
  Buffers b;
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> d(-8.0f, 8.0f);
  b.src.resize(static_cast<std::size_t>(n));
  for (auto& v : b.src) v = d(rng);
  b.io_seed.resize(static_cast<std::size_t>(n));
  for (auto& v : b.io_seed) v = d(rng);
  b.io = b.io_seed;
  b.wire_in.resize(static_cast<std::size_t>(n) * 2);
  for (auto& v : b.wire_in) v = static_cast<std::uint8_t>(rng());
  // int16 dequant reads i16 lanes: clamp them into the quantized domain.
  auto* lanes = reinterpret_cast<std::int16_t*>(b.wire_in.data());
  for (std::int64_t i = 0; i < n; ++i)
    lanes[i] = static_cast<std::int16_t>(lanes[i] % 1024);
  b.wire_out.resize(static_cast<std::size_t>(n) * 2);
  b.mag.resize(static_cast<std::size_t>(n));
  for (auto& v : b.mag) v = rng() & 0x7f000000u;
  b.idx.resize(static_cast<std::size_t>(n));
  return b;
}

CodecCall call_for(jit::CodecOp op, Buffers& b, std::int64_t n) {
  CodecCall c;
  c.n = n;
  c.scale = 0.03125f;
  c.threshold = 0x3f000000u;
  switch (op) {
    case jit::CodecOp::fold_add:
    case jit::CodecOp::topk_mag:
      c.f_in = b.src.data();
      c.f_io = b.io.data();
      c.u_out = b.mag.data();
      break;
    case jit::CodecOp::fold_amax:
      b.amax = 0.0f;
      c.f_in = b.src.data();
      c.f_io = b.io.data();
      c.amax = &b.amax;
      break;
    case jit::CodecOp::int16_quant:
      c.f_io = b.io.data();
      c.w_out = b.wire_out.data();
      break;
    case jit::CodecOp::int16_dequant:
    case jit::CodecOp::int16_dequant_acc:
    case jit::CodecOp::bf16_unpack:
    case jit::CodecOp::bf16_unpack_acc:
      c.w_in = b.wire_in.data();
      c.f_io = b.io.data();
      break;
    case jit::CodecOp::bf16_pack:
      c.f_in = b.src.data();
      c.f_io = b.io.data();
      c.w_out = b.wire_out.data();
      break;
    case jit::CodecOp::topk_compress:
      c.u_in = b.mag.data();
      c.u_out = b.idx.data();
      break;
  }
  return c;
}

double time_codec(const CodecMicrokernel& k, jit::CodecOp op, Buffers& b,
                  std::int64_t n, int runs) {
  const auto st = platform::time_runs(
      [&] {
        // Re-seed the in/out payload so rw ops do identical work per rep.
        std::memcpy(b.io.data(), b.io_seed.data(),
                    b.io.size() * sizeof(float));
        CodecCall c = call_for(op, b, n);
        k.run(c);
      },
      runs, 1);
  return st.min_s;
}

Row bench_op(jit::CodecOp op, std::int64_t n, int runs) {
  jit::CodecKernelDesc d;
  d.op = op;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  auto sc = kernels::make_codec_scalar(d);
  auto jk = kernels::make_codec_jit(d);

  Buffers b = make_buffers(n);
  Row r;
  r.op = jit::codec_op_name(op);
  r.n = n;
  r.scalar_ms = time_codec(*sc, op, b, n, runs) * 1e3;
  r.jit_ms = time_codec(*jk, op, b, n, runs) * 1e3;
  const double bytes = static_cast<double>(n) * 4.0;
  r.scalar_gbs = bytes / (r.scalar_ms * 1e-3) / 1e9;
  r.jit_gbs = bytes / (r.jit_ms * 1e-3) / 1e9;
  r.speedup = r.scalar_ms / r.jit_ms;
  return r;
}

/// Full encode+decode chain for one codec: the acceptance metric. int16 =
/// fold_amax + quant + dequant_acc; bf16 = pack (folds internally) + unpack_acc.
Row bench_encdec(const char* name, const std::vector<jit::CodecOp>& chain,
                 std::int64_t n, int runs, bool jit) {
  std::vector<std::unique_ptr<CodecMicrokernel>> ks;
  for (const auto op : chain) {
    jit::CodecKernelDesc d;
    d.op = op;
    d.isa = platform::Isa::avx512;
    d.vlen = 16;
    ks.push_back(jit ? kernels::make_codec_jit(d)
                     : kernels::make_codec_scalar(d));
  }
  Buffers b = make_buffers(n);
  const auto st = platform::time_runs(
      [&] {
        std::memcpy(b.io.data(), b.io_seed.data(),
                    b.io.size() * sizeof(float));
        for (std::size_t i = 0; i < chain.size(); ++i) {
          CodecCall c = call_for(chain[i], b, n);
          // Decode stages read the wire the encode stage just produced.
          if (chain[i] == jit::CodecOp::int16_dequant_acc ||
              chain[i] == jit::CodecOp::bf16_unpack_acc)
            c.w_in = b.wire_out.data();
          ks[i]->run(c);
        }
      },
      runs, 1);
  Row r;
  r.op = name;
  r.n = n;
  (jit ? r.jit_ms : r.scalar_ms) = st.min_s * 1e3;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t n = 1 << 20;  // 4 MiB of gradient, a typical bucket
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--n=", 0) == 0) n = std::stoll(arg.substr(4));
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  const int runs = xconv::platform::bench_runs();

  if (static_cast<int>(xconv::platform::max_isa()) <
      static_cast<int>(xconv::platform::Isa::avx512)) {
    std::printf("bench_codec: host lacks AVX-512; nothing to compare\n");
    return 0;
  }

  std::printf("Gradient codec kernels: scalar vs JIT, n=%lld floats\n",
              static_cast<long long>(n));
  std::printf("%-20s %12s %12s %10s %10s %8s\n", "op", "scalar ms", "jit ms",
              "scalar GB/s", "jit GB/s", "speedup");

  std::vector<Row> rows;
  for (const auto op :
       {xconv::jit::CodecOp::fold_add, xconv::jit::CodecOp::fold_amax,
        xconv::jit::CodecOp::int16_quant,
        xconv::jit::CodecOp::int16_dequant,
        xconv::jit::CodecOp::int16_dequant_acc, xconv::jit::CodecOp::bf16_pack,
        xconv::jit::CodecOp::bf16_unpack,
        xconv::jit::CodecOp::bf16_unpack_acc, xconv::jit::CodecOp::topk_mag,
        xconv::jit::CodecOp::topk_compress}) {
    rows.push_back(bench_op(op, n, runs));
    const Row& r = rows.back();
    std::printf("%-20s %12.3f %12.3f %10.2f %10.2f %7.2fx\n", r.op.c_str(),
                r.scalar_ms, r.jit_ms, r.scalar_gbs, r.jit_gbs, r.speedup);
  }

  using xconv::jit::CodecOp;
  const std::vector<std::pair<const char*, std::vector<CodecOp>>> chains = {
      {"int16_encdec",
       {CodecOp::fold_amax, CodecOp::int16_quant,
        CodecOp::int16_dequant_acc}},
      {"bf16_encdec", {CodecOp::bf16_pack, CodecOp::bf16_unpack_acc}},
  };
  for (const auto& [name, chain] : chains) {
    Row s = bench_encdec(name, chain, n, runs, false);
    Row j = bench_encdec(name, chain, n, runs, true);
    Row r;
    r.op = name;
    r.n = n;
    r.scalar_ms = s.scalar_ms;
    r.jit_ms = j.jit_ms;
    const double bytes = static_cast<double>(n) * 4.0 * chain.size();
    r.scalar_gbs = bytes / (r.scalar_ms * 1e-3) / 1e9;
    r.jit_gbs = bytes / (r.jit_ms * 1e-3) / 1e9;
    r.speedup = r.scalar_ms / r.jit_ms;
    rows.push_back(r);
    std::printf("%-20s %12.3f %12.3f %10.2f %10.2f %7.2fx\n", r.op.c_str(),
                r.scalar_ms, r.jit_ms, r.scalar_gbs, r.jit_gbs, r.speedup);
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_codec: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"codec\",\n  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"isa\": \"%s\",\n",
                 xconv::platform::isa_name(xconv::platform::effective_isa()));
    std::fprintf(f, "  \"n\": %lld,\n  \"runs\": %d,\n",
                 static_cast<long long>(n), runs);
    std::fprintf(f, "  \"results\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "%s\n    {\"op\": \"%s\", \"n\": %lld, "
                   "\"scalar_ms\": %.6f, \"jit_ms\": %.6f, "
                   "\"scalar_gbs\": %.3f, \"jit_gbs\": %.3f, "
                   "\"speedup\": %.3f}",
                   i == 0 ? "" : ",", xconv::bench::json_escape(r.op).c_str(),
                   static_cast<long long>(r.n), r.scalar_ms, r.jit_ms,
                   r.scalar_gbs, r.jit_gbs, r.speedup);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}
