#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_layer.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using kernels::Backend;
using xconv::testing::random_vec;

namespace {
jit::ConvKernelDesc small_desc() {
  jit::ConvKernelDesc d;
  d.isa = platform::max_isa() >= platform::Isa::avx512
              ? platform::Isa::avx512
              : platform::Isa::avx2;
  d.vlen = platform::vlen_fp32(d.isa);
  d.rbp = 1;
  d.rbq = 4;
  d.r = d.s = 3;
  d.in_row_stride = 16 * d.vlen;
  d.out_row_stride = 8 * d.vlen;
  d.c_iters = d.vlen;
  return d;
}

// The same descriptor at Isa::scalar, which always resolves the scalar
// reference.
template <class Desc>
Desc at_scalar_isa(Desc d) {
  d.isa = platform::Isa::scalar;
  return d;
}
}  // namespace

TEST(Registry, CachesByDescriptor) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = small_desc();
  const std::size_t before = reg.size();
  const auto* k1 = reg.conv(d);
  const auto* k2 = reg.conv(d);
  EXPECT_EQ(k1, k2);  // cached, not re-JITted
  EXPECT_GE(reg.size(), before + (k1 == k2 ? 1 : 2));
  auto d2 = d;
  d2.rbq = 5;
  const auto* k3 = reg.conv(d2);
  EXPECT_NE(k1, k3);
}

// The descriptor's ISA picks the backend: Isa::scalar gives the scalar
// reference, a SIMD ISA the host supports gives the JIT.
TEST(Registry, BackendFollowsDescriptorIsa) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = small_desc();
  EXPECT_EQ(reg.conv(at_scalar_isa(d))->backend(), Backend::scalar);
  if (platform::max_isa() >= d.isa) {
    EXPECT_EQ(reg.conv(d)->backend(), Backend::jit);
  }
}

TEST(Registry, AllBackendsAgree) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = small_desc();
  const std::size_t in_sz =
      static_cast<std::size_t>(d.rbp + d.r + 2) * d.in_row_stride +
      (d.rbq + d.s) * d.vlen;
  const std::size_t out_sz =
      static_cast<std::size_t>(d.rbp + 1) * d.out_row_stride;
  const auto in = random_vec(in_sz, 1);
  const auto wt = random_vec(static_cast<std::size_t>(d.r) * d.s * d.vlen *
                                 d.vlen,
                             2);
  const auto base = random_vec(out_sz, 3);

  std::vector<std::vector<float>> outs;
  for (const auto& desc : {at_scalar_isa(d), d}) {
    auto out = base;
    reg.conv(desc)->run(in.data(), wt.data(), out.data(), in.data(),
                        wt.data(), out.data());
    outs.push_back(std::move(out));
  }
  xconv::testing::expect_close(outs[0], outs[1], 1e-4, "scalar-vs-simd-isa");
}

TEST(Registry, UpdBackendsAgree) {
  auto& reg = kernels::KernelRegistry::instance();
  jit::UpdKernelDesc d;
  d.isa = platform::max_isa() >= platform::Isa::avx512
              ? platform::Isa::avx512
              : platform::Isa::avx2;
  d.vlen = platform::vlen_fp32(d.isa);
  d.bp = 3;
  d.bq = 5;
  d.in_row_stride = 12 * d.vlen;
  d.out_row_stride = 8 * d.vlen;

  const auto in = random_vec(static_cast<std::size_t>(d.bp + 1) *
                                 d.in_row_stride,
                             4);
  const auto dout = random_vec(static_cast<std::size_t>(d.bp + 1) *
                                   d.out_row_stride,
                               5);
  const auto base = random_vec(static_cast<std::size_t>(d.vlen) * d.vlen, 6);
  auto a = base, b = base;
  reg.upd(at_scalar_isa(d))
      ->run(in.data(), dout.data(), a.data(), nullptr, nullptr, nullptr);
  reg.upd(d)
      ->run(in.data(), dout.data(), b.data(), in.data(), dout.data(),
            b.data());
  xconv::testing::expect_close(a, b, 1e-4, "upd scalar-vs-simd-isa");
}

// Hammer the registry from many threads on overlapping keys: every thread
// must observe the same kernel pointer per descriptor (first insert wins,
// losers discarded), with no crash, deadlock, or duplicate cache entry.
TEST(Registry, ConcurrentFirstUseResolution) {
  auto& reg = kernels::KernelRegistry::instance();
  constexpr int kThreads = 8;
  constexpr int kDescs = 6;

  std::vector<jit::ConvKernelDesc> descs;
  for (int i = 0; i < kDescs; ++i) {
    auto d = at_scalar_isa(small_desc());
    d.rbq = 8 + i;  // distinct keys, not shared with other tests
    descs.push_back(d);
  }

  const std::size_t before = reg.size();
  std::array<std::array<const kernels::ConvMicrokernel*, kDescs>, kThreads>
      seen{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        for (int i = 0; i < kDescs; ++i) {
          // Rotate start index per thread so first-use races on every key.
          const int idx = (i + t) % kDescs;
          seen[t][idx] = reg.conv(descs[idx]);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < kDescs; ++i) {
    ASSERT_NE(seen[0][i], nullptr);
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[0][i], seen[t][i]) << "thread " << t << " desc " << i;
  }
  // Exactly one cache entry per descriptor; racing losers were discarded.
  EXPECT_EQ(reg.size(), before + kDescs);
}

// The reduce generator sums >= 2 copies, each addressed as [src + disp32].
// A descriptor whose copies span past disp32 resolves the scalar kernel
// instead of throwing, and so does a one-copy copy-out.
TEST(Registry, ReduceBeyondDisp32ResolvesScalar) {
  auto& reg = kernels::KernelRegistry::instance();
  jit::ReduceKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.copies = 3;
  d.copy_stride = std::int64_t{1} << 30;  // 4 GiB between copies
  ASSERT_GT(d.span_bytes(), INT32_MAX);
  const kernels::ReduceMicrokernel* k = nullptr;
  EXPECT_NO_THROW(k = reg.reduce(d));
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->backend(), Backend::scalar);

  d.copy_stride = 4096;
  if (platform::max_isa() >= d.isa) {
    EXPECT_EQ(reg.reduce(d)->backend(), Backend::jit);
  }
  d.copies = 1;
  EXPECT_EQ(reg.reduce(d)->backend(), Backend::scalar);
}

TEST(Registry, BackendNames) {
  EXPECT_STREQ(kernels::backend_name(Backend::jit), "jit");
  EXPECT_STREQ(kernels::backend_name(Backend::scalar), "scalar");
}

namespace xconv::core {
// Reads the kernels a layer resolved from the registry.
struct ConvLayerTestPeer {
  struct Kernels {
    std::vector<kernels::Backend> backends;
    int fwd = 0, bwd_strided = 0, kdot = 0, upd = 0, reduce = 0;
  };
  // Every kernel of `l` and of its backward dual layer.
  static void collect(const ConvLayer& l, Kernels& k) {
    for (const auto* m : l.fwd_variants_) k.backends.push_back(m->backend());
    for (const auto* m : l.bwd_variants_)
      if (m != nullptr) {
        k.backends.push_back(m->backend());
        ++(l.bwd_algo_ == BwdAlgo::kdot ? k.kdot : k.bwd_strided);
      }
    for (const auto* m : l.upd_variants_) k.backends.push_back(m->backend());
    if (l.upd_reduce_ != nullptr) {
      k.backends.push_back(l.upd_reduce_->backend());
      ++k.reduce;
    }
    k.fwd += static_cast<int>(l.fwd_variants_.size());
    k.upd += static_cast<int>(l.upd_variants_.size());
    if (l.bwd_layer_ != nullptr) collect(*l.bwd_layer_, k);
  }
};
}  // namespace xconv::core

namespace {
std::uint64_t bits_hash(const std::vector<float>& v) {
  std::string bytes(v.size() * sizeof(float), '\0');
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return core::fnv1a64(bytes);
}
}  // namespace

// A layer built for Isa::scalar runs only scalar kernels: forward variants,
// the strided backward, k-dot, update and the dW reduce. Its results are
// pinned to those of the scalar kernels driven at the scalar ISA's plan
// (vlen 16, avx512-shaped blocking, 2 threads).
TEST(Registry, ScalarIsaResolvesOnlyScalarKernels) {
  struct Case {
    core::ConvParams p;
    core::UpdStrategy upd;
    int rbq;  ///< forward RBQ (RBP 1); 0 keeps the default plan's
    std::uint64_t fwd, bwd, upd_bits;
  };
  const Case cases[] = {
      // duality stride-1 with edge blocks; minibatch update -> dW reduce
      {core::make_conv(2, 16, 32, 9, 9, 3, 3, 1), core::UpdStrategy::minibatch,
       4, 0x91de1d78607f57beull, 0x508b792d9a383d6cull,
       0xed15875915eb4f94ull},
      // strided duality, 1x1 (bitwise what the 1x1-only scatter path gave)
      {core::make_conv(1, 16, 16, 5, 57, 1, 1, 2, 0), core::UpdStrategy::task,
       0, 0x407e56e3aa0684bbull, 0x67c62454525f864aull,
       0xa2fab1056ea71caaull},
      // k-dot (C = 3); hybrid update -> dW reduce
      {core::make_conv(2, 3, 32, 15, 15, 7, 7, 2, 3), core::UpdStrategy::hybrid,
       0, 0xf944b4bcc6643407ull, 0xa5ac1a2fced6f018ull,
       0x80dbd1b0c12bb3d7ull},
      // strided duality, 3x3 (Algorithm 7's case; its hash moved when the
      // Kb reduction went inside the 1x1 kernel call)
      {core::make_conv(1, 16, 16, 9, 9, 3, 3, 2), core::UpdStrategy::task, 0,
       0x59497defe052ee8dull, 0xd584880a26fa8a1bull,
       0x0c9d43200c2b958cull},
  };
  core::ConvLayerTestPeer::Kernels total;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.p.to_string());
    core::ConvOptions o;
    o.isa = platform::Isa::scalar;
    o.threads = 2;
    core::ConvLayer layer(
        c.p, xconv::testing::with_plan(c.p, o, [&](core::ConvPlan& plan) {
          plan.upd_strategy = c.upd;
          if (c.rbq > 0) {
            plan.rbp = 1;
            plan.rbq = c.rbq;
          }
        }));
    core::ConvLayerTestPeer::Kernels k;
    core::ConvLayerTestPeer::collect(layer, k);
    for (const Backend b : k.backends)
      EXPECT_EQ(b, Backend::scalar) << kernels::backend_name(b);
    total.fwd += k.fwd;
    total.bwd_strided += k.bwd_strided;
    total.kdot += k.kdot;
    total.upd += k.upd;
    total.reduce += k.reduce;

    xconv::testing::ConvProblem pr(c.p, 7);
    const auto fwd = layer_forward(layer, pr);
    const auto bwd = layer_backward(layer, pr);
    const auto upd = layer_update(layer, pr);
    xconv::testing::expect_within_reduction_bound(
        xconv::testing::naive_fwd(pr), fwd, double(c.p.C) * c.p.R * c.p.S,
        "scalar fwd");
    xconv::testing::expect_within_reduction_bound(
        xconv::testing::naive_bwd(pr), bwd, double(c.p.K) * c.p.R * c.p.S,
        "scalar bwd");
    xconv::testing::expect_within_reduction_bound(
        xconv::testing::naive_upd(pr), upd,
        double(c.p.N) * c.p.P() * c.p.Q(), "scalar upd");
#if defined(__x86_64__) && !defined(__FMA__)
    // Without FMA contraction the scalar kernels' bits are fixed.
    EXPECT_EQ(bits_hash(fwd), c.fwd);
    EXPECT_EQ(bits_hash(bwd), c.bwd);
    EXPECT_EQ(bits_hash(upd), c.upd_bits);
#endif
  }
  // Every kernel family really was exercised.
  EXPECT_GT(total.fwd, 0);
  EXPECT_GT(total.bwd_strided, 0);
  EXPECT_GT(total.kdot, 0);
  EXPECT_GT(total.upd, 0);
  EXPECT_EQ(total.reduce, 2);
}

// Every family resolves through the one cache. Rebuilding a strided-duality
// ConvLayer compiles nothing: each kernel it holds, the strided backward's
// included, is one registry hit. Re-running a QConvLayer of the same shape
// likewise only hits.
TEST(Registry, RebuiltStridedAndQConvLayersOnlyHit) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);

  core::ConvLayer first(p);
  ASSERT_EQ(first.bwd_algo(), core::BwdAlgo::duality_strided);
  auto before = reg.stats();
  core::ConvLayer second(p);
  auto after = reg.stats();
  core::ConvLayerTestPeer::Kernels k;
  core::ConvLayerTestPeer::collect(second, k);
  EXPECT_GT(k.bwd_strided, 0);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits - before.hits, k.backends.size());

  // QConvLayer reads 16-lane fp32 tensors whatever the host's fp32 ISA.
  core::ConvOptions o;
  o.isa = platform::Isa::scalar;
  const core::ConvLayer tensors(p, o);
  const auto qin = quant::quantize_act(tensors.make_input());
  const auto qwt = quant::quantize_wt(tensors.make_weights());
  auto out = tensors.make_output();
  quant::QConvLayer(p, 1).forward(qin, qwt, out);
  before = reg.stats();
  quant::QConvLayer(p, 1).forward(qin, qwt, out);
  after = reg.stats();
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses, before.misses);
}
