// ConvNode's backward-form weights: apply_update writes them fused with the
// SGD step, mutable_weights() marks them stale, and backward() never runs
// on weights that differ from tensor::blocked_fwd_to_bwd(weights()).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gxm/graph.hpp"
#include "tensor/transform.hpp"

using namespace xconv;
using gxm::Graph;
using gxm::GraphOptions;
using gxm::Solver;

namespace {
// One conv per backward algorithm: 3x3 stride 1 (duality), 1x1 stride 2
// (scattered duality), 3x3 stride 2 (GEMM fallback); odd channel counts.
// A BatchNorm sits between the data and c1, so c1's dI has a reader.
const char* kNet = R"(
layer { name: "data" type: "Input" top: "data" minibatch: 2 channels: 16 height: 12 width: 12 classes: 3 }
layer { name: "data_bn" type: "BatchNorm" bottom: "data" top: "data_bn" }
layer { name: "c1" type: "Convolution" bottom: "data_bn" top: "c1" K: 24 R: 3 stride: 1 pad: 1 }
layer { name: "c1_bn" type: "BatchNorm" bottom: "c1" top: "c1_bn" relu: 1 }
layer { name: "c2" type: "Convolution" bottom: "c1_bn" top: "c2" K: 19 R: 1 stride: 2 pad: 0 }
layer { name: "c3" type: "Convolution" bottom: "c2" top: "c3" K: 16 R: 3 stride: 2 pad: 1 }
layer { name: "gap" type: "AvgPool" bottom: "c3" top: "gap" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "gap" top: "fc" K: 3 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)";

GraphOptions opts(int threads) {
  GraphOptions o;
  o.threads = threads;
  o.seed = 3;
  return o;
}

Solver solver() {
  Solver s;
  s.lr = 0.05f;
  s.momentum = 0.9f;
  s.weight_decay = 1e-3f;
  return s;
}

std::vector<gxm::ConvNode*> convs(Graph& g) {
  std::vector<gxm::ConvNode*> out;
  for (const char* name : {"c1", "c2", "c3"}) {
    auto* c = dynamic_cast<gxm::ConvNode*>(g.find(name));
    EXPECT_NE(c, nullptr) << name;
    if (c != nullptr) out.push_back(c);
  }
  return out;
}

void expect_bitwise(const tensor::WtTensor& a, const tensor::WtTensor& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

/// tensor::blocked_fwd_to_bwd of the node's current forward weights.
tensor::WtTensor fresh_bwd(const gxm::ConvNode& c) {
  const tensor::WtTensor& w = c.weights();
  tensor::WtTensor b(w.inner(), w.outer(), w.r(), w.s(), w.vlen());
  tensor::blocked_fwd_to_bwd(w, b);
  return b;
}
}  // namespace

TEST(BwdWeights, FusedUpdateMatchesFreshTransform) {
  for (int threads : {1, 4}) {
    Graph g(gxm::parse_topology(kNet), opts(threads));
    for (int step = 0; step < 2; ++step) {
      g.train_step(solver());
      for (gxm::ConvNode* c : convs(g))
        expect_bitwise(c->bwd_weights(), fresh_bwd(*c),
                       c->name() + " threads " + std::to_string(threads));
    }
  }
}

TEST(BwdWeights, FusedUpdateIsTheSerialSgdStep) {
  // w and the momentum buffer follow exactly the serial element-wise SGD
  // expression, whatever the block partition across threads.
  Graph g(gxm::parse_topology(kNet), opts(4));
  const Solver s = solver();
  auto nodes = convs(g);
  std::vector<std::vector<float>> vel(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    vel[i].assign(nodes[i]->param_count(), 0.0f);
  for (int step = 0; step < 3; ++step) {
    g.forward(true);
    g.backward_compute_grads();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::size_t n = nodes[i]->param_count();
      std::vector<float> w(nodes[i]->weights().data(),
                           nodes[i]->weights().data() + n);
      std::vector<float> grad(n);
      nodes[i]->export_grads(grad.data());
      for (std::size_t e = 0; e < n; ++e) {
        const float gr = grad[e] + s.weight_decay * w[e];
        vel[i][e] = s.momentum * vel[i][e] - s.lr * gr;
        w[e] += vel[i][e];
      }
      nodes[i]->apply_update(s);
      ASSERT_EQ(std::memcmp(w.data(), nodes[i]->weights().data(),
                            n * sizeof(float)),
                0)
          << nodes[i]->name() << " step " << step;
    }
    // The other parameter nodes (BN, FC) take their usual step.
    for (gxm::Node* n : g.param_nodes())
      if (dynamic_cast<gxm::ConvNode*>(n) == nullptr) n->apply_update(s);
  }
}

TEST(BwdWeights, MutableWeightsForceFreshTransform) {
  Graph g(gxm::parse_topology(kNet), opts(2));
  g.train_step(solver());
  for (gxm::ConvNode* c : convs(g)) {
    tensor::WtTensor& w = c->mutable_weights();
    for (std::size_t i = 0; i < w.size(); i += 7) w.data()[i] *= -1.5f;
  }
  g.forward(true);
  for (const gxm::Task& t : g.bwd_schedule()) {
    auto* c = dynamic_cast<gxm::ConvNode*>(t.node);
    if (c == nullptr) {
      t.node->backward();
      continue;
    }
    // The node's backward must equal the layer's own transform-then-run
    // path on the edited weights, bit for bit.
    tensor::ActTensor want = c->bottoms[0]->grad;
    c->layer()->backward(c->tops[0]->grad, c->weights(), want);
    c->backward();
    expect_bitwise(c->bwd_weights(), fresh_bwd(*c), c->name());
    const tensor::ActTensor& got = c->bottoms[0]->grad;
    EXPECT_EQ(std::memcmp(want.data(), got.data(), got.size() * sizeof(float)),
              0)
        << c->name();
  }
}

TEST(BwdWeights, DataFedConvHasNoBottomGradient) {
  // conv1-like: C = 3 straight from the Input node. Nothing reads its dI, so
  // the port carries no gradient and ConvNode::backward does nothing; its
  // weight gradient (the UPD pass) still runs.
  const char* net = R"(
layer { name: "data" type: "Input" top: "data" minibatch: 2 channels: 3 height: 13 width: 13 classes: 3 }
layer { name: "conv1" type: "Convolution" bottom: "data" top: "conv1" K: 16 R: 7 stride: 2 pad: 3 }
layer { name: "gap" type: "AvgPool" bottom: "conv1" top: "gap" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "gap" top: "fc" K: 3 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)";
  auto run = [&] {
    Graph g(gxm::parse_topology(net), opts(2));
    auto* c = dynamic_cast<gxm::ConvNode*>(g.find("conv1"));
    EXPECT_NE(c, nullptr);
    if (c == nullptr) return std::vector<float>{};
    EXPECT_FALSE(c->bottoms[0]->needs_grad);
    EXPECT_EQ(c->bottoms[0]->grad.size(), 0u);
    EXPECT_TRUE(c->tops[0]->needs_grad);
    std::vector<float> w0(c->weights().data(),
                          c->weights().data() + c->weights().size());
    std::vector<float> trace;
    for (int step = 0; step < 3; ++step) {
      g.train_step(solver());
      trace.push_back(g.loss());
    }
    // The update pass still moved the data-fed layer's weights.
    EXPECT_NE(std::memcmp(w0.data(), c->weights().data(),
                          w0.size() * sizeof(float)),
              0);
    trace.insert(trace.end(), c->weights().data(),
                 c->weights().data() + c->weights().size());
    return trace;
  };
  const std::vector<float> a = run(), b = run();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(BwdWeights, LossTrajectoryMatchesRetransformEveryStep) {
  auto run = [](bool retransform) {
    Graph g(gxm::parse_topology(kNet), opts(4));
    std::vector<float> losses;
    for (int step = 0; step < 5; ++step) {
      // mutable_weights() changes nothing but the staleness flag, forcing
      // backward() to re-derive the form the fused update already wrote.
      if (retransform)
        for (gxm::ConvNode* c : convs(g)) c->mutable_weights();
      g.train_step(solver());
      losses.push_back(g.loss());
    }
    return losses;
  };
  const std::vector<float> fused = run(false), fresh = run(true);
  ASSERT_EQ(fused.size(), fresh.size());
  EXPECT_EQ(std::memcmp(fused.data(), fresh.data(),
                        fused.size() * sizeof(float)),
            0);
}
