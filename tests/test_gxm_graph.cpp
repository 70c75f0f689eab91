// The Figure 3 graph pipeline: Split insertion (ENL), wiring (ENG), task
// creation + binning (PETG/UETG) and the final ETG schedules.
#include <gtest/gtest.h>

#include <cmath>

#include "gxm/graph.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using gxm::Graph;
using gxm::GraphOptions;
using gxm::Pass;

namespace {
GraphOptions quick_opts() {
  GraphOptions o;
  o.threads = 1;
  return o;
}
const char* kDiamond = R"(
layer { name: "data" type: "Input" top: "data" minibatch: 2 channels: 16 height: 8 width: 8 classes: 4 }
layer { name: "c1" type: "Convolution" bottom: "data" top: "c1" K: 16 R: 3 }
layer { name: "c2a" type: "Convolution" bottom: "c1" top: "c2a" K: 16 R: 1 pad: 0 }
layer { name: "c2b" type: "Convolution" bottom: "c1" top: "c2b" K: 16 R: 3 }
layer { name: "add" type: "Eltwise" bottom: "c2a" bottom: "c2b" top: "add" relu: 1 }
layer { name: "pool" type: "AvgPool" bottom: "add" top: "pool" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "pool" top: "fc" K: 4 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)";
}  // namespace

TEST(GraphBuild, NlExtenderInsertsSplitForMultiConsumer) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  EXPECT_EQ(g.splits_inserted(), 1);  // "c1" feeds c2a and c2b
  EXPECT_NE(g.find("c1_split"), nullptr);
  EXPECT_EQ(g.find("c1_split")->type(), "Split");
}

TEST(GraphBuild, NoSplitForLinearChains) {
  Graph g(gxm::parse_topology(topo::resnet_mini_topology(1, 32, 4)),
          quick_opts());
  // resnet-mini has 2 residual junctions (pool1 and res2a reused).
  EXPECT_EQ(g.splits_inserted(), 2);
}

TEST(GraphBuild, SchedulesCoverEveryNodeOnce) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  EXPECT_EQ(g.fwd_schedule().size(), g.n_nodes());
  EXPECT_EQ(g.bwd_schedule().size(), g.n_nodes());
  // UPD only for parameter owners: 3 convs + 1 fc.
  EXPECT_EQ(g.upd_schedule().size(), 4u);
}

TEST(GraphBuild, FwdScheduleRespectsDependencies) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  auto pos = [&](const std::string& name) {
    const auto& sched = g.fwd_schedule();
    for (std::size_t i = 0; i < sched.size(); ++i)
      if (sched[i].node->name() == name) return static_cast<int>(i);
    return -1;
  };
  EXPECT_LT(pos("data"), pos("c1"));
  EXPECT_LT(pos("c1"), pos("c1_split"));
  EXPECT_LT(pos("c1_split"), pos("c2a"));
  EXPECT_LT(pos("c1_split"), pos("c2b"));
  EXPECT_LT(pos("c2a"), pos("add"));
  EXPECT_LT(pos("c2b"), pos("add"));
  EXPECT_LT(pos("fc"), pos("loss"));
}

TEST(GraphBuild, BwdScheduleIsReversedByLevel) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  auto pos = [&](const std::string& name) {
    const auto& sched = g.bwd_schedule();
    for (std::size_t i = 0; i < sched.size(); ++i)
      if (sched[i].node->name() == name) return static_cast<int>(i);
    return -1;
  };
  EXPECT_LT(pos("loss"), pos("fc"));
  EXPECT_LT(pos("add"), pos("c2a"));
  EXPECT_LT(pos("c2a"), pos("c1_split"));
  EXPECT_LT(pos("c1_split"), pos("c1"));
}

TEST(GraphBuild, UnknownBottomFails) {
  EXPECT_THROW(
      Graph(gxm::parse_topology(
                R"(layer { name: "d" type: "Input" top: "d" }
                   layer { name: "c" type: "Convolution" bottom: "nope"
                           top: "c" K: 16 })"),
            quick_opts()),
      std::runtime_error);
}

TEST(GraphBuild, DuplicateTopFails) {
  EXPECT_THROW(
      Graph(gxm::parse_topology(
                R"(layer { name: "a" type: "Input" top: "x" }
                   layer { name: "b" type: "Input" top: "x" })"),
            quick_opts()),
      std::runtime_error);
}

TEST(GraphBuild, MissingInputFails) {
  EXPECT_THROW(Graph(gxm::parse_topology(
                         R"(layer { name: "c" type: "Split" bottom: "c"
                                    top: "d" })"),
                     quick_opts()),
               std::runtime_error);
}

TEST(GraphRun, GradExportImportRoundTrip) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  g.train_step({});
  const std::size_t n = g.grad_elems();
  ASSERT_GT(n, 0u);
  std::vector<float> a(n), b(n);
  for (gxm::Node* p : g.param_nodes()) g.export_node_grads(p, a.data());
  for (gxm::Node* p : g.param_nodes()) g.import_node_grads(p, a.data());
  for (gxm::Node* p : g.param_nodes()) g.export_node_grads(p, b.data());
  EXPECT_EQ(a, b);
}

TEST(GraphRun, ParamNodesAreConvAndFc) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  const auto nodes = g.param_nodes();
  ASSERT_EQ(nodes.size(), 4u);
  for (auto* n : nodes)
    EXPECT_TRUE(n->type() == "Convolution" || n->type() == "InnerProduct");
}

TEST(GraphRun, HaloConflictResolvedAcrossConsumers) {
  // c1 produces a tensor needed with halo 2 by its own backward (R=3, pad=1)
  // and halo 1 by consumer c2b (pad 1) — the port must satisfy both and the
  // forward/backward numerics must survive the raised halo.
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  g.train_step({});
  EXPECT_TRUE(std::isfinite(g.loss()));
  EXPECT_GT(g.loss(), 0.0f);
}
