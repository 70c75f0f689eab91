// GxM node types (paper Section II-L): each ETG node executes one of the
// three passes (FWD / BWD / UPD) of one layer when invoked.
//
// Dataflow convention: activations travel between nodes through named Ports
// (blocked ActTensors plus a same-shaped gradient tensor). After the NL
// Extender inserts Split nodes, every port has exactly one consumer, so a
// backward pass may *overwrite* its bottom ports' gradients — the property
// that lets Conv backward reuse the forward machinery unchanged.
//
// Each activation is written once. A Split's tops alias its bottom's
// activation (same storage, one halo); only their gradients are separate.
// In inference a convolution paired with the BatchNorm it feeds writes the
// BatchNorm's top through its batchnorm APPLY records and leaves its own
// top unwritten; in training both nodes run as two passes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/conv_layer.hpp"
#include "gxm/parser.hpp"
#include "tensor/layout.hpp"

namespace xconv::gxm {

/// Logical geometry of a port (blocked tensors derive from it + vlen).
struct PortShape {
  int n = 0, c = 0, h = 0, w = 0;
  int pad_h = 0, pad_w = 0;  ///< halo the *consumer* requires (set by wiring)
};

struct Port {
  std::string name;
  PortShape shape;
  tensor::ActTensor act;
  tensor::ActTensor grad;
  class Node* producer = nullptr;
  class Node* consumer = nullptr;
  /// False when no node reads this port's gradient: the data a convolution
  /// reads straight from the Input node (see ConvNode::backward). Such a
  /// port allocates no `grad`.
  bool needs_grad = true;

  /// Allocate the gradient (when needed) and, unless `own_act` is false,
  /// the activation; a Split top gets its activation from SplitNode::setup.
  void allocate(int vlen, bool own_act = true) {
    if (own_act)
      act = tensor::ActTensor(shape.n, shape.c, shape.h, shape.w,
                              shape.pad_h, shape.pad_w, vlen);
    if (needs_grad)
      grad = tensor::ActTensor(shape.n, shape.c, shape.h, shape.w,
                               shape.pad_h, shape.pad_w, vlen);
  }
};

/// SGD hyper-parameters handed to Node::update.
struct Solver {
  float lr = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
};

class Node {
 public:
  Node(const NodeSpec& spec) : spec_(spec) {}
  virtual ~Node() = default;

  const std::string& name() const { return spec_.name; }
  const std::string& type() const { return spec_.type; }
  const NodeSpec& spec() const { return spec_; }

  /// Derive top-port shapes from (already-shaped) bottom ports. Called in
  /// topological order before allocation.
  virtual void infer_shapes() = 0;
  /// Record the graph's vector length and thread count; overrides call this
  /// first, then allocate weights/scratch (ports exist by now).
  virtual void setup(int vlen, int threads) {
    vlen_ = vlen;
    threads_ = threads;
  }
  virtual void forward(bool training) = 0;
  virtual void backward() {}
  /// Weight-gradient computation (the UPD pass body). BatchNorm/FC compute
  /// their gradients during backward(); Conv runs Algorithm 9 here.
  virtual void compute_grads() {}
  /// Apply the optimizer step using the current (possibly allreduced)
  /// gradients.
  virtual void apply_update(const Solver&) {}
  /// Single-node convenience: compute + apply.
  void update(const Solver& s) {
    compute_grads();
    apply_update(s);
  }
  /// Parameter count (weights the node owns).
  virtual std::size_t param_count() const { return 0; }
  /// Serialize gradients into `buf` (for the MLSL allreduce) / read back.
  /// Gradient-ready contract: after the graph's merged backward walk ran
  /// this node's backward() + compute_grads(), the exported gradients are
  /// final for the iteration — the overlap trainer posts them into
  /// allreduce buckets at that point (Graph::backward_compute_grads hook).
  virtual void export_grads(float* /*buf*/) const {}
  virtual void import_grads(const float* /*buf*/) {}
  /// Serialize the parameters themselves (same `param_count()` layout as the
  /// gradients) — replica-sync checks and checkpointing read weights
  /// uniformly through this.
  virtual void export_params(float* /*buf*/) const {}

  std::vector<Port*> bottoms;
  std::vector<Port*> tops;

 protected:
  NodeSpec spec_;
  int vlen_ = 16;
  int threads_ = 1;
};

/// Factory used by the Graph builder.
std::unique_ptr<Node> make_node(const NodeSpec& spec);

// --- concrete node accessors the trainer/tests need -------------------------

class InputNode;
class SoftmaxLossNode;
class BatchNormNode;

/// Synthetic-batch control for InputNode (see data.hpp).
InputNode* as_input(Node*);
SoftmaxLossNode* as_loss(Node*);

class InputNode final : public Node {
 public:
  explicit InputNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void setup(int vlen, int threads) override;
  void forward(bool training) override;
  const std::vector<int>& labels() const { return labels_; }
  void set_seed(unsigned seed) { seed_ = seed; }
  int classes() const { return spec_.geti("classes", 10); }

 private:
  std::vector<int> labels_;
  unsigned seed_ = 1;
  long batch_counter_ = 0;
};

class ConvNode final : public Node {
 public:
  explicit ConvNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void setup(int vlen, int threads) override;
  void forward(bool training) override;
  void backward() override;
  void compute_grads() override;
  void apply_update(const Solver&) override;
  std::size_t param_count() const override { return wt_.size(); }
  void export_grads(float* buf) const override;
  void import_grads(const float* buf) override;
  void export_params(float* buf) const override;
  core::ConvLayer* layer() { return layer_.get(); }
  /// Pair this convolution with the BatchNorm that consumes its top (before
  /// setup): the layer is built with the batchnorm APPLY records, and an
  /// inference forward writes the BatchNorm's output into its top. Returns
  /// false, pairing nothing, when this node has an in-kernel ReLU.
  bool fold_batchnorm(BatchNormNode* bn);
  /// Forward-form master weights [Kb][Cb][R][S][c][k].
  const tensor::WtTensor& weights() const { return wt_; }
  /// Writable master weights. Marks the backward form stale, so the next
  /// backward() re-derives it from whatever the caller writes.
  tensor::WtTensor& mutable_weights() {
    bwd_stale_ = true;
    return wt_;
  }
  /// Backward-dual form [Cb][Kb][R][S][k][c] of weights(), as the last
  /// backward() used it (empty before the first backward or apply_update).
  const tensor::WtTensor& bwd_weights() const { return bwd_wt_; }

 private:
  tensor::WtTensor& bwd_form();  ///< bwd_wt_, allocated on first use
  /// The layer shape: the bottom port's shape and the spec's K, R, S,
  /// stride and pad.
  core::ConvParams conv_params() const;

  std::unique_ptr<core::ConvLayer> layer_;
  BatchNormNode* bn_ = nullptr;  ///< the folded BatchNorm, if paired
  tensor::WtTensor wt_, dwt_, vel_;
  /// The node owns the backward form: apply_update writes it fused with the
  /// SGD step, so backward() runs no transform in steady state.
  tensor::WtTensor bwd_wt_;
  bool bwd_stale_ = true;
};

class BatchNormNode final : public Node {
 public:
  explicit BatchNormNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void setup(int vlen, int threads) override;
  void forward(bool training) override;
  void backward() override;
  void apply_update(const Solver&) override;
  std::size_t param_count() const override { return gamma_.size() * 2; }
  void export_grads(float* buf) const override;
  void import_grads(const float* buf) override;
  void export_params(float* buf) const override;
  /// Running statistics the inference forward normalizes with (one entry per
  /// padded channel).
  const std::vector<float>& running_mean() const { return run_mean_; }
  const std::vector<float>& running_var() const { return run_var_; }
  bool relu() const { return spec_.geti("relu", 0) != 0; }
  /// Set by ConvNode::fold_batchnorm: the producing convolution applies
  /// this node in inference, so forward(false) does nothing.
  void set_folded() { folded_ = true; }
  /// Load the running statistics as the inference normalization (exactly
  /// what an unfolded forward(false) uses) and return them with gamma and
  /// beta as the batchnorm APPLY operands.
  core::FusionArgs inference_args();

 private:
  std::vector<float> gamma_, beta_, dgamma_, dbeta_, vg_, vb_;
  std::vector<float> mean_, invstd_;
  std::vector<float> run_mean_, run_var_;
  bool relu_ = false;
  bool folded_ = false;
};

class MaxPoolNode final : public Node {
 public:
  explicit MaxPoolNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void setup(int vlen, int threads) override;
  /// Records the argmax only when `training`.
  void forward(bool training) override;
  /// Throws std::logic_error unless the last forward was a training one.
  void backward() override;
  /// Flat input index (y * W + x, -1 for an empty window) per output
  /// element, in the output's blocked order; as of the last training
  /// forward.
  const std::vector<std::int32_t>& argmax() const { return argmax_; }

 private:
  int window_ = 2, stride_ = 2, pad_ = 0;
  std::vector<std::int32_t> argmax_;  ///< flat input index per output elem
  bool argmax_valid_ = false;         ///< last forward was a training one
};

class AvgPoolNode final : public Node {
 public:
  explicit AvgPoolNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void forward(bool training) override;
  void backward() override;
};

class InnerProductNode final : public Node {
 public:
  explicit InnerProductNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void setup(int vlen, int threads) override;
  void forward(bool training) override;
  void backward() override;
  void apply_update(const Solver&) override;
  std::size_t param_count() const override { return wt_.size() + bias_.size(); }
  void export_grads(float* buf) const override;
  void import_grads(const float* buf) override;
  void export_params(float* buf) const override;

 private:
  int in_c_ = 0, out_k_ = 0;
  std::vector<float> wt_, dwt_, vwt_;    ///< [K][C]
  std::vector<float> bias_, dbias_, vbias_;
};

class SoftmaxLossNode final : public Node {
 public:
  explicit SoftmaxLossNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void forward(bool training) override;
  void backward() override;
  float loss() const { return loss_; }
  float top1_accuracy() const { return top1_; }
  void set_labels(const std::vector<int>* labels) { labels_ = labels; }

 private:
  const std::vector<int>* labels_ = nullptr;
  std::vector<float> probs_;
  float loss_ = 0, top1_ = 0;
};

class EltwiseNode final : public Node {
 public:
  explicit EltwiseNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void forward(bool training) override;
  void backward() override;

 private:
  bool relu_ = false;
};

/// Split: tensor distribution forward, gradient reduction backward — the
/// node type the NL Extender inserts (paper Figure 3). Its tops view the
/// bottom's activation (the Graph gives them one halo), so the forward
/// copies nothing.
class SplitNode final : public Node {
 public:
  explicit SplitNode(const NodeSpec& s) : Node(s) {}
  void infer_shapes() override;
  void setup(int vlen, int threads) override;
  void forward(bool) override {}
  void backward() override;
};

}  // namespace xconv::gxm
