// The GxM Execution Task Graph (paper Section II-L, Figure 3).
//
// Build pipeline, implemented stage by stage so each transformation is
// observable/testable:
//   NL    — Network List (parser output)
//   ENL   — Extended NL: Split nodes inserted wherever a top feeds more than
//           one bottom (tensor distribution fwd / gradient reduction bwd)
//   ENG   — Extended Node Graph: nodes wired through Ports
//   PETG  — Preliminary ETG: one task per (node, pass) with dependencies
//           (FWD after producers' FWD; BWD after consumers' BWD; UPD with
//           the same deps as the node's BWD)
//   UETG  — task binning: tasks ordered into pass bins by topological level
//   ETG   — duplicates eliminated; final executable schedules
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gxm/nodes.hpp"
#include "gxm/parser.hpp"

namespace xconv::gxm {

enum class Pass { FWD, BWD, UPD };

struct Task {
  Node* node = nullptr;
  Pass pass = Pass::FWD;
  int level = 0;  ///< topological level (binning key)
};

/// One parameter-owning node's slice of the flat gradient vector (the
/// export_params / export_node_grads layout, which follows network-list
/// order).
struct GradSegment {
  Node* node = nullptr;
  std::size_t offset = 0;  ///< into the flat gradient vector
  std::size_t elems = 0;   ///< node->param_count()
};

struct GraphOptions {
  int vlen = 0;     ///< 0 = derive from the effective ISA
  int threads = 0;  ///< 0 = omp_get_max_threads()
  unsigned seed = 1;
};

class Graph {
 public:
  Graph(const std::vector<NodeSpec>& nl, const GraphOptions& opt = {});

  /// One forward pass over the ETG's FWD schedule.
  void forward(bool training = true);
  /// Backward + weight-gradient passes over the BWD/UPD schedules, applying
  /// the solver update per parameter-owning node.
  void backward_update(const Solver& solver);
  /// Merged BWD+UPD walk: immediately after a node's backward() its
  /// compute_grads() runs, so the node's dW is final and
  /// `on_grads_ready(node)` (if set) fires — in reverse-topological
  /// (backward) order. The overlapped multi-node trainer posts allreduce
  /// buckets from this hook while deeper layers are still computing.
  void backward_compute_grads(
      const std::function<void(Node*)>& on_grads_ready = {});
  /// Optimizer step for every parameter-owning node (UPD schedule order).
  /// With `backward_compute_grads` this completes one training step; the
  /// multi-node trainer allreduces gradients between the two.
  void apply_updates(const Solver& solver);
  /// Forward + backward + update (one training iteration).
  void train_step(const Solver& solver);

  float loss() const;
  float top1_accuracy() const;
  InputNode* input() { return input_; }

  // Introspection (tests assert on the Figure 3 pipeline's behaviour).
  int splits_inserted() const { return splits_inserted_; }
  std::size_t n_nodes() const { return nodes_.size(); }
  const std::vector<Task>& fwd_schedule() const { return fwd_tasks_; }
  const std::vector<Task>& bwd_schedule() const { return bwd_tasks_; }
  const std::vector<Task>& upd_schedule() const { return upd_tasks_; }
  Node* find(const std::string& name);
  /// Total parameter gradient elements (for the MLSL allreduce buffer).
  std::size_t grad_elems() const;
  /// Serialize all parameters (same layout/offsets as the gradient vector).
  void export_params(float* buf) const;
  /// Nodes owning parameters, in schedule order.
  std::vector<Node*> param_nodes() const;
  /// Parameter segments in the order `backward_compute_grads` completes them
  /// (reverse-topological) — identical across replicas of one topology, the
  /// basis for the overlap trainer's bucket layout.
  const std::vector<GradSegment>& bwd_param_segments() const {
    return bwd_param_segs_;
  }
  /// Export a single node's gradients at its flat-vector offset.
  void export_node_grads(const Node* n, float* flat) const;
  /// Import a single node's slice of the (already-reduced) flat gradient
  /// vector — the per-bucket early-apply path of the overlapped trainer.
  void import_node_grads(Node* n, const float* flat);
  /// Optimizer step for a single parameter-owning node. Safe to run as soon
  /// as the node's own backward()/compute_grads() finished: an update only
  /// touches that node's weights, which nothing later in the same backward
  /// sweep reads.
  void apply_node_update(Node* n, const Solver& solver);

 private:
  void extend_nl(std::vector<NodeSpec>& nl);           // NL -> ENL
  void build_eng(const std::vector<NodeSpec>& enl);    // ENL -> ENG
  void build_etg();                                    // PETG -> UETG -> ETG

  GraphOptions opt_;
  int vlen_ = 16;
  int threads_ = 1;
  int splits_inserted_ = 0;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::string, std::unique_ptr<Port>> ports_;
  std::vector<Task> fwd_tasks_, bwd_tasks_, upd_tasks_;
  std::vector<GradSegment> bwd_param_segs_;
  std::map<const Node*, std::size_t> grad_offsets_;
  InputNode* input_ = nullptr;
  SoftmaxLossNode* loss_ = nullptr;
};

}  // namespace xconv::gxm
