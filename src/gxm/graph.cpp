#include "gxm/graph.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "platform/cpu.hpp"

namespace xconv::gxm {

Graph::Graph(const std::vector<NodeSpec>& nl_in, const GraphOptions& opt)
    : opt_(opt) {
  vlen_ = opt_.vlen > 0 ? opt_.vlen
                        : platform::vlen_fp32(platform::effective_isa());
  if (vlen_ == 1) vlen_ = 16;
  threads_ = opt_.threads > 0 ? opt_.threads : omp_get_max_threads();

  std::vector<NodeSpec> nl = nl_in;  // NL
  extend_nl(nl);                     // ENL
  build_eng(nl);                     // ENG (+ shape inference + allocation)
  build_etg();                       // PETG -> UETG -> ETG
}

// NL Extender: count consumers per top; where a top feeds k > 1 bottoms,
// insert a Split node producing k distinct tops and rewrite the consumers.
void Graph::extend_nl(std::vector<NodeSpec>& nl) {
  std::map<std::string, int> consumers;
  for (const NodeSpec& s : nl)
    for (const std::string& b : s.bottoms) ++consumers[b];

  std::vector<NodeSpec> out;
  std::map<std::string, int> branch_next;  // per split tensor: next branch id
  for (NodeSpec s : nl) {
    // Rewrite multi-consumer bottoms to split branches.
    for (std::string& b : s.bottoms) {
      if (consumers[b] > 1) {
        const int idx = branch_next[b]++;
        b = b + "_split" + std::to_string(idx);
      }
    }
    out.push_back(std::move(s));
  }
  // Emit the Split nodes right after their producers.
  std::vector<NodeSpec> final_nl;
  for (const NodeSpec& s : out) {
    final_nl.push_back(s);
    for (const std::string& t : s.tops) {
      auto it = consumers.find(t);
      if (it != consumers.end() && it->second > 1) {
        NodeSpec split;
        split.name = t + "_split";
        split.type = "Split";
        split.bottoms = {t};
        for (int i = 0; i < it->second; ++i)
          split.tops.push_back(t + "_split" + std::to_string(i));
        final_nl.push_back(std::move(split));
        ++splits_inserted_;
      }
    }
  }
  nl = std::move(final_nl);
}

void Graph::build_eng(const std::vector<NodeSpec>& enl) {
  // Instantiate nodes and ports; wire producers/consumers.
  for (const NodeSpec& s : enl) {
    nodes_.push_back(make_node(s));
    Node* n = nodes_.back().get();
    for (const std::string& t : s.tops) {
      if (ports_.count(t))
        throw std::runtime_error("gxm: top '" + t + "' produced twice");
      auto port = std::make_unique<Port>();
      port->name = t;
      port->producer = n;
      n->tops.push_back(port.get());
      ports_.emplace(t, std::move(port));
    }
  }
  for (auto& up : nodes_) {
    Node* n = up.get();
    for (const std::string& b : n->spec().bottoms) {
      auto it = ports_.find(b);
      if (it == ports_.end())
        throw std::runtime_error("gxm: node '" + n->name() +
                                 "' consumes unknown tensor '" + b + "'");
      if (it->second->consumer != nullptr)
        throw std::runtime_error(
            "gxm: tensor '" + b +
            "' has two consumers after ENL (internal error)");
      it->second->consumer = n;
      n->bottoms.push_back(it->second.get());
    }
    if (auto* in = as_input(n)) input_ = in;
    if (auto* lo = as_loss(n)) loss_ = lo;
  }
  if (input_ == nullptr) throw std::runtime_error("gxm: no Input node");

  // Shape inference in NL order (topologically valid for parser output),
  // then allocation. infer_shapes also raises halo requirements on ports.
  for (auto& up : nodes_) up->infer_shapes();

  // Ports that must share one halo: a paired conv's top and its BatchNorm's
  // top (one recorded forward stream writes either buffer), and a Split's
  // bottom and tops (the tops alias the bottom's storage).
  std::vector<std::pair<Port*, Port*>> same_halo;
  for (auto& up : nodes_) {
    if (auto* bn = dynamic_cast<BatchNormNode*>(up.get())) {
      auto* conv = dynamic_cast<ConvNode*>(bn->bottoms[0]->producer);
      if (conv != nullptr && conv->fold_batchnorm(bn))
        same_halo.emplace_back(conv->tops[0], bn->tops[0]);
    } else if (dynamic_cast<SplitNode*>(up.get()) != nullptr) {
      for (Port* t : up->tops) same_halo.emplace_back(up->bottoms[0], t);
    }
  }
  // Raise each pair to the larger halo until nothing changes: conv -> BN ->
  // Split chains link the two kinds.
  for (bool changed = true; changed;) {
    changed = false;
    for (auto [a, b] : same_halo) {
      const int h = std::max(a->shape.pad_h, b->shape.pad_h);
      const int w = std::max(a->shape.pad_w, b->shape.pad_w);
      if (a->shape.pad_h != h || b->shape.pad_h != h ||
          a->shape.pad_w != w || b->shape.pad_w != w)
        changed = true;
      a->shape.pad_h = b->shape.pad_h = h;
      a->shape.pad_w = b->shape.pad_w = w;
    }
  }

  for (auto& [name, port] : ports_) {
    port->needs_grad = !(as_input(port->producer) != nullptr &&
                         dynamic_cast<ConvNode*>(port->consumer) != nullptr);
    // Split tops get a view of their bottom in SplitNode::setup.
    port->allocate(vlen_,
                   dynamic_cast<SplitNode*>(port->producer) == nullptr);
  }
  for (auto& up : nodes_) up->setup(vlen_, threads_);
  if (loss_ != nullptr) loss_->set_labels(&input_->labels());
  input_->set_seed(opt_.seed);
}

void Graph::build_etg() {
  // PETG: task per (node, pass) with topological levels. Forward levels come
  // from producer depth; backward levels mirror them.
  std::map<Node*, int> level;
  int max_level = 0;
  for (auto& up : nodes_) {
    Node* n = up.get();
    int lv = 0;
    for (Port* b : n->bottoms)
      lv = std::max(lv, level.count(b->producer) ? level[b->producer] + 1 : 1);
    level[n] = lv;
    max_level = std::max(max_level, lv);
  }

  std::vector<Task> petg;
  for (auto& up : nodes_) {
    Node* n = up.get();
    petg.push_back({n, Pass::FWD, level[n]});
    petg.push_back({n, Pass::BWD, max_level - level[n]});
    if (n->param_count() > 0)
      petg.push_back({n, Pass::UPD, max_level - level[n]});
  }

  // UETG: bin by (pass, level) — a stable sort keeps NL order within a bin.
  std::stable_sort(petg.begin(), petg.end(), [](const Task& a, const Task& b) {
    if (a.pass != b.pass) return static_cast<int>(a.pass) < static_cast<int>(b.pass);
    return a.level < b.level;
  });

  // ETG: deduplicate (defensive; the PETG construction above cannot emit
  // duplicates, but task binning in general can) and split per pass.
  std::vector<Task> etg;
  for (const Task& t : petg) {
    const bool dup = std::any_of(etg.begin(), etg.end(), [&](const Task& e) {
      return e.node == t.node && e.pass == t.pass;
    });
    if (!dup) etg.push_back(t);
  }
  for (const Task& t : etg) {
    if (t.pass == Pass::FWD) fwd_tasks_.push_back(t);
    if (t.pass == Pass::BWD) bwd_tasks_.push_back(t);
    if (t.pass == Pass::UPD) upd_tasks_.push_back(t);
  }

  // Flat gradient-vector offsets (network-list order, matching export_params)
  // and the parameter segments in backward completion order — the contract
  // the overlapped allreduce buckets are built on.
  std::size_t off = 0;
  for (auto& up : nodes_) {
    if (up->param_count() == 0) continue;
    grad_offsets_.emplace(up.get(), off);
    off += up->param_count();
  }
  for (const Task& t : bwd_tasks_)
    if (t.node->param_count() > 0)
      bwd_param_segs_.push_back(
          {t.node, grad_offsets_.at(t.node), t.node->param_count()});
}

void Graph::forward(bool training) {
  for (const Task& t : fwd_tasks_) t.node->forward(training);
}

void Graph::backward_update(const Solver& solver) {
  backward_compute_grads();
  apply_updates(solver);
}

void Graph::backward_compute_grads(
    const std::function<void(Node*)>& on_grads_ready) {
  // A node's UPD shares its BWD's dependencies (see build_etg), so dW can be
  // computed immediately after the node's own backward: dout was written by
  // the consumer's earlier backward and backward() only writes bottom grads.
  for (const Task& t : bwd_tasks_) {
    t.node->backward();
    if (t.node->param_count() > 0) {
      t.node->compute_grads();
      if (on_grads_ready) on_grads_ready(t.node);
    }
  }
}

void Graph::apply_updates(const Solver& solver) {
  for (const Task& t : upd_tasks_) t.node->apply_update(solver);
}

void Graph::train_step(const Solver& solver) {
  forward(true);
  backward_update(solver);
}

float Graph::loss() const { return loss_ != nullptr ? loss_->loss() : 0.0f; }
float Graph::top1_accuracy() const {
  return loss_ != nullptr ? loss_->top1_accuracy() : 0.0f;
}

Node* Graph::find(const std::string& name) {
  for (auto& up : nodes_)
    if (up->name() == name) return up.get();
  return nullptr;
}

std::size_t Graph::grad_elems() const {
  std::size_t total = 0;
  for (const auto& up : nodes_) total += up->param_count();
  return total;
}

void Graph::export_params(float* buf) const {
  std::size_t off = 0;
  for (const auto& up : nodes_) {
    if (up->param_count() == 0) continue;
    up->export_params(buf + off);
    off += up->param_count();
  }
}

void Graph::export_node_grads(const Node* n, float* flat) const {
  n->export_grads(flat + grad_offsets_.at(n));
}

void Graph::import_node_grads(Node* n, const float* flat) {
  n->import_grads(flat + grad_offsets_.at(n));
}

void Graph::apply_node_update(Node* n, const Solver& solver) {
  n->apply_update(solver);
}

std::vector<Node*> Graph::param_nodes() const {
  std::vector<Node*> out;
  for (const auto& up : nodes_)
    if (up->param_count() > 0) out.push_back(up.get());
  return out;
}

}  // namespace xconv::gxm
