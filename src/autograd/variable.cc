#include "autograd/variable.h"

#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/profiler.h"

namespace urcl {
namespace autograd {

namespace internal {

std::string DescribeStaleCapture(const Node& node, size_t parent_index) {
  const ParentEdge& edge = node.parents[parent_index];
  const Tensor& value = edge.node->value;
  std::ostringstream out;
  if (value.version_counter().get() != edge.counter.get()) {
    out << "op '" << node.op_name << "' parent " << parent_index << " (op '"
        << edge.node->op_name
        << "'): captured value storage was replaced (SetValue) after record";
    return out.str();
  }
  if (value.version() != edge.version) {
    out << "op '" << node.op_name << "' parent " << parent_index << " (op '"
        << edge.node->op_name << "'): captured value was mutated in place after record "
        << "(version " << edge.version << " at record, " << value.version() << " now)";
    return out.str();
  }
  return {};
}

void VerifyCapturedVersions(const Node& node) {
  for (size_t i = 0; i < node.parents.size(); ++i) {
    const std::string issue = DescribeStaleCapture(node, i);
    URCL_CHECK(issue.empty()) << "[urcl.check/version] " << issue;
  }
}

}  // namespace internal

Variable::Variable(Tensor value, bool requires_grad)
    : node_(std::make_shared<internal::Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::MakeOp(Tensor value, std::string op_name,
                          const std::vector<Variable>& parents,
                          std::function<void(const Tensor&)> backward_fn) {
  bool needs_grad = false;
  for (const Variable& p : parents) {
    URCL_CHECK(p.IsValid()) << "op " << op_name << " received an empty Variable";
    needs_grad = needs_grad || p.requires_grad();
  }
  if (obs::ProfilerEnabled()) {
    // Close the innermost URCL_PROFILE_OP interval: the elapsed time covers
    // the op function body that computed `value`. Delegating ops (whose
    // MakeOp runs in the inner op) attribute to the inner op's name.
    const int64_t ns = obs::internal::PopForwardStart();
    if (ns >= 0) {
      obs::internal::RecordForward(
          op_name, ns, static_cast<uint64_t>(value.NumElements()) * sizeof(float));
    }
  }
  Variable out(std::move(value), needs_grad);
  out.node_->op_name = std::move(op_name);
  if (needs_grad) {
    out.node_->parents.reserve(parents.size());
    for (const Variable& p : parents) {
      // Stamp each captured operand with its current write-version so the
      // integrity checks can prove it was not mutated before Backward reads
      // it again. Recording is unconditional (two words per edge); only the
      // verification is gated.
      const Tensor& v = p.node_->value;
      out.node_->parents.push_back(
          internal::ParentEdge{p.node_, v.version_counter(), v.version()});
    }
    out.node_->backward_fn = std::move(backward_fn);
  }
  return out;
}

const Tensor& Variable::value() const {
  URCL_CHECK(IsValid());
  return node_->value;
}

bool Variable::requires_grad() const {
  URCL_CHECK(IsValid());
  return node_->requires_grad;
}

Tensor Variable::grad() const {
  URCL_CHECK(IsValid());
  if (!node_->has_grad) return Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

void Variable::AccumulateGrad(const Tensor& delta) const {
  URCL_CHECK(IsValid());
  if (!node_->requires_grad) return;
  URCL_CHECK(delta.shape() == node_->value.shape())
      << "gradient shape " << delta.shape().ToString() << " does not match value shape "
      << node_->value.shape().ToString() << " at op " << node_->op_name;
  if (!node_->has_grad) {
    node_->grad = delta.Clone();
    node_->has_grad = true;
  } else {
    node_->grad.AddInPlace(delta);
  }
}

void Variable::ZeroGrad() const {
  URCL_CHECK(IsValid());
  node_->has_grad = false;
  node_->grad = Tensor();
}

void Variable::SetValue(const Tensor& value) const {
  URCL_CHECK(IsValid());
  URCL_CHECK(value.shape() == node_->value.shape())
      << "SetValue shape mismatch: " << value.shape().ToString() << " vs "
      << node_->value.shape().ToString();
  node_->value = value.Clone();
}

const std::string& Variable::op_name() const {
  URCL_CHECK(IsValid());
  return node_->op_name;
}

void Variable::Backward() {
  URCL_CHECK(IsValid());
  URCL_CHECK_EQ(node_->value.NumElements(), 1)
      << "Backward() without a seed requires a scalar output";
  BackwardWithSeed(Tensor::Full(node_->value.shape(), 1.0f));
}

void Variable::BackwardWithSeed(const Tensor& seed) {
  URCL_CHECK(IsValid());
  URCL_CHECK(requires_grad()) << "Backward on a node that does not require grad";

  // Iterative post-order DFS to get a topological order (parents before
  // children in `order`; we then walk it from the back).
  std::vector<internal::Node*> order;
  std::unordered_set<internal::Node*> visited;
  struct Frame {
    internal::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(node_.get()).second) stack.push_back({node_.get(), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::Node* parent = frame.node->parents[frame.next_parent++].node.get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  if (check::GraphChecksEnabled()) {
    // Verify every captured operand is byte-for-byte what the forward pass
    // recorded before any backward closure re-reads it (URCL_CHECK env gate;
    // see autograd/lint.h for the full static pass).
    for (const internal::Node* node : order) VerifyCapturedVersions(*node);
  }

  AccumulateGrad(seed);
  const bool profiled = obs::ProfilerEnabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    if (!node->backward_fn || !node->has_grad) continue;
    if (profiled) {
      const int64_t start_ticks = obs::internal::ProfileTicksNow();
      node->backward_fn(node->grad);
      obs::internal::RecordBackward(
          node->op_name,
          obs::internal::TicksToNs(obs::internal::ProfileTicksNow() - start_ticks),
          static_cast<uint64_t>(node->grad.NumElements()) * sizeof(float));
    } else {
      node->backward_fn(node->grad);
    }
  }
}

}  // namespace autograd
}  // namespace urcl
