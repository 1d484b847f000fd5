#include "autograd/variable.h"

#include <sstream>
#include <unordered_set>

#include "autograd/record.h"
#include "common/check.h"

namespace urcl {
namespace autograd {

namespace internal {

const char* NodeName(const Node& node) {
  return node.kind ? record::OpName(*node.kind) : "leaf";
}

std::string DescribeStaleCapture(const Node& node, size_t parent_index) {
  const ParentEdge& edge = node.parents[parent_index];
  const Tensor& value = edge.node->value;
  std::ostringstream out;
  if (value.version_counter().get() != edge.counter.get()) {
    out << "op '" << NodeName(node) << "' parent " << parent_index << " (op '"
        << NodeName(*edge.node)
        << "'): captured value storage was replaced (SetValue) after record";
    return out.str();
  }
  if (value.version() != edge.version) {
    out << "op '" << NodeName(node) << "' parent " << parent_index << " (op '"
        << NodeName(*edge.node) << "'): captured value was mutated in place after record "
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

std::vector<Node*> BackwardOrder(Node* root) {
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  visited.insert(root);
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].node.get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  return order;
}

namespace {

// Adds `delta` into `node`'s gradient (no-op unless it requires grad).
void AccumulateInto(Node& node, const Tensor& delta) {
  if (!node.requires_grad) return;
  URCL_CHECK(delta.shape() == node.value.shape())
      << "gradient shape " << delta.shape().ToString() << " does not match value shape "
      << node.value.shape().ToString() << " at op " << NodeName(node);
  if (!node.has_grad) {
    node.grad = delta.Clone();
    node.has_grad = true;
  } else {
    node.grad.AddInPlace(delta);
  }
}

// A recorded node as its op's backward operands: the parents' values and
// gradients, and the node's own value as the op's output.
class NodeOperands final : public record::OpOperands {
 public:
  explicit NodeOperands(const Node& node) : node_(node) {}

  size_t size() const override { return node_.parents.size(); }
  const Shape& shape(size_t i) const override { return input(i).value.shape(); }
  const Tensor& value(size_t i) const override { return input(i).value; }
  const Tensor& output() const override { return node_.value; }
  bool needs_grad(size_t i) const override { return input(i).requires_grad; }
  void Accumulate(size_t i, const Tensor& delta) override { AccumulateInto(input(i), delta); }

 private:
  Node& input(size_t i) const { return *node_.parents[i].node; }

  const Node& node_;
};

}  // namespace
}  // namespace internal

Variable::Variable(Tensor value, bool requires_grad)
    : node_(std::make_shared<internal::Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::MakeOp(Tensor value, record::OpKind kind,
                          const std::vector<Variable>& parents, const record::OpAttrs& attrs) {
  bool needs_grad = false;
  for (const Variable& p : parents) {
    URCL_CHECK(p.IsValid()) << "op " << record::OpName(kind) << " received an empty Variable";
    needs_grad = needs_grad || p.requires_grad();
  }
  Variable out(std::move(value), needs_grad);
  out.node_->kind = kind;
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
    out.node_->attrs = attrs;
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
  internal::AccumulateInto(*node_, delta);
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

const char* Variable::op_name() const {
  URCL_CHECK(IsValid());
  return internal::NodeName(*node_);
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

  const std::vector<internal::Node*> order = internal::BackwardOrder(node_.get());
  if (check::GraphChecksEnabled()) {
    // Verify every captured operand is byte-for-byte what the forward pass
    // recorded before any op gradient re-reads it (URCL_CHECK env gate;
    // see autograd/lint.h for the full static pass).
    for (const internal::Node* node : order) VerifyCapturedVersions(*node);
  }

  AccumulateGrad(seed);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    // Leaves, and ops recorded without gradients, have no inputs to feed.
    if (!node->kind || node->parents.empty() || !node->has_grad) continue;
    internal::NodeOperands operands(*node);
    record::OpBackward(*node->kind, node->attrs, node->grad, operands);
  }
}

}  // namespace autograd
}  // namespace urcl
