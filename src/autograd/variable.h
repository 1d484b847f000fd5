// Tape-free reverse-mode automatic differentiation. A Variable is a cheap
// shared handle to a graph node holding a value, an accumulated gradient and
// the record of the op that produced it: its kind and, when gradients flow,
// its attributes and parent edges. Calling Backward() on a scalar root
// topologically sorts the reachable graph and runs each node's op gradient
// (record::OpBackward) over that record.
#ifndef URCL_AUTOGRAD_VARIABLE_H_
#define URCL_AUTOGRAD_VARIABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/op_kind.h"
#include "tensor/tensor.h"

namespace urcl {
namespace autograd {

class Variable;

namespace internal {

struct Node;

// Parent link plus the write-version stamp of the parent's value at op-record
// time. The op's gradient will read the parent's value again at Backward()
// time; the integrity checks (lint.h, and Backward itself when
// check::GraphChecksEnabled()) compare these stamps against the live tensor
// to catch in-place mutation — or wholesale replacement via SetValue — of a
// captured operand. Holding the counter shared_ptr pins the captured storage
// generation so a recycled counter address can never alias a fresh one.
struct ParentEdge {
  std::shared_ptr<Node> node;
  std::shared_ptr<const std::atomic<uint64_t>> counter;
  uint64_t version = 0;
};

// One value in the graph and the record of the op that produced it.
struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily on first accumulation
  bool has_grad = false;
  bool requires_grad = false;
  // The producing op; empty for a leaf.
  std::optional<record::OpKind> kind;
  // Recorded only when gradients flow through the op (some parent requires
  // grad): its inputs in order, and its attributes. Backward hands both, with
  // `value` as the op's output, to record::OpBackward.
  std::vector<ParentEdge> parents;
  record::OpAttrs attrs;
};

// The node's op name (record::OpName), or "leaf".
const char* NodeName(const Node& node);

// Empty string when parent `parent_index` of `node` is still exactly as
// captured; otherwise a human-readable description of how it went stale
// (in-place mutation vs storage replacement). Shared by Backward's gated
// verification and the LintGraph pass.
std::string DescribeStaleCapture(const Node& node, size_t parent_index);

// Aborts with a named [urcl.check/version] diagnostic on the first stale
// captured operand of `node`.
void VerifyCapturedVersions(const Node& node);

// The backward schedule: `root` and every node reachable from it through
// parents that require grad, in iterative DFS post-order (each node after
// its parents, parents visited in recorded order). Backward runs op
// gradients walking it from the back; the compiled plan maps the same list
// onto its slots, so both executors accumulate gradients in one order.
std::vector<Node*> BackwardOrder(Node* root);

}  // namespace internal

// Value-semantics handle; copying shares the underlying node.
class Variable {
 public:
  // Empty handle (no node). Most APIs check validity.
  Variable() = default;

  // Leaf node wrapping `value`. Set requires_grad for trainable parameters.
  explicit Variable(Tensor value, bool requires_grad = false);

  // Interior node: `value` computed by op `kind` from `parents` with
  // `attrs`. The node keeps the parents and attributes only when some parent
  // requires grad and the op passes gradients on (record::OpStopsGradient).
  static Variable MakeOp(Tensor value, record::OpKind kind, const std::vector<Variable>& parents,
                         const record::OpAttrs& attrs);

  bool IsValid() const { return node_ != nullptr; }

  const Tensor& value() const;
  const Shape& shape() const { return value().shape(); }
  bool requires_grad() const;

  // Gradient accumulated by the last Backward(); zero tensor if none reached.
  Tensor grad() const;

  // Adds `delta` into this node's gradient buffer (no-op if !requires_grad).
  // Const because a Variable is a handle: it mutates the shared node.
  void AccumulateGrad(const Tensor& delta) const;

  // Clears this node's gradient buffer.
  void ZeroGrad() const;

  // Replaces the wrapped value in place (for optimizer updates on leaves).
  void SetValue(const Tensor& value) const;

  // Runs reverse-mode accumulation from this node. If `seed` is omitted the
  // node must be scalar-shaped and is seeded with 1.
  void Backward();
  void BackwardWithSeed(const Tensor& seed);

  // Identity used to deduplicate nodes.
  const void* id() const { return node_.get(); }

  // Underlying graph node, for the analysis tooling (autograd/lint.h) and
  // white-box tests. Not part of the modeling API.
  const std::shared_ptr<internal::Node>& internal_node() const { return node_; }

  // record::OpName of the producing op, or "leaf".
  const char* op_name() const;

 private:
  std::shared_ptr<internal::Node> node_;
};

}  // namespace autograd
}  // namespace urcl

#endif  // URCL_AUTOGRAD_VARIABLE_H_
