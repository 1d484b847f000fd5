#include "autograd/lint.h"

#include <sstream>
#include <unordered_map>

#include "autograd/record.h"
#include "common/check.h"

namespace urcl {
namespace autograd {
namespace {

using internal::Node;
using internal::ParentEdge;

void AddIssue(std::vector<LintIssue>* issues, const Node* node, std::string rule,
              std::string detail) {
  issues->push_back(LintIssue{std::move(rule), internal::NodeName(*node), std::move(detail)});
}

std::string ShapeList(const std::vector<Shape>& shapes) {
  std::string out;
  for (const Shape& shape : shapes) out += (out.empty() ? "" : ", ") + shape.ToString();
  return out;
}

// Arity and output-shape agreement with the op's definition. A mismatch means
// the op's gradient would read operands it does not have, or some
// AccumulateGrad call during backward is guaranteed to receive a gradient
// whose shape disagrees with its value.
void CheckAgainstDefinition(const Node* node, std::vector<LintIssue>* issues) {
  const record::OpKind kind = *node->kind;
  const int arity = record::OpArity(kind);
  const size_t count = node->parents.size();
  if (arity != record::kVariadic && count != static_cast<size_t>(arity)) {
    AddIssue(issues, node, "arity",
             "op expects " + std::to_string(arity) + " parents, node has " +
                 std::to_string(count));
    return;
  }
  std::vector<Shape> inputs;
  inputs.reserve(count);
  for (const ParentEdge& edge : node->parents) inputs.push_back(edge.node->value.shape());
  Shape expected;
  if (!record::OpOutputShape(kind, node->attrs, inputs, &expected)) {
    AddIssue(issues, node, "shape",
             "parent shapes " + ShapeList(inputs) + " are invalid operands of the op");
  } else if (expected != node->value.shape()) {
    AddIssue(issues, node, "shape",
             "value shape " + node->value.shape().ToString() + " does not match " +
                 expected.ToString() + ", the op's output for parents " + ShapeList(inputs));
  }
}

void CheckNode(const Node* node, bool reaches_trainable_leaf,
               std::vector<LintIssue>* issues) {
  // Stale captures (same predicate Backward verifies under the env gate).
  for (size_t i = 0; i < node->parents.size(); ++i) {
    const std::string stale = internal::DescribeStaleCapture(*node, i);
    if (!stale.empty()) AddIssue(issues, node, "version", stale);
  }

  // Parent records / requires_grad consistency: an op node records its
  // parents exactly when gradients flow through it.
  const bool records_parents = !node->parents.empty();
  if (records_parents && !node->kind) {
    AddIssue(issues, node, "requires-grad", "leaf node records parents");
  }
  if (records_parents && !node->requires_grad) {
    AddIssue(issues, node, "requires-grad", "node records parents but requires_grad is false");
  }
  if (node->requires_grad && !reaches_trainable_leaf) {
    AddIssue(issues, node, "requires-grad",
             "gradients flow into a subgraph with no trainable leaves");
  }

  // An accumulated gradient must always match its value's shape.
  if (node->has_grad && node->grad.shape() != node->value.shape()) {
    AddIssue(issues, node, "grad-shape",
             "accumulated gradient shape " + node->grad.shape().ToString() +
                 " does not match value shape " + node->value.shape().ToString());
  }

  // Arity + shape rules only apply to op nodes that will run backward: ops
  // recorded without grad legitimately drop their parents.
  if (records_parents && node->kind) CheckAgainstDefinition(node, issues);
}

}  // namespace

std::vector<LintIssue> LintGraph(const Variable& root) {
  URCL_CHECK(root.IsValid()) << "[urcl.check/lint] LintGraph on an empty Variable";
  std::vector<LintIssue> issues;

  // Iterative DFS with gray/black coloring: collects a parents-first order
  // and reports back edges (cycles) instead of looping on them.
  enum class Color { kGray, kBlack };
  std::unordered_map<Node*, Color> color;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  std::vector<Node*> order;
  Node* start = root.internal_node().get();
  stack.push_back({start, 0});
  color.emplace(start, Color::kGray);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].node.get();
      const auto it = color.find(parent);
      if (it == color.end()) {
        color.emplace(parent, Color::kGray);
        stack.push_back({parent, 0});
      } else if (it->second == Color::kGray) {
        issues.push_back(LintIssue{
            "cycle", internal::NodeName(*frame.node),
            "graph contains a cycle through op '" + std::string(internal::NodeName(*parent)) +
                "' — backward's topological order would visit a node before its parents"});
      }
    } else {
      color[frame.node] = Color::kBlack;
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Bottom-up trainable-leaf reachability over the parents-first order, then
  // the per-node checks.
  std::unordered_map<Node*, bool> reaches;
  for (Node* node : order) {
    bool node_reaches = node->parents.empty() && node->requires_grad;
    for (const ParentEdge& edge : node->parents) {
      const auto it = reaches.find(edge.node.get());
      node_reaches = node_reaches || (it != reaches.end() && it->second);
    }
    reaches[node] = node_reaches;
    CheckNode(node, node_reaches, &issues);
  }
  return issues;
}

std::string FormatLintIssues(const std::vector<LintIssue>& issues) {
  std::ostringstream out;
  for (const LintIssue& issue : issues) {
    out << "[urcl.check/" << issue.rule << "] op '" << issue.op << "': " << issue.detail
        << "\n";
  }
  return out.str();
}

void CheckGraph(const Variable& root) {
  const std::vector<LintIssue> issues = LintGraph(root);
  URCL_CHECK(issues.empty()) << "autograd graph lint failed ("
                             << issues.size() << " issue(s)):\n"
                             << FormatLintIssues(issues);
}

}  // namespace autograd
}  // namespace urcl
