// Static integrity analysis over a recorded autograd graph (`urcl::check`,
// DESIGN.md §9). LintGraph walks every node reachable from a root and checks
// the structural invariants the tape-free recorder is supposed to maintain —
// the class of bug that otherwise only surfaces as a wrong gradient:
//
//   version        a captured operand was mutated in place (or replaced via
//                  SetValue) after op-record time, so the op's gradient
//                  would differentiate through values the forward pass never
//                  produced;
//   arity          a node's parent count does not match its op's
//                  record::OpArity (e.g. a binary 'mul' recorded with one
//                  parent);
//   shape          a node's value shape disagrees with its op's
//                  record::OpOutputShape over the parent shapes and the
//                  node's attributes, so AccumulateGrad would be fed a
//                  mismatched gradient during backward;
//   grad-shape     an already-accumulated gradient does not match its node's
//                  value shape;
//   requires-grad  parent-record/requires_grad inconsistencies, including
//                  gradients flowing into a subgraph with no trainable
//                  leaves;
//   cycle          the "DAG" has a cycle, which backward's topological order
//                  silently mis-handles.
//
// Every op fact the linter checks comes from the op's definition
// (autograd/record.h), the same table the tape and the compiled plan run.
//
// Usable directly in tests, and wired into the trainer behind the URCL_CHECK
// environment gate (zero cost when disabled). CheckGraph aborts with the full
// issue list; every diagnostic is prefixed "[urcl.check/<rule>]".
#ifndef URCL_AUTOGRAD_LINT_H_
#define URCL_AUTOGRAD_LINT_H_

#include <string>
#include <vector>

#include "autograd/variable.h"

namespace urcl {
namespace autograd {

// One linter finding. `rule` is the stable machine-readable name listed
// above; `op` is the op_name of the offending node.
struct LintIssue {
  std::string rule;
  std::string op;
  std::string detail;
};

// Runs every check over the graph reachable from `root` (following recorded
// parent edges) and returns all findings. Read-only and non-fatal; an empty
// result means the graph is clean.
std::vector<LintIssue> LintGraph(const Variable& root);

// One "[urcl.check/<rule>] op '<op>': <detail>" line per issue.
std::string FormatLintIssues(const std::vector<LintIssue>& issues);

// Aborts with the formatted issue list when LintGraph finds anything.
void CheckGraph(const Variable& root);

}  // namespace autograd
}  // namespace urcl

#endif  // URCL_AUTOGRAD_LINT_H_
