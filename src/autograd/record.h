// The replayable autograd ops, each defined once, and the capture hook of the
// compiled executor (src/exec/).
//
// Every op (autograd/op_kind.h) has exactly one definition (record.cc): its
// name, its arity and output-shape rule, OpForward (its single ops:: kernel
// call), OpBackward (its gradient formula, written against the OpOperands
// view below) and the two liveness facts of that formula (whether it reads
// its input values, whether it reads its output). Every consumer reads op
// facts only from here: the tape runs OpForward in Apply (autograd/ops.cc)
// and OpBackward over each recorded node (autograd/variable.cc); the
// compiled plan (exec/plan.cc) runs both over its slots and infers its
// shapes with OpOutputShape; the graph linter (autograd/lint.cc) checks
// nodes against OpArity and OpOutputShape; and the per-op profiler
// (obs/profiler.h) times OpForward and OpBackward, so it charges the same
// cells whichever executor ran the op. The plan therefore matches the tape
// bit for bit because there is no second copy of any kernel call or
// gradient formula, and the plan's liveness analysis reads the same facts
// its operand view enforces.
//
// An op may stand for a composition of others when one kernel does the same
// work in the data's own layout: graph_matmul is the diffusion GCN's
// Transpose -> MatMul -> Transpose in the [B, C, N, T] layout. Such an op
// keeps the composition's bits: its kernels keep every product and
// summation order, and its node sits where the chain would in the backward
// DFS, so each input receives its gradient contributions in the chain's
// order.
//
// Capture: every op notifies the thread-local TapeListener (when one is
// installed) with its kind, output Variable, parent Variables and attributes.
// The listener lives here — not in src/exec/ — so autograd never depends on
// the executor; exec's GraphRecorder implements the interface. The hook fires
// for every op, including ops recorded without gradients (whose tape nodes
// drop their parents), which is exactly why a post-hoc walk of the node graph
// cannot recover the program: capture must observe the op stream as it
// happens.
#ifndef URCL_AUTOGRAD_RECORD_H_
#define URCL_AUTOGRAD_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/op_kind.h"
#include "autograd/variable.h"
#include "tensor/shape.h"

namespace urcl {
namespace autograd {
namespace record {

// The operands of one op application as OpForward and OpBackward see them.
// Index i names the op's i-th input. OpForward reads only size() and
// value(i); OpBackward reads value(i) only when OpReadsInputs, output() only
// when OpReadsOutput.
class OpOperands {
 public:
  virtual ~OpOperands() = default;

  virtual size_t size() const = 0;
  virtual const Shape& shape(size_t i) const = 0;
  virtual const Tensor& value(size_t i) const = 0;
  // The op's forward result.
  virtual const Tensor& output() const = 0;
  virtual bool needs_grad(size_t i) const = 0;
  // Adds `delta` (shaped like input i) into input i's gradient.
  virtual void Accumulate(size_t i, const Tensor& delta) = 0;
};

// The op's name (Variable::op_name, lint findings and profiler rows).
const char* OpName(OpKind kind);

// The op's input count; kVariadic for an op taking one or more (concat).
inline constexpr int kVariadic = -1;
int OpArity(OpKind kind);

// The op's output shape for inputs shaped `inputs` under `attrs`. Returns
// false, and never aborts, when the input count or shapes (or the attributes
// against them) are ones the op's kernel would reject.
bool OpOutputShape(OpKind kind, const OpAttrs& attrs, const std::vector<Shape>& inputs,
                   Shape* out);

// The liveness facts of OpBackward: whether it reads its input values, and
// whether it reads its output.
bool OpReadsInputs(OpKind kind);
bool OpReadsOutput(OpKind kind);

// Whether the op's output takes no gradient (stop_gradient): Variable::MakeOp
// then records no parents and the output does not require grad, whatever its
// inputs need.
bool OpStopsGradient(OpKind kind);

// Computes the op's output from its inputs. Timed into the op's forward
// profiler row when obs::ProfilerEnabled().
Tensor OpForward(OpKind kind, const OpAttrs& attrs, const OpOperands& operands);

// Accumulates into every input that needs a gradient its share of `grad`,
// the gradient of the op's output. Timed into the op's backward profiler
// row when obs::ProfilerEnabled().
void OpBackward(OpKind kind, const OpAttrs& attrs, const Tensor& grad, OpOperands& operands);

class TapeListener {
 public:
  virtual ~TapeListener() = default;

  // One recorded op, from Apply: `out` was produced from `parents` (any
  // count) with `attrs`. Called after Variable::MakeOp, on the thread running
  // the forward build.
  virtual void OnOp(OpKind kind, const Variable& out, const std::vector<Variable>& parents,
                    const OpAttrs& attrs) = 0;
};

// Thread-local listener; nullptr (the default) makes every hook a single
// predictable branch on the tape hot path.
TapeListener* ActiveListener();
void SetListener(TapeListener* listener);

// RAII installer used by the capture pass.
class ListenerScope {
 public:
  explicit ListenerScope(TapeListener* listener) : previous_(ActiveListener()) {
    SetListener(listener);
  }
  ~ListenerScope() { SetListener(previous_); }
  ListenerScope(const ListenerScope&) = delete;
  ListenerScope& operator=(const ListenerScope&) = delete;

 private:
  TapeListener* previous_;
};

}  // namespace record
}  // namespace autograd
}  // namespace urcl

#endif  // URCL_AUTOGRAD_RECORD_H_
