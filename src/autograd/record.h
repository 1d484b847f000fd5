// The replayable autograd ops, each defined once, and the capture hook of the
// compiled executor (src/exec/).
//
// Every op except Dropout has exactly one definition (record.cc): its tape
// name, OpForward (its single ops:: kernel call), OpBackward (its gradient
// formula, written against the OpOperands view below) and the two liveness
// facts of that formula (whether it reads its input values, whether it reads
// its output). Both executors run ops only through these functions: the tape
// (autograd/ops.cc, Apply) over the parent Variables, the compiled plan
// (exec/plan.cc) over its slots. The plan therefore matches the tape bit for
// bit because there is no second copy of any kernel call or gradient
// formula, and the plan's liveness analysis reads the same facts its operand
// view enforces.
//
// Capture: every op notifies the thread-local TapeListener (when one is
// installed) with its kind, output Variable, parent Variables and attributes.
// The listener lives here — not in src/exec/ — so autograd never depends on
// the executor; exec's GraphRecorder implements the interface. The hook fires
// for every op, including ops recorded without gradients (whose tape nodes
// drop their parents), which is exactly why a post-hoc walk of the node graph
// cannot recover the program: capture must observe the op stream as it
// happens. StopGradient bypasses Variable::MakeOp entirely (it returns a
// fresh leaf aliasing the input's storage) and gets the dedicated OnAlias
// hook.
#ifndef URCL_AUTOGRAD_RECORD_H_
#define URCL_AUTOGRAD_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace urcl {
namespace autograd {
namespace record {

// One enumerator per op function in autograd/ops.h (Neg delegates to
// MulScalar and records as kMulScalar). kDropout is recorded so a capture
// that encounters it can abort deterministically: its mask is drawn from the
// trainer RNG per step, so a replayed plan could never reproduce it. It has
// no definition and stays the last enumerator.
enum class OpKind : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAddScalar,
  kMulScalar,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kTanh,
  kSigmoid,
  kRelu,
  kLeakyRelu,
  kSquare,
  kMatMul,
  kSum,
  kMean,
  kReshape,
  kTranspose,
  kSlice,
  kConcat,
  kPad,
  kBroadcastTo,
  kSoftmax,
  kTemporalConv2d,
  kDropout,
};

// Closed-form op parameters, enough to run the forward kernel and the
// gradient formula. Fields are op-specific:
//   scalar : AddScalar/MulScalar operand, LeakyRelu negative slope
//   flag   : Sum/Mean keepdims
//   axis   : Concat/Pad/Softmax axis (as passed, not canonicalized);
//            TemporalConv2d dilation
//   before/after : Pad amounts
//   ints   : Sum/Mean axes, Reshape/BroadcastTo target dims, Transpose perm,
//            Slice starts
//   ints2  : Slice sizes
struct OpAttrs {
  float scalar = 0.0f;
  bool flag = false;
  int64_t axis = 0;
  int64_t before = 0;
  int64_t after = 0;
  std::vector<int64_t> ints = {};
  std::vector<int64_t> ints2 = {};
};

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

// The op's tape name (Variable::op_name, and the key of the autograd/lint.cc
// shape rules).
const char* OpName(OpKind kind);

// The liveness facts of OpBackward: whether it reads its input values, and
// whether it reads its output.
bool OpReadsInputs(OpKind kind);
bool OpReadsOutput(OpKind kind);

// Computes the op's output from its inputs.
Tensor OpForward(OpKind kind, const OpAttrs& attrs, const OpOperands& operands);

// Accumulates into every input that needs a gradient its share of `grad`,
// the gradient of the op's output.
void OpBackward(OpKind kind, const OpAttrs& attrs, const Tensor& grad, OpOperands& operands);

class TapeListener {
 public:
  virtual ~TapeListener() = default;

  // One recorded op, from Apply or Dropout: `out` was produced from
  // `parents` (any count) with `attrs`. Called after Variable::MakeOp, on
  // the thread running the forward build.
  virtual void OnOp(OpKind kind, const Variable& out, const std::vector<Variable>& parents,
                    const OpAttrs& attrs) = 0;

  // StopGradient: `out` is a fresh non-grad leaf sharing `in`'s value storage.
  virtual void OnAlias(const Variable& out, const Variable& in) = 0;
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
