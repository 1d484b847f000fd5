// The names of the replayable autograd ops and their closed-form attributes.
// A tape node records exactly these two facts about the op that produced it
// (autograd/variable.h); everything else about an op — its name, arity,
// output-shape rule, forward kernel call and gradient formula — is looked up
// from its single definition in autograd/record.cc. Declarations only, so
// variable.h can hold them without including the op table.
#ifndef URCL_AUTOGRAD_OP_KIND_H_
#define URCL_AUTOGRAD_OP_KIND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace urcl {
namespace autograd {
namespace record {

// One enumerator per op function in autograd/ops.h (Neg delegates to
// MulScalar and records as kMulScalar). Every enumerator has a definition in
// record.cc's op table, listed in this order.
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
  kGraphMatMul,
  kStopGradient,
};

// The number of OpKinds: the op table's length. kStopGradient stays the last
// enumerator.
inline constexpr size_t kNumOpKinds = static_cast<size_t>(OpKind::kStopGradient) + 1;

// Closed-form op parameters, enough to run the forward kernel, the gradient
// formula and the output-shape rule. Fields are op-specific:
//   scalar : AddScalar/MulScalar operand
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

}  // namespace record
}  // namespace autograd
}  // namespace urcl

#endif  // URCL_AUTOGRAD_OP_KIND_H_
