#include "exec/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <unordered_map>

#include "autograd/lint.h"
#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace exec {

namespace top = ::urcl::ops;
using autograd::Variable;
using autograd::record::OpAttrs;
using autograd::record::OpKind;

ExecutorMode DefaultExecutorMode() {
  const char* value = std::getenv("URCL_EXEC");
  if (value != nullptr && std::string(value) == "tape") return ExecutorMode::kTape;
  return ExecutorMode::kPlan;
}

const char* ExecutorModeName(ExecutorMode mode) {
  return mode == ExecutorMode::kPlan ? "plan" : "tape";
}

namespace {

// Kind -> tape op_name, so ahead-of-time shape inference literally reuses the
// autograd/lint.cc closed-form rules keyed by those names.
const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kDiv: return "div";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kMulScalar: return "mul_scalar";
    case OpKind::kExp: return "exp";
    case OpKind::kLog: return "log";
    case OpKind::kSqrt: return "sqrt";
    case OpKind::kAbs: return "abs";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kRelu: return "relu";
    case OpKind::kLeakyRelu: return "leaky_relu";
    case OpKind::kSquare: return "square";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kSum: return "sum";
    case OpKind::kMean: return "mean";
    case OpKind::kReshape: return "reshape";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kSlice: return "slice";
    case OpKind::kConcat: return "concat";
    case OpKind::kPad: return "pad";
    case OpKind::kBroadcastTo: return "broadcast_to";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kTemporalConv2d: return "temporal_conv2d";
    case OpKind::kDropout: return "dropout";
  }
  return "?";
}

// Same rule as ops.cc: shape of a keepdims=true reduction result.
Shape KeepdimsShape(const Shape& in, const std::vector<int64_t>& axes) {
  std::vector<int64_t> dims = in.dims();
  if (axes.empty()) {
    for (auto& d : dims) d = 1;
  } else {
    for (const int64_t axis : axes) dims[static_cast<size_t>(in.CanonicalAxis(axis))] = 1;
  }
  return Shape(dims);
}

Shape ReducedShape(const Shape& in, const std::vector<int64_t>& axes, bool keepdims) {
  const Shape kept = KeepdimsShape(in, axes);
  if (keepdims) return kept;
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < in.rank(); ++i) {
    if (kept.dim(i) == in.dim(i)) {
      dims.push_back(in.dim(i));
    } else if (in.dim(i) == 1) {
      // A size-1 axis named in `axes` is still removed.
    } else {
      // reduced axis, dropped
    }
  }
  // The loop above cannot distinguish reduced size-1 axes from kept ones;
  // recompute precisely from canonical axes instead.
  dims.clear();
  std::vector<int64_t> canon;
  if (axes.empty()) {
    for (int64_t i = 0; i < in.rank(); ++i) canon.push_back(i);
  } else {
    for (const int64_t a : axes) canon.push_back(in.CanonicalAxis(a));
  }
  for (int64_t i = 0; i < in.rank(); ++i) {
    if (std::find(canon.begin(), canon.end(), i) == canon.end()) dims.push_back(in.dim(i));
  }
  return Shape(dims);
}

}  // namespace

// Observes the capture build's op stream and assembles the plan's slot graph.
class GraphRecorder : public autograd::record::TapeListener {
 public:
  GraphRecorder(CompiledPlan* plan, const std::vector<Tensor>& inputs)
      : plan_(plan), inputs_(inputs) {}

  void OnOp(OpKind kind, const Variable& out, std::initializer_list<const Variable*> parents,
            const OpAttrs& attrs) override {
    if (!error_.empty()) return;
    if (kind == OpKind::kDropout) {
      error_ = "dropout draws a per-step RNG mask; the graph is not replayable";
      return;
    }
    Instr instr;
    instr.kind = kind;
    instr.attrs = attrs;
    for (const Variable* p : parents) instr.parents.push_back(SlotFor(*p));
    if (!error_.empty()) return;
    Finish(out, std::move(instr));
  }

  void OnOpN(OpKind kind, const Variable& out, const std::vector<Variable>& parents,
             const OpAttrs& attrs) override {
    if (!error_.empty()) return;
    Instr instr;
    instr.kind = kind;
    instr.attrs = attrs;
    for (const Variable& p : parents) instr.parents.push_back(SlotFor(p));
    if (!error_.empty()) return;
    Finish(out, std::move(instr));
  }

  void OnAlias(const Variable& out, const Variable& in) override {
    if (!error_.empty()) return;
    Instr instr;
    instr.is_alias = true;
    instr.parents.push_back(SlotFor(in));
    if (!error_.empty()) return;
    Finish(out, std::move(instr));
  }

  // Slot index of a Variable seen during capture, or -1.
  int SlotIndexOf(const Variable& v) const {
    auto it = slot_of_.find(v.internal_node().get());
    return it == slot_of_.end() ? -1 : it->second;
  }

  const std::string& error() const { return error_; }

 private:
  int SlotFor(const Variable& v) {
    const auto* node = v.internal_node().get();
    auto it = slot_of_.find(node);
    if (it != slot_of_.end()) return it->second;
    // An unseen leaf. If it carries a backward closure it is an op output
    // produced before the listener was installed — capturing it as a
    // constant would silently freeze a live subgraph, so abort instead.
    if (v.internal_node()->backward_fn) {
      error_ = "graph region was built outside the capture listener";
      return 0;
    }
    Slot slot;
    slot.shape = v.shape();
    // Inputs are matched before parameters: a caller that names parameter
    // values as inputs (serving, to rebind each snapshot's weights) gets
    // them rebound by position on every run.
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i].data() == v.value().data()) {
        slot.kind = Slot::Kind::kInput;
        slot.input_index = static_cast<int>(i);
        return Register(v, std::move(slot));
      }
    }
    if (v.requires_grad()) {
      slot.kind = Slot::Kind::kParam;
      slot.requires_grad = true;
      slot.param = v;
    } else {
      // Step-invariant by construction: anything rebuilt per step flows
      // through ops under the listener or is named as an input.
      slot.kind = Slot::Kind::kConstant;
      slot.constant = v.value();
    }
    return Register(v, std::move(slot));
  }

  void Finish(const Variable& out, Instr instr) {
    Slot slot;
    slot.kind = Slot::Kind::kOp;
    slot.shape = out.shape();
    slot.requires_grad = out.requires_grad();
    slot.producer = static_cast<int>(plan_->instrs_.size());
    instr.out = Register(out, std::move(slot));
    plan_->instrs_.push_back(std::move(instr));
  }

  int Register(const Variable& v, Slot slot) {
    const int index = static_cast<int>(plan_->slots_.size());
    plan_->slots_.push_back(std::move(slot));
    slot_of_[v.internal_node().get()] = index;
    // Pin every node seen: tape nodes for grad-free subgraphs are not kept
    // alive by their consumers (parents are only recorded when gradients
    // flow), and a freed node's address could be reused by a later node,
    // which would corrupt the identity map.
    pinned_.push_back(v);
    return index;
  }

  CompiledPlan* plan_;
  const std::vector<Tensor>& inputs_;
  std::unordered_map<const void*, int> slot_of_;
  std::vector<Variable> pinned_;
  std::string error_;
};

CompiledPlan::CaptureResult CompiledPlan::Capture(
    const std::vector<Tensor>& inputs, const std::function<Variable()>& build,
    bool with_backward) {
  CaptureResult result;
  std::unique_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->with_backward_ = with_backward;
  for (const Tensor& t : inputs) plan->input_shapes_.push_back(t.shape());
  GraphRecorder recorder(plan.get(), inputs);
  {
    autograd::record::ListenerScope scope(&recorder);
    result.root = build();
  }
  if (!recorder.error().empty()) {
    result.error = recorder.error();
    return result;
  }
  plan->root_ = recorder.SlotIndexOf(*result.root);
  if (plan->root_ < 0 || plan->slots_[static_cast<size_t>(plan->root_)].kind != Slot::Kind::kOp) {
    result.error = "root was not produced under the capture listener";
    return result;
  }
  if (with_backward) {
    if (!result.root->requires_grad()) {
      result.error = "backward requested but the root does not require grad";
      return result;
    }
    if (result.root->shape().NumElements() != 1) {
      result.error = "backward requires a scalar root";
      return result;
    }
  }
  if (!plan->InferShapes(&result.error)) return result;
  plan->DetectFusion();
  if (with_backward && !plan->CompileBackward(&result.error)) return result;
  plan->AnalyzeLiveness();
  if (!plan->Measure(inputs, &result.error)) return result;
  result.plan = std::move(plan);
  return result;
}

bool CompiledPlan::InferShapes(std::string* error) {
  const auto shape_of = [this](int s) -> const Shape& {
    return slots_[static_cast<size_t>(s)].shape;
  };
  for (Instr& instr : instrs_) {
    const Shape& got = shape_of(instr.out);
    Shape expect;
    bool known = true;
    if (instr.is_alias) {
      expect = shape_of(instr.parents[0]);
    } else {
      const std::string name = OpKindName(instr.kind);
      if (autograd::IsBroadcastBinary(name)) {
        if (!autograd::TryBroadcast(shape_of(instr.parents[0]), shape_of(instr.parents[1]),
                                    &expect)) {
          *error = "AOT shape inference: incompatible broadcast for " + name;
          return false;
        }
      } else if (autograd::IsShapePreserving(name)) {
        expect = shape_of(instr.parents[0]);
      } else {
        switch (instr.kind) {
          case OpKind::kMatMul: {
            const Shape& a = shape_of(instr.parents[0]);
            const Shape& b = shape_of(instr.parents[1]);
            if (a.rank() < 2 || b.rank() < 2 || a.dim(a.rank() - 1) != b.dim(b.rank() - 2)) {
              *error = "AOT shape inference: matmul inner-dimension mismatch";
              return false;
            }
            std::vector<int64_t> a_batch(a.dims().begin(), a.dims().end() - 2);
            std::vector<int64_t> b_batch(b.dims().begin(), b.dims().end() - 2);
            Shape batch;
            if (!autograd::TryBroadcast(Shape(a_batch), Shape(b_batch), &batch)) {
              *error = "AOT shape inference: matmul batch dims incompatible";
              return false;
            }
            std::vector<int64_t> dims = batch.dims();
            dims.push_back(a.dim(a.rank() - 2));
            dims.push_back(b.dim(b.rank() - 1));
            expect = Shape(dims);
            break;
          }
          case OpKind::kSum:
          case OpKind::kMean:
            expect = ReducedShape(shape_of(instr.parents[0]), instr.attrs.ints, instr.attrs.flag);
            break;
          case OpKind::kReshape:
          case OpKind::kBroadcastTo:
            expect = Shape(instr.attrs.ints);
            break;
          case OpKind::kTranspose: {
            const Shape& in = shape_of(instr.parents[0]);
            std::vector<int64_t> dims(instr.attrs.ints.size());
            for (size_t i = 0; i < dims.size(); ++i) {
              dims[i] = in.dim(in.CanonicalAxis(instr.attrs.ints[i]));
            }
            expect = Shape(dims);
            break;
          }
          case OpKind::kSlice:
            expect = Shape(instr.attrs.ints2);
            break;
          case OpKind::kConcat: {
            const Shape& first = shape_of(instr.parents[0]);
            const int64_t canonical = first.CanonicalAxis(instr.attrs.axis);
            std::vector<int64_t> dims = first.dims();
            for (size_t i = 1; i < instr.parents.size(); ++i) {
              dims[static_cast<size_t>(canonical)] += shape_of(instr.parents[i]).dim(canonical);
            }
            expect = Shape(dims);
            break;
          }
          case OpKind::kPad: {
            const Shape& in = shape_of(instr.parents[0]);
            const int64_t canonical = in.CanonicalAxis(instr.attrs.axis);
            std::vector<int64_t> dims = in.dims();
            dims[static_cast<size_t>(canonical)] += instr.attrs.before + instr.attrs.after;
            expect = Shape(dims);
            break;
          }
          case OpKind::kTemporalConv2d: {
            const Shape& in = shape_of(instr.parents[0]);
            const Shape& w = shape_of(instr.parents[1]);
            const int64_t t_out = in.dim(3) - instr.attrs.axis * (w.dim(3) - 1);
            expect = Shape{in.dim(0), w.dim(0), in.dim(2), t_out};
            break;
          }
          default:
            known = false;
            break;
        }
      }
    }
    if (!known) {
      *error = std::string("AOT shape inference: no rule for op ") + OpKindName(instr.kind);
      return false;
    }
    if (!(expect == got)) {
      *error = std::string("AOT shape inference: ") + OpKindName(instr.kind) +
               " disagrees with the captured output shape";
      return false;
    }
    instr.out_shape = got;
    // Compile-time backward precomputation, mirroring the tape closures'
    // captures.
    const Shape& in0 = instr.parents.empty() ? got : shape_of(instr.parents[0]);
    switch (instr.kind) {
      case OpKind::kSum:
        if (instr.is_alias) break;
        instr.kept = KeepdimsShape(in0, instr.attrs.ints);
        break;
      case OpKind::kMean:
        if (instr.is_alias) break;
        instr.kept = KeepdimsShape(in0, instr.attrs.ints);
        instr.scale = static_cast<float>(instr.kept.NumElements()) /
                      static_cast<float>(in0.NumElements());
        break;
      case OpKind::kTranspose: {
        if (instr.is_alias) break;
        instr.inverse_perm.assign(instr.attrs.ints.size(), 0);
        for (size_t i = 0; i < instr.attrs.ints.size(); ++i) {
          instr.inverse_perm[static_cast<size_t>(in0.CanonicalAxis(instr.attrs.ints[i]))] =
              static_cast<int64_t>(i);
        }
        break;
      }
      case OpKind::kConcat:
      case OpKind::kPad:
      case OpKind::kSoftmax:
        if (instr.is_alias) break;
        instr.canonical = in0.CanonicalAxis(instr.attrs.axis);
        break;
      default:
        break;
    }
  }
  return true;
}

void CompiledPlan::DetectFusion() {
  std::vector<int> consumers(slots_.size(), 0);
  for (const Instr& instr : instrs_) {
    for (const int p : instr.parents) ++consumers[static_cast<size_t>(p)];
  }
  ++consumers[static_cast<size_t>(root_)];  // the root is always a consumer
  const auto producer_of = [this](int slot) -> Instr* {
    const Slot& s = slots_[static_cast<size_t>(slot)];
    if (s.kind != Slot::Kind::kOp) return nullptr;
    Instr* instr = &instrs_[static_cast<size_t>(s.producer)];
    return instr->is_alias ? nullptr : instr;
  };
  for (Instr& mul : instrs_) {
    if (mul.is_alias || mul.kind != OpKind::kMul || mul.out_shape.rank() != 4) continue;
    Instr* tanh = producer_of(mul.parents[0]);
    Instr* sigmoid = producer_of(mul.parents[1]);
    if (tanh == nullptr || sigmoid == nullptr) continue;
    if (tanh->kind != OpKind::kTanh || sigmoid->kind != OpKind::kSigmoid) continue;
    Instr* add1 = producer_of(tanh->parents[0]);
    Instr* add2 = producer_of(sigmoid->parents[0]);
    if (add1 == nullptr || add2 == nullptr) continue;
    if (add1->kind != OpKind::kAdd || add2->kind != OpKind::kAdd) continue;
    // Every intermediate must have exactly one consumer (the chain itself).
    if (consumers[static_cast<size_t>(tanh->out)] != 1 ||
        consumers[static_cast<size_t>(sigmoid->out)] != 1 ||
        consumers[static_cast<size_t>(add1->out)] != 1 ||
        consumers[static_cast<size_t>(add2->out)] != 1) {
      continue;
    }
    // Shape discipline: full [B,C,N,T] data path, [1,C,1,1] channel biases.
    const Shape& out = mul.out_shape;
    const Shape bias_shape = Shape{1, out.dim(1), 1, 1};
    const auto shape_of = [this](int s) -> const Shape& {
      return slots_[static_cast<size_t>(s)].shape;
    };
    if (!(shape_of(add1->parents[0]) == out) || !(shape_of(add2->parents[0]) == out) ||
        !(shape_of(add1->parents[1]) == bias_shape) ||
        !(shape_of(add2->parents[1]) == bias_shape)) {
      continue;
    }
    FusedGate gate;
    gate.x = add1->parents[0];
    gate.b1 = add1->parents[1];
    gate.y = add2->parents[0];
    gate.b2 = add2->parents[1];
    gate.tanh_out = tanh->out;
    gate.sigmoid_out = sigmoid->out;
    gate.mul_out = mul.out;
    mul.fused_index = static_cast<int>(fused_gates_.size());
    fused_gates_.push_back(gate);
    tanh->skipped = true;
    sigmoid->skipped = true;
    add1->skipped = true;
    add2->skipped = true;
  }
}

bool CompiledPlan::CompileBackward(std::string* error) {
  // Byte-for-byte replication of Variable::BackwardWithSeed's iterative
  // post-order DFS over the slot graph: same visitation rule, same parent
  // order, hence the same closure execution and gradient accumulation order.
  struct Frame {
    int slot;
    size_t next_parent;
  };
  std::vector<uint8_t> visited(slots_.size(), 0);
  std::vector<Frame> stack;
  visited[static_cast<size_t>(root_)] = 1;
  stack.push_back({root_, 0});
  const std::vector<int> no_parents;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Slot& slot = slots_[static_cast<size_t>(frame.slot)];
    // Tape nodes record parents only when gradients flow; leaves and
    // grad-free regions have none.
    const std::vector<int>& parents =
        (slot.kind == Slot::Kind::kOp && slot.requires_grad &&
         !instrs_[static_cast<size_t>(slot.producer)].is_alias)
            ? instrs_[static_cast<size_t>(slot.producer)].parents
            : no_parents;
    if (frame.next_parent < parents.size()) {
      const int parent = parents[frame.next_parent++];
      const auto parent_index = static_cast<size_t>(parent);
      if (slots_[parent_index].requires_grad && !visited[parent_index]) {
        visited[parent_index] = 1;
        stack.push_back({parent, 0});
      }
    } else {
      backward_order_.push_back(frame.slot);
      stack.pop_back();
    }
  }
  if (backward_order_.empty()) {
    *error = "empty backward program";
    return false;
  }
  return true;
}

void CompiledPlan::AnalyzeLiveness() {
  drop_after_.assign(instrs_.size(), {});
  std::vector<int> last_use(slots_.size(), -1);
  for (size_t i = 0; i < instrs_.size(); ++i) {
    const Instr& instr = instrs_[i];
    if (instr.skipped) continue;  // reads happen at the fused site instead
    if (instr.fused_index >= 0) {
      const FusedGate& gate = fused_gates_[static_cast<size_t>(instr.fused_index)];
      for (const int s : {gate.x, gate.b1, gate.y, gate.b2}) {
        last_use[static_cast<size_t>(s)] = static_cast<int>(i);
      }
      continue;
    }
    for (const int p : instr.parents) last_use[static_cast<size_t>(p)] = static_cast<int>(i);
  }
  needed_in_backward_.assign(slots_.size(), 0);
  if (with_backward_) {
    needed_in_backward_[static_cast<size_t>(root_)] = 1;
    for (const Instr& instr : instrs_) {
      // Backward thunks run for every grad-carrying op, fused or not.
      if (instr.is_alias || !slots_[static_cast<size_t>(instr.out)].requires_grad) continue;
      switch (instr.kind) {
        case OpKind::kMul:
        case OpKind::kDiv:
        case OpKind::kMatMul:
        case OpKind::kTemporalConv2d:
          needed_in_backward_[static_cast<size_t>(instr.parents[0])] = 1;
          needed_in_backward_[static_cast<size_t>(instr.parents[1])] = 1;
          break;
        case OpKind::kLog:
        case OpKind::kAbs:
        case OpKind::kRelu:
        case OpKind::kLeakyRelu:
        case OpKind::kSquare:
          needed_in_backward_[static_cast<size_t>(instr.parents[0])] = 1;
          break;
        case OpKind::kExp:
        case OpKind::kSqrt:
        case OpKind::kTanh:
        case OpKind::kSigmoid:
        case OpKind::kSoftmax:
          needed_in_backward_[static_cast<size_t>(instr.out)] = 1;
          break;
        default:
          break;
      }
    }
  }
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].kind != Slot::Kind::kOp) continue;  // leaves are rebound, never dropped
    if (static_cast<int>(s) == root_ || needed_in_backward_[s]) continue;
    if (last_use[s] < 0) continue;
    drop_after_[static_cast<size_t>(last_use[s])].push_back(static_cast<int>(s));
  }
}

bool CompiledPlan::Measure(const std::vector<Tensor>& inputs, std::string* error) {
  values_.assign(slots_.size(), empty_);
  grads_.assign(slots_.size(), empty_);
  has_grad_.assign(slots_.size(), 0);
  root_out_ = Tensor(slots_[static_cast<size_t>(root_)].shape);
  measuring_ = true;
  arena_.BeginMeasure();
  BindInputs(inputs);
  RunForward();
  if (with_backward_) RunBackward();
  measuring_ = false;
  if (!arena_.FinishMeasure()) {
    *error = "arena layout validation failed";
    return false;
  }
  return true;
}

void CompiledPlan::BindInputs(const std::vector<Tensor>& inputs) {
  URCL_CHECK_EQ(inputs.size(), input_shapes_.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    URCL_CHECK(inputs[i].shape() == input_shapes_[i])
        << "BindInputs shape mismatch at input " << i;
  }
  for (size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    switch (slot.kind) {
      case Slot::Kind::kConstant:
        values_[s] = slot.constant;
        break;
      case Slot::Kind::kInput:
        values_[s] = inputs[static_cast<size_t>(slot.input_index)];
        break;
      case Slot::Kind::kParam:
        // Re-read every run: SetValue (checkpoint restore, the RMIR virtual
        // step) may have replaced the parameter's storage.
        values_[s] = slot.param->value();
        break;
      case Slot::Kind::kOp:
        values_[s] = empty_;
        break;
    }
  }
}

Tensor CompiledPlan::RunForward() {
  URCL_CHECK(!run_open_) << "RunForward while a backward is pending";
  if (!measuring_) arena_.BeginReplay();
  run_open_ = with_backward_;
  {
    pool::StorageHookScope hook(&arena_);
    for (size_t i = 0; i < instrs_.size(); ++i) {
      const Instr& instr = instrs_[i];
      if (instr.skipped) {
        // covered by a fused gate
      } else if (instr.fused_index >= 0) {
        RunFusedGate(fused_gates_[static_cast<size_t>(instr.fused_index)]);
      } else {
        values_[static_cast<size_t>(instr.out)] = EvalForward(instr);
      }
      for (const int dead : drop_after_[i]) values_[static_cast<size_t>(dead)] = empty_;
    }
    root_out_.CopyFrom(values_[static_cast<size_t>(root_)]);
  }
  if (!with_backward_) {
    if (!measuring_) arena_.EndReplay();
    ClearRunState();
  }
  return root_out_;
}

void CompiledPlan::RunBackward() {
  URCL_CHECK(with_backward_ && run_open_) << "RunBackward without a forward";
  {
    pool::StorageHookScope hook(&arena_);
    AccumulateSlot(root_, Tensor::Full(slots_[static_cast<size_t>(root_)].shape, 1.0f));
    for (auto it = backward_order_.rbegin(); it != backward_order_.rend(); ++it) {
      const int s = *it;
      const Slot& slot = slots_[static_cast<size_t>(s)];
      // Same skip rule as the tape: leaves have no closure; a slot whose
      // gradient never arrived (quarantined path upstream) contributes
      // nothing.
      if (slot.kind != Slot::Kind::kOp) continue;
      if (!has_grad_[static_cast<size_t>(s)]) continue;
      const Instr& instr = instrs_[static_cast<size_t>(slot.producer)];
      if (instr.is_alias) continue;
      ExecBackwardThunk(instr);
      // A slot's gradient and value are dead once its own thunk ran: every
      // consumer's thunk ran earlier (reverse topological order).
      grads_[static_cast<size_t>(s)] = empty_;
      has_grad_[static_cast<size_t>(s)] = 0;
      if (s != root_) values_[static_cast<size_t>(s)] = empty_;
    }
  }
  if (!measuring_) arena_.EndReplay();
  run_open_ = false;
  ClearRunState();
}

void CompiledPlan::Abort() {
  if (run_open_ && !measuring_) arena_.AbortReplay();
  run_open_ = false;
  ClearRunState();
}

void CompiledPlan::ClearRunState() {
  for (size_t s = 0; s < slots_.size(); ++s) {
    values_[s] = empty_;
    grads_[s] = empty_;
    has_grad_[s] = 0;
  }
}

Tensor CompiledPlan::EvalForward(const Instr& instr) {
  const auto V = [this, &instr](size_t i) -> const Tensor& {
    return values_[static_cast<size_t>(instr.parents[i])];
  };
  if (instr.is_alias) return V(0);
  switch (instr.kind) {
    case OpKind::kAdd: return top::Add(V(0), V(1));
    case OpKind::kSub: return top::Sub(V(0), V(1));
    case OpKind::kMul: return top::Mul(V(0), V(1));
    case OpKind::kDiv: return top::Div(V(0), V(1));
    case OpKind::kAddScalar: return top::AddScalar(V(0), instr.attrs.scalar);
    case OpKind::kMulScalar: return top::MulScalar(V(0), instr.attrs.scalar);
    case OpKind::kExp: return top::Exp(V(0));
    case OpKind::kLog: return top::Log(V(0));
    case OpKind::kSqrt: return top::Sqrt(V(0));
    case OpKind::kAbs: return top::Abs(V(0));
    case OpKind::kTanh: return top::Tanh(V(0));
    case OpKind::kSigmoid: return top::Sigmoid(V(0));
    case OpKind::kRelu: return top::Relu(V(0));
    case OpKind::kLeakyRelu: {
      const float slope = instr.attrs.scalar;
      return top::Map(V(0), [slope](float x) { return x > 0.0f ? x : slope * x; });
    }
    case OpKind::kSquare: return top::Square(V(0));
    case OpKind::kMatMul: return top::MatMul(V(0), V(1));
    case OpKind::kSum: return top::Sum(V(0), instr.attrs.ints, instr.attrs.flag);
    case OpKind::kMean: return top::Mean(V(0), instr.attrs.ints, instr.attrs.flag);
    case OpKind::kReshape: return V(0).Reshape(instr.out_shape);
    case OpKind::kTranspose: return top::Transpose(V(0), instr.attrs.ints);
    case OpKind::kSlice: return top::Slice(V(0), instr.attrs.ints, instr.attrs.ints2);
    case OpKind::kConcat: {
      std::vector<Tensor> parts;
      parts.reserve(instr.parents.size());
      for (const int p : instr.parents) parts.push_back(values_[static_cast<size_t>(p)]);
      return top::Concat(parts, instr.attrs.axis);
    }
    case OpKind::kPad:
      return top::Pad(V(0), instr.attrs.axis, instr.attrs.before, instr.attrs.after);
    case OpKind::kBroadcastTo: return top::BroadcastTo(V(0), instr.out_shape);
    case OpKind::kSoftmax: return top::Softmax(V(0), instr.attrs.axis);
    case OpKind::kTemporalConv2d: return top::TemporalConv2d(V(0), V(1), instr.attrs.axis);
    case OpKind::kDropout: break;
  }
  URCL_CHECK(false) << "unreplayable op in compiled plan";
  return empty_;
}

void CompiledPlan::RunFusedGate(const FusedGate& gate) {
  const Tensor& x = values_[static_cast<size_t>(gate.x)];
  const Tensor& b1 = values_[static_cast<size_t>(gate.b1)];
  const Tensor& y = values_[static_cast<size_t>(gate.y)];
  const Tensor& b2 = values_[static_cast<size_t>(gate.b2)];
  Tensor t = Tensor::Uninitialized(x.shape());
  Tensor s = Tensor::Uninitialized(x.shape());
  Tensor o = Tensor::Uninitialized(x.shape());
  const int64_t channels = x.dim(1);
  const int64_t rows = x.dim(0) * channels;
  const int64_t row_len = x.dim(2) * x.dim(3);
  const float* px = x.data();
  const float* py = y.data();
  const float* pb1 = b1.data();
  const float* pb2 = b2.data();
  float* pt = t.mutable_data();
  float* ps = s.mutable_data();
  float* po = o.mutable_data();
  const int64_t grain = std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, row_len));
  runtime::ParallelFor(0, rows, grain, [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      const int64_t c = r % channels;
      const float bias1 = pb1[c];
      const float bias2 = pb2[c];
      const int64_t base = r * row_len;
      for (int64_t i = 0; i < row_len; ++i) {
        // Exactly the unfused scalar math: one rounding per add (IEEE, same
        // as the SIMD broadcast add), std::tanh / the sigmoid expression
        // verbatim from tensor_ops.cc, then the product — so the three
        // written slots are bitwise what Tanh(Add(...)) etc. would produce.
        const float tv = std::tanh(px[base + i] + bias1);
        const float sv = 1.0f / (1.0f + std::exp(-(py[base + i] + bias2)));
        pt[base + i] = tv;
        ps[base + i] = sv;
        po[base + i] = tv * sv;
      }
    }
  });
  values_[static_cast<size_t>(gate.tanh_out)] = t;
  values_[static_cast<size_t>(gate.sigmoid_out)] = s;
  values_[static_cast<size_t>(gate.mul_out)] = o;
}

void CompiledPlan::AccumulateSlot(int slot_index, const Tensor& delta) {
  Slot& slot = slots_[static_cast<size_t>(slot_index)];
  if (slot.kind == Slot::Kind::kParam) {
    // Parameters keep the tape's accumulation machinery (and thus exactly
    // its semantics), so ClipGradNorm and Adam see nothing new.
    slot.param->AccumulateGrad(delta);
    return;
  }
  if (!slot.requires_grad) return;
  URCL_CHECK(delta.shape() == slot.shape) << "gradient shape mismatch in compiled plan";
  if (!has_grad_[static_cast<size_t>(slot_index)]) {
    grads_[static_cast<size_t>(slot_index)] = delta.Clone();
    has_grad_[static_cast<size_t>(slot_index)] = 1;
  } else {
    grads_[static_cast<size_t>(slot_index)].AddInPlace(delta);
  }
}

void CompiledPlan::ExecBackwardThunk(const Instr& instr) {
  const Tensor& g = grads_[static_cast<size_t>(instr.out)];
  const auto V = [this, &instr](size_t i) -> const Tensor& {
    return values_[static_cast<size_t>(instr.parents[i])];
  };
  const auto needs = [this, &instr](size_t i) {
    return slots_[static_cast<size_t>(instr.parents[i])].requires_grad;
  };
  const auto shape = [this, &instr](size_t i) -> const Shape& {
    return slots_[static_cast<size_t>(instr.parents[i])].shape;
  };
  const int p0 = instr.parents.empty() ? -1 : instr.parents[0];
  const int p1 = instr.parents.size() > 1 ? instr.parents[1] : -1;
  switch (instr.kind) {
    case OpKind::kAdd:
      if (needs(0)) AccumulateSlot(p0, top::ReduceTo(g, shape(0)));
      if (needs(1)) AccumulateSlot(p1, top::ReduceTo(g, shape(1)));
      break;
    case OpKind::kSub:
      if (needs(0)) AccumulateSlot(p0, top::ReduceTo(g, shape(0)));
      if (needs(1)) AccumulateSlot(p1, top::ReduceTo(top::Neg(g), shape(1)));
      break;
    case OpKind::kMul:
      if (needs(0)) AccumulateSlot(p0, top::ReduceTo(top::Mul(g, V(1)), shape(0)));
      if (needs(1)) AccumulateSlot(p1, top::ReduceTo(top::Mul(g, V(0)), shape(1)));
      break;
    case OpKind::kDiv:
      if (needs(0)) AccumulateSlot(p0, top::ReduceTo(top::Div(g, V(1)), shape(0)));
      if (needs(1)) {
        const Tensor b2 = top::Square(V(1));
        const Tensor db = top::Neg(top::Div(top::Mul(g, V(0)), b2));
        AccumulateSlot(p1, top::ReduceTo(db, shape(1)));
      }
      break;
    case OpKind::kAddScalar:
      if (needs(0)) AccumulateSlot(p0, g);
      break;
    case OpKind::kMulScalar:
      if (needs(0)) AccumulateSlot(p0, top::MulScalar(g, instr.attrs.scalar));
      break;
    case OpKind::kExp:
      if (needs(0)) AccumulateSlot(p0, top::Mul(g, values_[static_cast<size_t>(instr.out)]));
      break;
    case OpKind::kLog:
      if (needs(0)) AccumulateSlot(p0, top::Div(g, V(0)));
      break;
    case OpKind::kSqrt:
      if (needs(0)) {
        const Tensor& saved = values_[static_cast<size_t>(instr.out)];
        AccumulateSlot(p0, top::Div(g, top::MulScalar(saved, 2.0f)));
      }
      break;
    case OpKind::kAbs:
      if (needs(0)) AccumulateSlot(p0, top::Mul(g, top::Sign(V(0))));
      break;
    case OpKind::kTanh:
      if (needs(0)) {
        const Tensor& saved = values_[static_cast<size_t>(instr.out)];
        const Tensor one_minus = top::AddScalar(top::Neg(top::Square(saved)), 1.0f);
        AccumulateSlot(p0, top::Mul(g, one_minus));
      }
      break;
    case OpKind::kSigmoid:
      if (needs(0)) {
        const Tensor& saved = values_[static_cast<size_t>(instr.out)];
        const Tensor ds = top::Mul(saved, top::AddScalar(top::Neg(saved), 1.0f));
        AccumulateSlot(p0, top::Mul(g, ds));
      }
      break;
    case OpKind::kRelu:
      if (needs(0)) {
        const Tensor mask = top::Map(V(0), [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
        AccumulateSlot(p0, top::Mul(g, mask));
      }
      break;
    case OpKind::kLeakyRelu:
      if (needs(0)) {
        const float slope = instr.attrs.scalar;
        const Tensor mask = top::Map(V(0), [slope](float x) { return x > 0.0f ? 1.0f : slope; });
        AccumulateSlot(p0, top::Mul(g, mask));
      }
      break;
    case OpKind::kSquare:
      if (needs(0)) AccumulateSlot(p0, top::Mul(g, top::MulScalar(V(0), 2.0f)));
      break;
    case OpKind::kMatMul: {
      if (needs(0)) {
        AccumulateSlot(p0, top::ReduceTo(top::MatMul(g, top::TransposeLast2(V(1))), shape(0)));
      }
      if (needs(1)) {
        AccumulateSlot(p1, top::ReduceTo(top::MatMul(top::TransposeLast2(V(0)), g), shape(1)));
      }
      break;
    }
    case OpKind::kSum:
      if (needs(0)) AccumulateSlot(p0, top::BroadcastTo(g.Reshape(instr.kept), shape(0)));
      break;
    case OpKind::kMean:
      if (needs(0)) {
        AccumulateSlot(
            p0, top::MulScalar(top::BroadcastTo(g.Reshape(instr.kept), shape(0)), instr.scale));
      }
      break;
    case OpKind::kReshape:
      if (needs(0)) AccumulateSlot(p0, g.Reshape(shape(0)));
      break;
    case OpKind::kTranspose:
      if (needs(0)) AccumulateSlot(p0, top::Transpose(g, instr.inverse_perm));
      break;
    case OpKind::kSlice:
      if (needs(0)) AccumulateSlot(p0, top::UnSlice(g, shape(0), instr.attrs.ints));
      break;
    case OpKind::kConcat: {
      int64_t offset = 0;
      for (size_t i = 0; i < instr.parents.size(); ++i) {
        const Shape& part = shape(i);
        if (needs(i)) {
          std::vector<int64_t> starts(static_cast<size_t>(g.rank()), 0);
          starts[static_cast<size_t>(instr.canonical)] = offset;
          AccumulateSlot(instr.parents[i], top::Slice(g, starts, part.dims()));
        }
        offset += part.dim(instr.canonical);
      }
      break;
    }
    case OpKind::kPad:
      if (needs(0)) {
        std::vector<int64_t> starts(static_cast<size_t>(g.rank()), 0);
        starts[static_cast<size_t>(instr.canonical)] = instr.attrs.before;
        AccumulateSlot(p0, top::Slice(g, starts, shape(0).dims()));
      }
      break;
    case OpKind::kBroadcastTo:
      if (needs(0)) AccumulateSlot(p0, top::ReduceTo(g, shape(0)));
      break;
    case OpKind::kSoftmax: {
      if (needs(0)) {
        const Tensor& saved = values_[static_cast<size_t>(instr.out)];
        const Tensor gy = top::Mul(g, saved);
        const Tensor total = top::Sum(gy, {instr.canonical}, /*keepdims=*/true);
        AccumulateSlot(p0, top::Mul(top::Sub(g, total), saved));
      }
      break;
    }
    case OpKind::kTemporalConv2d: {
      std::optional<Tensor> d_in, d_w;
      if (needs(0)) d_in.emplace(shape(0));
      if (needs(1)) d_w.emplace(shape(1));
      top::TemporalConv2dBackward(g, V(0), V(1), instr.attrs.axis, d_in ? &*d_in : nullptr,
                                  d_w ? &*d_w : nullptr);
      if (d_in) AccumulateSlot(p0, *d_in);
      if (d_w) AccumulateSlot(p1, *d_w);
      break;
    }
    case OpKind::kDropout:
      URCL_CHECK(false) << "dropout in compiled backward";
      break;
  }
}

CompiledPlan* PlanCache::Lookup(const std::string& key) {
  auto it = entries_.find(key);
  return it == entries_.end() || it->second.idle.empty() ? nullptr
                                                         : it->second.idle.back().get();
}

std::unique_ptr<CompiledPlan> PlanCache::Take(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.idle.empty()) return nullptr;
  std::unique_ptr<CompiledPlan> plan = std::move(it->second.idle.back());
  it->second.idle.pop_back();
  return plan;
}

bool PlanCache::ShouldCapture(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? entries_.size() < capacity_ : !it->second.failed;
}

void PlanCache::Insert(const std::string& key, std::unique_ptr<CompiledPlan> plan) {
  Entry& entry = entries_[key];
  if (plan == nullptr) {
    entry.failed = true;
  } else {
    entry.idle.push_back(std::move(plan));
  }
}

std::string PlanCache::ShapeKey(std::initializer_list<const Tensor*> tensors) {
  std::string key;
  for (const Tensor* t : tensors) {
    if (!key.empty()) key += '|';
    bool first = true;
    for (const int64_t d : t->shape().dims()) {
      if (!first) key += 'x';
      first = false;
      key += std::to_string(d);
    }
  }
  return key;
}

}  // namespace exec
}  // namespace urcl
