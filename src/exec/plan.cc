#include "exec/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "autograd/lint.h"
#include "common/check.h"
#include "runtime/parallel.h"

namespace urcl {
namespace exec {

using autograd::Variable;
using autograd::record::OpAttrs;
using autograd::record::OpKind;
using autograd::record::OpName;

ExecutorMode DefaultExecutorMode() {
  const char* value = std::getenv("URCL_EXEC");
  if (value != nullptr && std::string(value) == "tape") return ExecutorMode::kTape;
  return ExecutorMode::kPlan;
}

const char* ExecutorModeName(ExecutorMode mode) {
  return mode == ExecutorMode::kPlan ? "plan" : "tape";
}

namespace {

// Output shape of a Sum/Mean over `axes` (all axes when empty).
Shape ReducedShape(const Shape& in, const std::vector<int64_t>& axes, bool keepdims) {
  std::vector<int64_t> canon;
  if (axes.empty()) {
    for (int64_t i = 0; i < in.rank(); ++i) canon.push_back(i);
  } else {
    for (const int64_t a : axes) canon.push_back(in.CanonicalAxis(a));
  }
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < in.rank(); ++i) {
    if (std::find(canon.begin(), canon.end(), i) == canon.end()) {
      dims.push_back(in.dim(i));
    } else if (keepdims) {
      dims.push_back(1);
    }
  }
  return Shape(dims);
}

}  // namespace

// Observes the capture build's op stream and assembles the plan's slot graph.
class GraphRecorder : public autograd::record::TapeListener {
 public:
  GraphRecorder(CompiledPlan* plan, const std::vector<Tensor>& inputs)
      : plan_(plan), inputs_(inputs) {}

  void OnOp(OpKind kind, const Variable& out, const std::vector<Variable>& parents,
            const OpAttrs& attrs) override {
    if (!error_.empty()) return;
    if (kind == OpKind::kDropout) {
      error_ = "dropout draws a per-step RNG mask; the graph is not replayable";
      return;
    }
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
    const std::string name = instr.is_alias ? "stop_gradient" : OpName(instr.kind);
    if (instr.is_alias) {
      expect = shape_of(instr.parents[0]);
    } else {
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
      *error = "AOT shape inference: no rule for op " + name;
      return false;
    }
    if (!(expect == got)) {
      *error = "AOT shape inference: " + name + " disagrees with the captured output shape";
      return false;
    }
    instr.out_shape = got;
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
      // Backward thunks run for every grad-carrying op, fused or not, and
      // read what their definition's liveness facts name.
      if (instr.is_alias || !slots_[static_cast<size_t>(instr.out)].requires_grad) continue;
      if (autograd::record::OpReadsInputs(instr.kind)) {
        for (const int p : instr.parents) needed_in_backward_[static_cast<size_t>(p)] = 1;
      }
      if (autograd::record::OpReadsOutput(instr.kind)) {
        needed_in_backward_[static_cast<size_t>(instr.out)] = 1;
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

// One instruction's slots as the op definition's operands. In backward the
// view enforces the definition's liveness facts: AnalyzeLiveness keeps only
// the values those facts name, so any other read aborts with the op's name.
class CompiledPlan::SlotOperands final : public autograd::record::OpOperands {
 public:
  SlotOperands(CompiledPlan* plan, const Instr& instr, bool backward)
      : plan_(plan), instr_(instr), backward_(backward) {}

  size_t size() const override { return instr_.parents.size(); }
  const Shape& shape(size_t i) const override { return plan_->slots_[slot(i)].shape; }
  const Tensor& value(size_t i) const override {
    URCL_CHECK(!backward_ || autograd::record::OpReadsInputs(instr_.kind))
        << "backward of op '" << OpName(instr_.kind) << "' read input " << i
        << ", which its liveness facts let the plan drop";
    return plan_->values_[slot(i)];
  }
  const Tensor& output() const override {
    URCL_CHECK(autograd::record::OpReadsOutput(instr_.kind))
        << "backward of op '" << OpName(instr_.kind)
        << "' read its output, which its liveness facts let the plan drop";
    return plan_->values_[static_cast<size_t>(instr_.out)];
  }
  bool needs_grad(size_t i) const override { return plan_->slots_[slot(i)].requires_grad; }
  void Accumulate(size_t i, const Tensor& delta) override {
    plan_->AccumulateSlot(instr_.parents[i], delta);
  }

 private:
  size_t slot(size_t i) const { return static_cast<size_t>(instr_.parents[i]); }

  CompiledPlan* plan_;
  const Instr& instr_;
  bool backward_;
};

Tensor CompiledPlan::EvalForward(const Instr& instr) {
  if (instr.is_alias) return values_[static_cast<size_t>(instr.parents[0])];
  return autograd::record::OpForward(instr.kind, instr.attrs,
                                     SlotOperands(this, instr, /*backward=*/false));
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
  SlotOperands operands(this, instr, /*backward=*/true);
  autograd::record::OpBackward(instr.kind, instr.attrs, grads_[static_cast<size_t>(instr.out)],
                               operands);
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
