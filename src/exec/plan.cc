#include "exec/plan.h"

#include <unordered_map>

#include "common/check.h"
#include "obs/flight_recorder.h"

namespace urcl {
namespace exec {

using autograd::Variable;
using autograd::record::OpAttrs;
using autograd::record::OpKind;
using autograd::record::OpName;

const char* ExecutorModeName(ExecutorMode mode) {
  return mode == ExecutorMode::kPlan ? "plan" : "tape";
}

// Observes the capture build's op stream and assembles the plan's slot graph.
class GraphRecorder : public autograd::record::TapeListener {
 public:
  GraphRecorder(CompiledPlan* plan, const std::vector<Tensor>& inputs)
      : plan_(plan), inputs_(inputs) {}

  void OnOp(OpKind kind, const Variable& out, const std::vector<Variable>& parents,
            const OpAttrs& attrs) override {
    if (!error_.empty()) return;
    Instr instr;
    instr.kind = kind;
    instr.attrs = attrs;
    for (const Variable& p : parents) instr.parents.push_back(SlotFor(p));
    if (!error_.empty()) return;
    Finish(out, std::move(instr));
  }

  // Slot index of a node seen during capture, or -1.
  int SlotIndexOf(const autograd::internal::Node* node) const {
    auto it = slot_of_.find(node);
    return it == slot_of_.end() ? -1 : it->second;
  }

  const std::string& error() const { return error_; }

 private:
  int SlotFor(const Variable& v) {
    const auto* node = v.internal_node().get();
    auto it = slot_of_.find(node);
    if (it != slot_of_.end()) return it->second;
    // An unseen leaf. If it records parents it is an op output, with
    // gradients flowing, produced before the listener was installed —
    // capturing it as a constant would silently freeze a live subgraph, so
    // abort instead.
    if (!v.internal_node()->parents.empty()) {
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
  plan->root_ = recorder.SlotIndexOf(result.root->internal_node().get());
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
    // The tape's own backward schedule, each node mapped to its slot.
    for (autograd::internal::Node* node :
         autograd::internal::BackwardOrder(result.root->internal_node().get())) {
      const int slot = recorder.SlotIndexOf(node);
      if (slot < 0) {
        result.error = "backward reaches a node the capture did not record";
        return result;
      }
      plan->backward_order_.push_back(slot);
    }
    // The measure run must see the zero gradients every replay will start
    // from; zeroing a held one would drop what the tape accumulates into it.
    result.error = plan->HeldGradient();
    if (!result.error.empty()) return result;
  }
  if (!plan->InferShapes(&result.error)) return result;
  plan->AnalyzeLiveness();
  const bool measured = plan->Measure(inputs, &result.error);
  if (with_backward) {
    // The measure run accumulated real parameter gradients; clear them.
    for (const Slot& slot : plan->slots_) {
      if (slot.kind == Slot::Kind::kParam) slot.param->ZeroGrad();
    }
  }
  if (!measured) return result;
  result.plan = std::move(plan);
  return result;
}

bool CompiledPlan::InferShapes(std::string* error) {
  for (const Instr& instr : instrs_) {
    std::vector<Shape> inputs;
    for (const int p : instr.parents) inputs.push_back(slots_[static_cast<size_t>(p)].shape);
    const std::string name = OpName(instr.kind);
    Shape expect;
    if (!autograd::record::OpOutputShape(instr.kind, instr.attrs, inputs, &expect)) {
      *error = "AOT shape inference: invalid input shapes for " + name;
      return false;
    }
    const Shape& got = slots_[static_cast<size_t>(instr.out)].shape;
    if (expect != got) {
      *error = "AOT shape inference: " + name + " disagrees with the captured output shape";
      return false;
    }
  }
  return true;
}

void CompiledPlan::AnalyzeLiveness() {
  drop_after_.assign(instrs_.size(), {});
  std::vector<int> last_use(slots_.size(), -1);
  for (size_t i = 0; i < instrs_.size(); ++i) {
    for (const int p : instrs_[i].parents) last_use[static_cast<size_t>(p)] = static_cast<int>(i);
  }
  needed_in_backward_.assign(slots_.size(), 0);
  if (with_backward_) {
    needed_in_backward_[static_cast<size_t>(root_)] = 1;
    for (const Instr& instr : instrs_) {
      // Backward thunks run for every grad-carrying op and read what their
      // definition's liveness facts name.
      if (!slots_[static_cast<size_t>(instr.out)].requires_grad) continue;
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
      values_[static_cast<size_t>(instrs_[i].out)] = EvalForward(instrs_[i]);
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
      ExecBackwardThunk(instrs_[static_cast<size_t>(slot.producer)]);
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

std::string CompiledPlan::HeldGradient() const {
  if (!with_backward_) return "";
  int index = 0;
  for (const Slot& slot : slots_) {
    if (slot.kind != Slot::Kind::kParam) continue;
    if (slot.param->internal_node()->has_grad) {
      return "parameter " + std::to_string(index) + " " + slot.shape.ToString() +
             " holds a gradient";
    }
    ++index;
  }
  return "";
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
  return autograd::record::OpForward(instr.kind, instr.attrs,
                                     SlotOperands(this, instr, /*backward=*/false));
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

PlanRun::~PlanRun() {
  if (plan_ == nullptr) return;
  if (backward_pending_) plan_->Abort();
  MutexLock lock(cache_->mu_);
  idle_->push_back(std::move(plan_));
}

void PlanRun::Backward() {
  URCL_CHECK(backward_pending_) << "PlanRun::Backward without a pending backward";
  backward_pending_ = false;
  if (plan_ != nullptr) {
    plan_->RunBackward();
  } else {
    tape_root_->Backward();
  }
}

PlanRun PlanCache::Run(const std::vector<Tensor>& inputs, const std::function<Variable()>& build,
                       bool with_backward, int64_t event_a, int64_t event_b) {
  PlanRun run(this, with_backward);
  Entry* entry = nullptr;
  bool capture = false;
  if (mode_ == ExecutorMode::kPlan) {
    std::vector<int64_t> key;
    for (const Tensor& t : inputs) {
      key.push_back(t.rank());
      key.insert(key.end(), t.shape().dims().begin(), t.shape().dims().end());
    }
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() && entries_.size() < kCapacity) {
      it = entries_.emplace(std::move(key), Entry{}).first;
    }
    if (it != entries_.end()) {
      entry = &it->second;
      run.idle_ = &entry->idle;
      capture = entry->idle.empty() && !entry->failed;
      if (!entry->idle.empty()) {
        run.plan_ = std::move(entry->idle.back());
        entry->idle.pop_back();
      }
    }
  }
  const std::string held = run.plan_ != nullptr ? run.plan_->HeldGradient() : "";
  if (!held.empty()) {
    {
      MutexLock lock(mu_);
      entry->idle.push_back(std::move(run.plan_));
    }
    obs::RecordFlightEvent(obs::FlightEventType::kPlanFallback, event_a, event_b,
                           (family_ + ": " + held).c_str());
    run.tape_root_ = build();
    return run;
  }
  if (run.plan_ != nullptr) {
    run.plan_->BindInputs(inputs);
    run.value_ = run.plan_->RunForward();
    return run;
  }
  if (!capture) {
    run.tape_root_ = build();
    return run;
  }

  CompiledPlan::CaptureResult captured = CompiledPlan::Capture(inputs, build, with_backward);
  const bool compiled = captured.plan != nullptr;
  std::string detail = family_ + ": ";
  if (!compiled) detail += captured.error;
  for (size_t i = 0; compiled && i < inputs.size(); ++i) {
    if (i > 0) detail += '|';
    for (int64_t d = 0; d < inputs[i].rank(); ++d) {
      if (d > 0) detail += 'x';
      detail += std::to_string(inputs[i].dim(d));
    }
  }
  obs::RecordFlightEvent(
      compiled ? obs::FlightEventType::kPlanCompile : obs::FlightEventType::kPlanFallback,
      event_a, event_b, detail.c_str());
  {
    MutexLock lock(mu_);
    ++captures_;
    if (compiled) {
      entry->idle.push_back(std::move(captured.plan));
    } else {
      entry->failed = true;
    }
  }
  // The capturing run completes on the tape build.
  run.tape_root_ = std::move(captured.root);
  run.captured_ = true;
  return run;
}

size_t PlanCache::num_compiled() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [key, entry] : entries_) n += entry.idle.size();
  return n;
}

int64_t PlanCache::captures() const {
  MutexLock lock(mu_);
  return captures_;
}

}  // namespace exec
}  // namespace urcl
