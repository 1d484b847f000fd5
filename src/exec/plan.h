// Static-graph compiled executor (DESIGN.md §12, ROADMAP open item 1).
//
// The steady-state training/inference step replays the *same* autograd graph
// thousands of times per stage; the tape re-discovers it every step: every op
// heap-allocates a Node and its parent edges and acquires pool storage under
// a mutex. CompiledPlan captures
// one tape build of the graph through the autograd/record.h listener and
// turns it into a define-once/run-many program:
//
//   capture   GraphRecorder observes the op stream (kind, parents, closed-
//             form attributes) and classifies every leaf: per-step input
//             (matched by storage identity and rebound by position every
//             run; serving names a snapshot's parameters here too, so one
//             plan serves every snapshot), trainable parameter (kept as a
//             Variable so gradient accumulation and Adam state stay the
//             tape's), or captured constant (e.g. the dense graph supports,
//             which are step-invariant for a fixed adjacency).
//   compile   Ahead-of-time shape inference re-derives every op's output
//             shape with the op definition's rule (record::OpOutputShape,
//             which the graph linter checks too) and must agree with the
//             captured shapes; the backward program is the tape's own
//             schedule (autograd::internal::BackwardOrder over the captured
//             graph) mapped onto slots; value lifetimes are analyzed so dead
//             intermediates are dropped at their last use.
//   measure   One instrumented execution records every storage acquisition
//             and its lifetime; exec::PlanArena packs them into a single
//             arena block with lifetime-based slot reuse (arena.h).
//   replay    Steady-state runs execute one thunk per op over arena slots:
//             zero tape nodes, zero BufferPool acquisitions. Results are
//             bitwise-identical to the tape — forward values, gradients, and
//             Adam state — because each thunk calls the op's one definition
//             (OpForward/OpBackward in autograd/record.h) that the tape calls
//             too, in the tape's order on the same operands (asserted by
//             memcmp in tests/exec_test). The per-op profiler times the same
//             definitions, so a replay charges exactly the tape's cells.
//
// The tape remains the reference path and the fallback: a capture fails on
// anything unreplayable (dropout's per-step RNG mask, graphs built outside
// the listener), and a shape whose capture failed stays on the tape.
// PlanCache::Run, which every graph family calls, is the one place that
// decides between them (the contract in DESIGN.md §12).
#ifndef URCL_EXEC_PLAN_H_
#define URCL_EXEC_PLAN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/record.h"
#include "autograd/variable.h"
#include "common/thread_annotations.h"
#include "exec/arena.h"
#include "tensor/tensor.h"

namespace urcl {
namespace exec {

// Executor of one PlanCache: kPlan compiles steady-state graphs; kTape runs
// every build on the autograd tape (the reference executor).
enum class ExecutorMode { kPlan, kTape };

const char* ExecutorModeName(ExecutorMode mode);

// One value slot in the compiled program: an op output, or one of the three
// leaf classes the recorder distinguishes.
struct Slot {
  enum class Kind { kConstant, kInput, kParam, kOp };

  Kind kind = Kind::kConstant;
  Shape shape;
  bool requires_grad = false;
  int input_index = -1;                     // kInput: position in BindInputs
  Tensor constant{Shape{}};                 // kConstant: captured value
  std::optional<autograd::Variable> param;  // kParam: the live parameter
  int producer = -1;                        // kOp: producing instruction
};

// One instruction: runs an op through its autograd/record.h definition.
struct Instr {
  autograd::record::OpKind kind = autograd::record::OpKind::kAdd;
  bool is_alias = false;  // StopGradient: out aliases parents[0]'s value
  autograd::record::OpAttrs attrs;
  int out = -1;
  std::vector<int> parents;
};

class CompiledPlan {
 public:
  struct CaptureResult {
    std::unique_ptr<CompiledPlan> plan;  // null: capture failed, use the tape
    std::optional<autograd::Variable> root;  // the tape build's result
    std::string error;                       // why capture failed
  };

  // Runs `build` (a tape forward) under the capture listener and compiles
  // the recorded graph. `inputs` are the per-step tensors, identified by
  // storage, that BindInputs rebinds each run. The tape Variable is
  // returned so the capturing step can still complete on the tape.
  //
  // When `with_backward`, the gradient program is compiled too and the
  // measure run executes forward+backward; the parameter gradients it
  // accumulated are cleared again, so the tape build's backward starts from
  // the zero gradients a caller sets before its forward. A parameter that
  // already holds a gradient fails the capture (HeldGradient), untouched.
  static CaptureResult Capture(const std::vector<Tensor>& inputs,
                               const std::function<autograd::Variable()>& build,
                               bool with_backward);

  // Rebinds the per-step inputs (shapes must match capture) and refreshes
  // parameter and constant slot values. Call before every RunForward.
  void BindInputs(const std::vector<Tensor>& inputs);

  // Executes the forward program; returns the root value (plan-owned
  // storage, overwritten by the next run — callers needing to retain it
  // must Clone). For with_backward plans the arena replay spans
  // RunForward..RunBackward; call RunBackward or Abort before the next run.
  Tensor RunForward();

  // Executes the gradient program, seeding the (scalar) root with ones.
  // Parameter gradients accumulate through Variable::AccumulateGrad, so
  // ClipGradNorm/Adam behave exactly as after a tape backward. They must be
  // zero before every run, as the trainer leaves them: their first
  // accumulation allocates, and the arena aborts a replay whose allocations
  // differ from the measure run's. PlanCache::Run checks HeldGradient first.
  void RunBackward();

  // Empty when no parameter of a with_backward plan holds a gradient, else
  // why the plan cannot run: "parameter <i> <shape> holds a gradient", i
  // counting parameters in capture order.
  std::string HeldGradient() const;

  // Abandons a started run (e.g. the trainer quarantined a non-finite
  // loss between forward and backward) and resets the arena.
  void Abort();

 private:
  friend class GraphRecorder;

  // The op definitions' operand view over one instruction's slots.
  class SlotOperands;

  CompiledPlan() = default;

  // Compilation stages (see plan.cc).
  bool InferShapes(std::string* error);
  void AnalyzeLiveness();
  bool Measure(const std::vector<Tensor>& inputs, std::string* error);

  // Execution.
  Tensor EvalForward(const Instr& instr);
  void ExecBackwardThunk(const Instr& instr);
  void AccumulateSlot(int slot, const Tensor& delta);
  void ClearRunState();

  std::vector<Slot> slots_;
  std::vector<Instr> instrs_;
  std::vector<Shape> input_shapes_;
  int root_ = -1;
  bool with_backward_ = false;
  std::vector<int> backward_order_;  // BackwardOrder as slots, executed in reverse
  std::vector<uint8_t> needed_in_backward_;
  std::vector<std::vector<int>> drop_after_;  // instr -> slots dead after it

  PlanArena arena_;
  bool measuring_ = false;
  bool run_open_ = false;  // forward ran, backward pending

  // Run state (sized once at compile; no allocation during Run).
  std::vector<Tensor> values_;
  std::vector<Tensor> grads_;
  std::vector<uint8_t> has_grad_;
  Tensor empty_{Shape{}};    // premade: dropping a slot is a cheap copy
  Tensor root_out_{Shape{}}; // pool-backed output buffer, reused every run
};

class PlanCache;

// One run through PlanCache::Run: a replayed plan, or the tape build (which
// may have captured a plan for later runs). Destruction hands the plan back
// to its cache, aborting it first when a with_backward run skipped its
// backward (the trainer's quarantine of a non-finite loss).
class PlanRun {
 public:
  PlanRun(PlanRun&&) = default;
  PlanRun& operator=(PlanRun&&) = delete;
  ~PlanRun();

  // The root's value. A plan's next run overwrites it: Clone to keep it.
  const Tensor& value() const { return plan_ != nullptr ? *value_ : tape_root_->value(); }
  // The with_backward gradient program: the plan's, or the tape's.
  void Backward();
  bool compiled() const { return plan_ != nullptr; }  // false: the tape answered
  bool captured() const { return captured_; }  // this run attempted a capture
  // The tape build's root; null when a plan answered.
  const autograd::Variable* tape_root() const {
    return tape_root_.has_value() ? &*tape_root_ : nullptr;
  }

 private:
  friend class PlanCache;
  PlanRun(PlanCache* cache, bool with_backward)
      : cache_(cache), backward_pending_(with_backward) {}

  PlanCache* cache_;
  std::vector<std::unique_ptr<CompiledPlan>>* idle_ = nullptr;  // where plan_ returns
  std::unique_ptr<CompiledPlan> plan_;
  std::optional<Tensor> value_;  // plan_'s root output
  std::optional<autograd::Variable> tape_root_;
  bool backward_pending_;
  bool captured_ = false;
};

// The compiled plans of one graph family (the trainer's train, virtual and
// per_item families; serving's forward), each shape keeping a list of idle
// plans so concurrent runs on one shape each take their own. Thread-safe.
class PlanCache {
 public:
  PlanCache(std::string family, ExecutorMode mode)
      : family_(std::move(family)), mode_(mode) {}

  // The one executor decision. Replays an idle plan compiled for the shapes
  // of `inputs` (the per-step tensors a plan rebinds by position). Otherwise
  // runs `build` on the tape, capturing it into a plan when no capture of
  // these shapes failed and the cache has room; a kPlanCompile/kPlanFallback
  // flight event (event_a, event_b, "<family>: <shapes | capture error>")
  // records each capture, and a failed shape stays on the tape. A
  // with_backward call whose plan has a parameter holding a gradient runs on
  // the tape, which adds into that gradient, and records a kPlanFallback
  // with the plan's HeldGradient reason. kTape mode always runs the tape.
  PlanRun Run(const std::vector<Tensor>& inputs, const std::function<autograd::Variable()>& build,
              bool with_backward, int64_t event_a, int64_t event_b);

  size_t num_compiled() const;  // idle plans across all shapes
  int64_t captures() const;     // captures attempted since construction

 private:
  friend class PlanRun;
  static constexpr size_t kCapacity = 8;  // shapes; later shapes stay on the tape

  struct Entry {
    std::vector<std::unique_ptr<CompiledPlan>> idle;
    bool failed = false;
  };

  const std::string family_;
  const ExecutorMode mode_;
  mutable Mutex mu_;
  // Keyed by each input's rank and dims. Never erased: runs point into it.
  std::map<std::vector<int64_t>, Entry> entries_ URCL_GUARDED_BY(mu_);
  int64_t captures_ URCL_GUARDED_BY(mu_) = 0;
};

}  // namespace exec
}  // namespace urcl

#endif  // URCL_EXEC_PLAN_H_
