// Static-graph compiled executor (DESIGN.md §12, ROADMAP open item 1).
//
// The steady-state training/inference step replays the *same* autograd graph
// thousands of times per stage; the tape re-discovers it every step: every op
// heap-allocates a Node, a backward closure and a parents vector, acquires
// pool storage under a mutex, and re-derives shapes. CompiledPlan captures
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
//             shape closed-form (reusing the autograd/lint.cc rules) and
//             must agree with the captured shapes; the backward program is
//             derived by replaying Variable::BackwardWithSeed's exact DFS
//             over the slot graph; elementwise gate chains
//             Mul(Tanh(Add(x,b1)), Sigmoid(Add(y,b2))) are fused into one
//             parallel pass; value lifetimes are analyzed so dead
//             intermediates are dropped at their last use.
//   measure   One instrumented execution records every storage acquisition
//             and its lifetime; exec::PlanArena packs them into a single
//             arena block with lifetime-based slot reuse (arena.h).
//   replay    Steady-state runs execute direct kernel thunks over arena
//             slots: zero tape nodes, zero closures, zero BufferPool
//             acquisitions. Results are bitwise-identical to the tape —
//             forward values, gradients, and Adam state — because every
//             thunk runs the same ops:: kernel sequence in the same order
//             on the same operands (asserted by memcmp in tests/exec_test).
//
// The tape remains the reference path and the fallback: captures abort on
// anything unreplayable (dropout's per-step RNG mask, graphs built outside
// the listener) and callers fall back per the contract in DESIGN.md §12.
// URCL_EXEC=tape disables the compiled executor process-wide.
#ifndef URCL_EXEC_PLAN_H_
#define URCL_EXEC_PLAN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/record.h"
#include "autograd/variable.h"
#include "exec/arena.h"
#include "tensor/tensor.h"

namespace urcl {
namespace exec {

// Process-wide executor selection. kPlan compiles steady-state graphs;
// kTape is the escape hatch (URCL_EXEC=tape).
enum class ExecutorMode { kPlan, kTape };

// Initial mode from the URCL_EXEC environment variable ("tape" selects the
// tape; anything else, including unset, selects the compiled executor).
ExecutorMode DefaultExecutorMode();
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

// One instruction: re-executes an op via the shared ops:: kernels.
struct Instr {
  autograd::record::OpKind kind = autograd::record::OpKind::kAdd;
  bool is_alias = false;  // StopGradient: out aliases parents[0]'s value
  autograd::record::OpAttrs attrs;
  int out = -1;
  std::vector<int> parents;

  // Compile-time precomputation (mirrors what the tape closures capture).
  Shape out_shape;
  Shape kept;                        // sum/mean keepdims shape
  float scale = 0.0f;                // mean re-broadcast scale
  std::vector<int64_t> inverse_perm; // transpose backward
  int64_t canonical = 0;             // concat/pad/softmax canonical axis

  bool skipped = false;   // forward covered by a fused instruction
  int fused_index = -1;   // >= 0: run fused_gates[fused_index] instead
  int last_fwd_use = -1;  // liveness: last instr reading this instr's out
};

// A fused Mul(Tanh(Add(x,b1)), Sigmoid(Add(y,b2))) gate: one parallel pass
// writes the tanh, sigmoid and product slots, eliding both broadcast adds.
// Per-element math is exactly the unfused kernels' scalar form, so results
// are bitwise identical.
struct FusedGate {
  int x = -1, b1 = -1;  // tanh branch: full-shape input, [1,C,1,1] bias
  int y = -1, b2 = -1;  // sigmoid branch
  int tanh_out = -1, sigmoid_out = -1, mul_out = -1;
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
  // measure run executes forward+backward — accumulating real parameter
  // gradients as a side effect. Callers must ZeroGrad afterwards.
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
  // ClipGradNorm/Adam behave exactly as after a tape backward.
  void RunBackward();

  // Abandons a started run (e.g. the trainer quarantined a non-finite
  // loss between forward and backward) and resets the arena.
  void Abort();

  bool with_backward() const { return with_backward_; }
  int num_inputs() const { return static_cast<int>(input_shapes_.size()); }
  const Shape& input_shape(int index) const { return input_shapes_[static_cast<size_t>(index)]; }
  const PlanArena& arena() const { return arena_; }
  int64_t num_instrs() const { return static_cast<int64_t>(instrs_.size()); }
  int64_t num_fused() const { return static_cast<int64_t>(fused_gates_.size()); }

 private:
  friend class GraphRecorder;

  CompiledPlan() = default;

  // Compilation stages (see plan.cc).
  bool InferShapes(std::string* error);
  void DetectFusion();
  bool CompileBackward(std::string* error);
  void AnalyzeLiveness();
  bool Measure(const std::vector<Tensor>& inputs, std::string* error);

  // Execution.
  Tensor EvalForward(const Instr& instr);
  void RunFusedGate(const FusedGate& gate);
  void ExecBackwardThunk(const Instr& instr);
  void AccumulateSlot(int slot, const Tensor& delta);
  void ClearRunState();

  std::vector<Slot> slots_;
  std::vector<Instr> instrs_;
  std::vector<FusedGate> fused_gates_;
  std::vector<Shape> input_shapes_;
  int root_ = -1;
  bool with_backward_ = false;
  std::vector<int> backward_order_;  // post-order slots, executed in reverse
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

// A small shape-keyed cache of compiled plans for one graph family. The
// trainer keys its train/virtual/per-item families separately and keeps one
// plan per key (Lookup). Serving keeps a list of idle plans per key: a query
// Takes one, runs it with no lock held and Inserts it back, so concurrent
// queries on one shape each run their own plan. Not thread-safe; callers
// serialize externally.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 8) : capacity_(capacity) {}

  // An idle plan for this key, left in the cache, or null.
  CompiledPlan* Lookup(const std::string& key);
  // Removes and returns an idle plan for this key, or null.
  std::unique_ptr<CompiledPlan> Take(const std::string& key);
  // True when the caller should capture a plan for this key: no capture of
  // it has failed, and it already has an entry or the cache has room for
  // one. Keys beyond capacity, and keys whose capture failed, stay on the
  // tape permanently.
  bool ShouldCapture(const std::string& key) const;
  // Adds a plan to this key's idle list (a fresh capture, or one returned
  // after Take). A null plan records a failed capture.
  void Insert(const std::string& key, std::unique_ptr<CompiledPlan> plan);
  // Idle plans held across all keys.
  size_t num_compiled() const {
    size_t n = 0;
    for (const auto& [key, entry] : entries_) n += entry.idle.size();
    return n;
  }

  // Cache key from tensor shapes, e.g. "8x2x6x12|8x2x6x3".
  static std::string ShapeKey(std::initializer_list<const Tensor*> tensors);

 private:
  struct Entry {
    std::vector<std::unique_ptr<CompiledPlan>> idle;
    bool failed = false;  // a capture failed: this key stays on the tape
  };
  size_t capacity_;
  std::map<std::string, Entry> entries_;
};

}  // namespace exec
}  // namespace urcl

#endif  // URCL_EXEC_PLAN_H_
