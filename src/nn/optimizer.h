// The Adam optimizer over a list of trainable Variables.
#ifndef URCL_NN_OPTIMIZER_H_
#define URCL_NN_OPTIMIZER_H_

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"

namespace urcl {
namespace nn {

using autograd::Variable;

// Structured report of a non-finite value met during Step() when
// check_finite is enabled. The caller (which knows parameter names and the
// current training stage) turns this into an actionable message instead of
// silently training on NaNs.
struct NonFiniteReport {
  enum class Kind { kGradient, kParameter };
  int64_t param_index = -1;
  Kind kind = Kind::kGradient;
};

// Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
inline constexpr float kAdamBeta1 = 0.9f;
inline constexpr float kAdamBeta2 = 0.999f;
inline constexpr float kAdamEpsilon = 1e-8f;

struct AdamConfig {
  float lr = 1e-3f;
  // L2 penalty coupled into the gradient: Step() adds weight_decay * p to the
  // gradient before the moment updates (Adam + L2, not AdamW's decoupled decay).
  float weight_decay = 0.0f;
  // Opt-in robustness guard: when set, Step() scans gradients first (a
  // non-finite gradient skips the whole update and records a NonFiniteReport)
  // and parameters after the update; see last_step_report().
  bool check_finite = false;
};

// Adam (Kingma & Ba) with optional L2-coupled weight decay.
class Adam {
 public:
  Adam(std::vector<Variable> params, const AdamConfig& config);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  // Applies one update using the gradients currently stored on the params.
  void Step();

  // Clears all parameter gradients.
  void ZeroGrad();

  // Scales gradients so their global L2 norm is at most `max_norm`.
  // Returns the pre-clip norm. A non-finite norm leaves the gradients
  // untouched (scaling by max_norm/inf would zero or NaN them); the
  // check_finite guard is the mechanism that catches that case.
  float ClipGradNorm(float max_norm);

  // Set when the last Step() with check_finite enabled met a non-finite
  // gradient (the whole update is skipped) or produced a non-finite
  // parameter; empty after a clean step.
  const std::optional<NonFiniteReport>& last_step_report() const { return last_report_; }

  // Serializes the step counter and the first/second moments, in parameter
  // order, so a restored run continues bit-for-bit. Hyperparameters are not
  // written; they come from the caller's config.
  void SaveState(std::ostream& out) const;
  // Restores state written by SaveState over the same parameter list from
  // those bytes; returns an error (kDataLoss when the bytes are short or
  // damaged) on any mismatch, leaving the state untouched.
  Status LoadState(std::string_view bytes);

  int64_t step_count() const { return step_count_; }

 private:
  // Index of the first param with a non-finite gradient/value, or -1.
  int64_t FirstNonFiniteGrad() const;
  int64_t FirstNonFiniteParam() const;

  std::vector<Variable> params_;
  AdamConfig config_;
  int64_t step_count_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::optional<NonFiniteReport> last_report_;
};

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_OPTIMIZER_H_
