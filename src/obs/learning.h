// Learning-quality telemetry for the continual protocol: the per-stage
// evaluation matrix R[t][s] (the error metric on stage s's retained holdout
// measured after training through stage t), and the forgetting / backward-
// transfer statistics derived from it. This is the signal family the
// distribution-aware CL strategies queued on the roadmap (DOCL, R2R) key on,
// and what makes Table II-style forgetting visible run over run.
//
// Conventions (error metric, lower is better — MAE here):
//   forgetting(s)     = R[T][s] - R[s][s]   for the latest trained stage T
//                       (positive = stage s got worse after later training);
//   backward transfer = mean over s < T of (R[s][s] - R[T][s])
//                       (positive = later training *improved* old stages;
//                        BWT = -mean forgetting, the GEM sign convention
//                        adapted to an error metric).
//
// The recorder is plain data (no model/tensor dependencies): the protocol
// runner feeds it scalars. Exported two ways: registry gauges
// (urcl.learn.forgetting{stage=..}, urcl.learn.backward_transfer) and an
// EXPERIMENTS.md-compatible JSON document with the full matrix per stage.
#ifndef URCL_OBS_LEARNING_H_
#define URCL_OBS_LEARNING_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace urcl {
namespace obs {

class LearningTelemetry {
 public:
  // Records metric (e.g. denormalized MAE) measured on stage `eval_stage`'s
  // holdout after training through stage `trained_stage`. Re-recording the
  // same cell overwrites it.
  void Record(int64_t trained_stage, int64_t eval_stage, double metric);

  // R[t][s]; NaN when that cell was never recorded.
  double At(int64_t trained_stage, int64_t eval_stage) const;
  // R[s][s]; NaN when stage s was never evaluated right after training.
  double Diagonal(int64_t stage) const { return At(stage, stage); }
  // R[T][s] for the latest trained stage T; NaN when absent.
  double Latest(int64_t stage) const { return At(latest_trained_, stage); }

  // forgetting(s) as defined above; NaN when either cell is missing.
  double Forgetting(int64_t stage) const;
  // Mean forgetting over stages < latest with both cells present (0 when
  // fewer than two stages are recorded).
  double MeanForgetting() const;
  double BackwardTransfer() const { return -MeanForgetting(); }

  int64_t latest_trained_stage() const { return latest_trained_; }
  bool empty() const { return matrix_.empty(); }

  // Writes urcl.learn.forgetting{stage="s"} per evaluated earlier stage plus
  // urcl.learn.backward_transfer and urcl.learn.stages_trained gauges.
  void ExportGauges() const;

  // {"stages": T+1, "matrix": {"t": {"s": metric, ...}, ...},
  //  "forgetting": {"s": f, ...}, "mean_forgetting": .., "backward_transfer": ..}
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  // matrix_[trained][eval] = metric
  std::map<int64_t, std::map<int64_t, double>> matrix_;
  int64_t latest_trained_ = -1;
};

}  // namespace obs
}  // namespace urcl

#endif  // URCL_OBS_LEARNING_H_
