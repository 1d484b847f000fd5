// Continuous-learning stream organisation (Sec. V-A4): the series is split
// into a base set B_set (30%) and k equal incremental sets I_set^1..k that
// arrive sequentially; each set is further split into train/val/test
// (Algorithm 1, lines 2-3).
#ifndef URCL_DATA_STREAM_H_
#define URCL_DATA_STREAM_H_

#include <string>
#include <vector>

#include "data/dataset.h"

namespace urcl {
namespace data {

// One element D_i of the stream of data sequences.
struct StreamStage {
  std::string name;    // "B_set", "I_set1", ...
  StDataset train;
  StDataset val;
  StDataset test;
  int64_t series_offset = 0;  // start row in the full series
};

// Each stage's train and validation shares; the remainder is its test split.
inline constexpr float kTrainFraction = 0.70f;
inline constexpr float kValFraction = 0.10f;

struct StreamConfig {
  float base_fraction = 0.30f;
  int64_t num_incremental = 4;
};

// Splits a windowed dataset into the continual-learning stages.
class StreamSplitter {
 public:
  StreamSplitter(const StDataset& full, const StreamConfig& config);

  int64_t NumStages() const { return static_cast<int64_t>(stages_.size()); }
  const StreamStage& Stage(int64_t index) const;
  const std::vector<StreamStage>& stages() const { return stages_; }

 private:
  std::vector<StreamStage> stages_;
};

}  // namespace data
}  // namespace urcl

#endif  // URCL_DATA_STREAM_H_
