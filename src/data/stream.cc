#include "data/stream.h"

#include "common/check.h"

namespace urcl {
namespace data {

StreamSplitter::StreamSplitter(const StDataset& full, const StreamConfig& config) {
  URCL_CHECK(config.base_fraction > 0.0f && config.base_fraction < 1.0f);
  URCL_CHECK_GE(config.num_incremental, 0);

  const int64_t total = full.num_steps();
  const int64_t window = full.config().input_steps + full.config().output_steps;
  const int64_t base_steps = static_cast<int64_t>(total * config.base_fraction);
  const int64_t remaining = total - base_steps;
  const int64_t inc_steps =
      config.num_incremental > 0 ? remaining / config.num_incremental : 0;
  URCL_CHECK_GT(base_steps, 3 * window) << "base set too short for windows";
  if (config.num_incremental > 0) {
    URCL_CHECK_GT(inc_steps, 3 * window) << "incremental sets too short for windows";
  }

  auto make_stage = [&](const std::string& name, int64_t offset, int64_t length) {
    StDataset stage_data = full.Slice(offset, length);
    const int64_t train_len = static_cast<int64_t>(length * kTrainFraction);
    const int64_t val_len = static_cast<int64_t>(length * kValFraction);
    const int64_t test_len = length - train_len - val_len;
    URCL_CHECK_GT(train_len, window) << "train split of " << name << " too short";
    URCL_CHECK_GT(test_len, window) << "test split of " << name << " too short";
    // A validation span too short for one window falls back to the test span.
    const bool val_fits = val_len > window;
    stages_.push_back(StreamStage{
        name,
        stage_data.Slice(0, train_len),
        stage_data.Slice(val_fits ? train_len : train_len + val_len,
                         val_fits ? val_len : test_len),
        stage_data.Slice(train_len + val_len, test_len),
        offset,
    });
  };

  make_stage("B_set", 0, base_steps);
  for (int64_t i = 0; i < config.num_incremental; ++i) {
    const int64_t offset = base_steps + i * inc_steps;
    const int64_t length =
        (i + 1 == config.num_incremental) ? total - offset : inc_steps;
    make_stage("I_set" + std::to_string(i + 1), offset, length);
  }
}

const StreamStage& StreamSplitter::Stage(int64_t index) const {
  URCL_CHECK(index >= 0 && index < NumStages());
  return stages_[static_cast<size_t>(index)];
}

}  // namespace data
}  // namespace urcl
