// Attention-based backbone in the style of GeoMAN: spatial self-attention
// across sensors per time step followed by temporal attention pooling.
#ifndef URCL_CORE_GEOMAN_BACKBONE_H_
#define URCL_CORE_GEOMAN_BACKBONE_H_

#include <memory>

#include "core/backbone.h"
#include "nn/linear.h"

namespace urcl {
namespace core {

class GeomanEncoder : public StBackbone {
 public:
  GeomanEncoder(const BackboneConfig& config, Rng& rng);

  Variable Encode(const Variable& observations, const Tensor& adjacency) const override;

  int64_t latent_channels() const override { return config_.latent_channels; }
  int64_t latent_time() const override { return 1; }
  std::string name() const override { return "GeoMAN"; }

 private:
  BackboneConfig config_;
  std::unique_ptr<nn::Linear> input_projection_;
  std::unique_ptr<nn::Linear> query_;
  std::unique_ptr<nn::Linear> key_;
  std::unique_ptr<nn::Linear> value_;
  std::unique_ptr<nn::Linear> temporal_score_hidden_;
  std::unique_ptr<nn::Linear> temporal_score_out_;
  // Maps [attention context ; last-step features] to the latent width (the
  // recency anchor GeoMAN's decoder gets from the last hidden state).
  std::unique_ptr<nn::Linear> output_projection_;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_GEOMAN_BACKBONE_H_
