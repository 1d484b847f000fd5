#include "core/forecaster.h"

#include "common/check.h"

namespace urcl {
namespace core {

Forecaster::Forecaster(std::unique_ptr<StBackbone> encoder, int64_t decoder_hidden,
                       int64_t output_steps, Rng& rng)
    : encoder_(std::move(encoder)) {
  URCL_CHECK(encoder_ != nullptr);
  RegisterChild("encoder", encoder_.get());
  decoder_ = std::make_unique<StDecoder>(encoder_->latent_channels(), encoder_->latent_time(),
                                         decoder_hidden, output_steps, rng);
  RegisterChild("decoder", decoder_.get());
}

Variable Forecaster::Forward(const Variable& observations, const Tensor& adjacency) const {
  const Variable latent = encoder_->Encode(observations, adjacency);
  return decoder_->Forward(latent);
}

}  // namespace core
}  // namespace urcl
