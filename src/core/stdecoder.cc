#include "core/stdecoder.h"

#include "autograd/ops.h"
#include "common/check.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

StDecoder::StDecoder(int64_t latent_channels, int64_t latent_time, int64_t decoder_hidden,
                     int64_t output_steps, Rng& rng)
    : latent_channels_(latent_channels),
      latent_time_(latent_time),
      output_steps_(output_steps) {
  URCL_CHECK_GT(latent_channels, 0);
  URCL_CHECK_GT(latent_time, 0);
  URCL_CHECK_GT(decoder_hidden, 0);
  URCL_CHECK_GT(output_steps, 0);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{latent_channels * latent_time, decoder_hidden, output_steps}, rng,
      nn::Activation::kRelu);
  RegisterChild("mlp", mlp_.get());
}

Variable StDecoder::Forward(const Variable& latent) const {
  URCL_CHECK_EQ(latent.shape().rank(), 4) << "expected latent [B, H, N, T']";
  URCL_CHECK_EQ(latent.shape().dim(1), latent_channels_);
  URCL_CHECK_EQ(latent.shape().dim(3), latent_time_);
  const int64_t batch = latent.shape().dim(0);
  const int64_t nodes = latent.shape().dim(2);

  // [B, H, N, T'] -> [B, N, H, T'] -> [B, N, H*T'] -> MLP -> [B, N, out]
  Variable h = ag::Transpose(latent, {0, 2, 1, 3});
  h = ag::Reshape(h, Shape{batch, nodes, latent_channels_ * latent_time_});
  h = mlp_->Forward(h);
  // [B, N, out] -> [B, out, N] -> [B, out, N, 1]
  h = ag::Transpose(h, {0, 2, 1});
  return ag::Reshape(h, Shape{batch, output_steps_, nodes, 1});
}

}  // namespace core
}  // namespace urcl
