#include "core/stsimsiam.h"

#include "autograd/variable.h"
#include "common/check.h"
#include "nn/loss.h"

namespace urcl {
namespace core {

StSimSiam::StSimSiam(StBackbone* encoder, int64_t proj_hidden, float temperature, Rng& rng)
    : encoder_(encoder), temperature_(temperature) {
  URCL_CHECK(encoder != nullptr);
  URCL_CHECK_GT(temperature, 0.0f);
  projector_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{encoder->latent_channels(), proj_hidden,
                           encoder->latent_channels()},
      rng, nn::Activation::kRelu);
  RegisterChild("projector", projector_.get());
}

Variable StSimSiam::Embed(const augment::AugmentedView& view) const {
  Variable observations(view.observations, /*requires_grad=*/false);
  return StBackbone::PoolLatent(encoder_->Encode(observations, view.adjacency));
}

Variable StSimSiam::Project(const Variable& embedding) const {
  return projector_->Forward(embedding);
}

Variable StSimSiam::Loss(const augment::AugmentedView& view1,
                         const augment::AugmentedView& view2) const {
  const Variable z1 = Embed(view1);
  const Variable z2 = Embed(view2);
  const Variable p1 = Project(z1);
  const Variable p2 = Project(z2);
  return nn::GraphClLoss(p1, p2, z1, z2, temperature_);
}

}  // namespace core
}  // namespace urcl
