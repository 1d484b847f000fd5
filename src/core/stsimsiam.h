// The STSimSiam network (Sec. IV-C2): two weight-shared STEncoders (one
// physical encoder, two forward passes) and a projection MLP head, trained
// by maximizing mutual information between augmented views with the
// symmetric GraphCL loss and a stop-gradient on the target branch.
#ifndef URCL_CORE_STSIMSIAM_H_
#define URCL_CORE_STSIMSIAM_H_

#include <memory>

#include "augment/augmentation.h"
#include "core/backbone.h"
#include "nn/linear.h"

namespace urcl {
namespace core {

class StSimSiam : public nn::Module {
 public:
  // `encoder` is shared with the prediction network and is NOT registered as
  // a child here (the owner registers it once); only the projector's
  // parameters belong to this module.
  // The projection head maps back to the encoder's latent width (as in
  // SimSiam's predictor), so C(p, z) similarities are well-defined.
  StSimSiam(StBackbone* encoder, int64_t proj_hidden, float temperature, Rng& rng);

  // L_ssl for two augmented views of the same minibatch (Eq. 15-16).
  Variable Loss(const augment::AugmentedView& view1, const augment::AugmentedView& view2) const;

  // Embedding z = pool(f(x)) and projection p = h(z) for one view.
  Variable Embed(const augment::AugmentedView& view) const;
  Variable Project(const Variable& embedding) const;

 private:
  StBackbone* encoder_;  // shared, not owned
  float temperature_;
  std::unique_ptr<nn::Mlp> projector_;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_STSIMSIAM_H_
