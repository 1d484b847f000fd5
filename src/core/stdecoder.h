// The STDecoder (Fig. 4): stacked feed-forward layers with ReLU that map the
// encoder latent to the prediction (Eq. 27).
#ifndef URCL_CORE_STDECODER_H_
#define URCL_CORE_STDECODER_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace urcl {
namespace core {

using autograd::Variable;

class StDecoder : public nn::Module {
 public:
  // Decodes latent [B, H, N, T'] to predictions [B, output_steps, N, 1].
  StDecoder(int64_t latent_channels, int64_t latent_time, int64_t decoder_hidden,
            int64_t output_steps, Rng& rng);

  Variable Forward(const Variable& latent) const;

  int64_t output_steps() const { return output_steps_; }

 private:
  int64_t latent_channels_;
  int64_t latent_time_;
  int64_t output_steps_;
  std::unique_ptr<nn::Mlp> mlp_;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_STDECODER_H_
