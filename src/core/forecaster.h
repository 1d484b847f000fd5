// The prediction path URCL shares with every deep baseline (Eq. 17, 27): an
// StBackbone encodes the observation window and the STDecoder maps its latent
// to the forecast. UrclModel adds the STSimSiam head on top; DeepBaseline adds
// plain MAE training.
#ifndef URCL_CORE_FORECASTER_H_
#define URCL_CORE_FORECASTER_H_

#include <memory>

#include "core/backbone.h"
#include "core/stdecoder.h"

namespace urcl {
namespace core {

class Forecaster : public nn::Module {
 public:
  // Takes `encoder` and builds the decoder from `rng`, the stream that built
  // the encoder. Registers them as children "encoder" and "decoder", so
  // their parameters come first, in that order, under those names.
  Forecaster(std::unique_ptr<StBackbone> encoder, int64_t decoder_hidden, int64_t output_steps,
             Rng& rng);

  // decoder(encoder(observations, adjacency)).
  Variable Forward(const Variable& observations, const Tensor& adjacency) const;

  StBackbone& encoder() { return *encoder_; }

 private:
  std::unique_ptr<StBackbone> encoder_;
  std::unique_ptr<StDecoder> decoder_;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_FORECASTER_H_
