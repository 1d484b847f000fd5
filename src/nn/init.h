// Weight-initialization schemes.
#ifndef URCL_NN_INIT_H_
#define URCL_NN_INIT_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace urcl {
namespace nn {

// Glorot/Xavier uniform for a [fan_in, fan_out]-style weight.
Tensor GlorotUniform(const Shape& shape, Rng& rng, int64_t fan_in, int64_t fan_out);

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_INIT_H_
