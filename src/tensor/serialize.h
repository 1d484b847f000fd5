// Binary tensor (de)serialization, used for model checkpoints and to export
// replay buffers / experiment artifacts.
#ifndef URCL_TENSOR_SERIALIZE_H_
#define URCL_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace urcl {

// First field of every serialized tensor ("URCL").
inline constexpr uint32_t kTensorMagic = 0x4c435255;

// Writes `tensor` to `out` in a little-endian [magic, rank, dims..., data]
// layout. Aborts on stream failure.
void SaveTensor(const Tensor& tensor, std::ostream& out);

// Reads one tensor previously written by SaveTensor. Header fields are
// validated against the remaining stream length before any allocation, so a
// corrupt size field aborts with a diagnostic instead of triggering a huge
// allocation or a silent short-read.
Tensor LoadTensor(std::istream& in);

// Saves/loads an ordered list of tensors (e.g. the parameters of a model).
void SaveTensors(const std::vector<Tensor>& tensors, const std::string& path);
std::vector<Tensor> LoadTensors(const std::string& path);

namespace io {

// POD stream helpers shared by the checkpoint section encoders (nn/optimizer,
// replay/replay_buffer, core/urcl). WritePod aborts on stream failure;
// ReadPod aborts on truncation.
template <typename T>
void WritePod(std::ostream& out, T value);

template <typename T>
T ReadPod(std::istream& in);

// Remaining readable bytes of a seekable stream; -1 when not seekable.
int64_t StreamRemaining(std::istream& in);

}  // namespace io
}  // namespace urcl

#endif  // URCL_TENSOR_SERIALIZE_H_
