// Binary tensor (de)serialization, used for checkpoint sections and to export
// replay buffers / experiment artifacts.
#ifndef URCL_TENSOR_SERIALIZE_H_
#define URCL_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>

#include "common/byte_reader.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace urcl {

// First field of every serialized tensor ("URCL").
inline constexpr uint32_t kTensorMagic = 0x4c435255;

// Writes `tensor` to `out` in a little-endian [magic, rank, dims..., data]
// layout. Aborts on stream failure.
void SaveTensor(const Tensor& tensor, std::ostream& out);

namespace io {

// Writes one POD value; the encoding side of io::ByteReader
// (common/byte_reader.h). Aborts on stream failure.
template <typename T>
void WritePod(std::ostream& out, T value);

// Reads one tensor written by SaveTensor. A bad magic, an implausible rank,
// a negative or overflowing dim, or a header or payload longer than the bytes
// left is kDataLoss naming the problem, found before any allocation.
Status ReadTensor(ByteReader& in, Tensor* out);

}  // namespace io
}  // namespace urcl

#endif  // URCL_TENSOR_SERIALIZE_H_
