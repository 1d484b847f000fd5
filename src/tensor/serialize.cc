#include "tensor/serialize.h"

#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"

namespace urcl {
namespace io {

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  URCL_CHECK(out.good()) << "stream write failed";
}

// Explicit instantiations for the POD types the checkpoint encoders use.
template void WritePod<uint32_t>(std::ostream&, uint32_t);
template void WritePod<uint64_t>(std::ostream&, uint64_t);
template void WritePod<int64_t>(std::ostream&, int64_t);
template void WritePod<float>(std::ostream&, float);
template void WritePod<double>(std::ostream&, double);

namespace {

// 2^40 elements (4 TiB of float32) — far above any real tensor; guards the
// element-count product against int64 overflow from hostile dim fields.
constexpr int64_t kMaxElements = int64_t{1} << 40;

}  // namespace

Status ReadTensor(ByteReader& in, Tensor* out) {
  uint32_t magic = 0;
  int64_t rank = 0;
  if (!in.Read(&magic)) return Status::DataLoss("tensor stream truncated before its magic");
  if (magic != kTensorMagic) return Status::DataLoss("bad tensor magic");
  if (!in.Read(&rank)) return Status::DataLoss("tensor stream truncated before its rank");
  if (rank < 0 || rank > 16) {
    return Status::DataLoss("implausible tensor rank " + std::to_string(rank));
  }
  const auto header_bytes = static_cast<size_t>(rank) * sizeof(int64_t);
  if (in.remaining() < header_bytes) {
    return Status::DataLoss("tensor stream truncated: rank " + std::to_string(rank) +
                            " needs " + std::to_string(header_bytes) +
                            " header bytes but only " + std::to_string(in.remaining()) +
                            " remain");
  }
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  int64_t elements = 1;
  for (int64_t& d : dims) {
    in.Read(&d);
    if (d < 0) return Status::DataLoss("negative tensor dim " + std::to_string(d));
    if (d != 0 && elements > kMaxElements / d) {
      return Status::DataLoss("tensor header dims overflow (dim " + std::to_string(d) + ")");
    }
    elements *= d;
  }
  const auto payload_bytes = static_cast<size_t>(elements) * sizeof(float);
  if (in.remaining() < payload_bytes) {
    return Status::DataLoss("tensor data truncated: header claims " +
                            std::to_string(payload_bytes) + " bytes but only " +
                            std::to_string(in.remaining()) + " remain");
  }
  Tensor tensor = Tensor::Uninitialized(Shape(std::move(dims)));
  in.ReadBytes(tensor.mutable_data(), payload_bytes);
  *out = std::move(tensor);
  return Status::Ok();
}

}  // namespace io

void SaveTensor(const Tensor& tensor, std::ostream& out) {
  io::WritePod(out, kTensorMagic);
  io::WritePod(out, static_cast<int64_t>(tensor.rank()));
  for (const int64_t d : tensor.shape().dims()) io::WritePod(out, d);
  out.write(reinterpret_cast<const char*>(tensor.data()),
            static_cast<std::streamsize>(tensor.NumElements() * sizeof(float)));
  URCL_CHECK(out.good()) << "tensor write failed";
}

}  // namespace urcl
