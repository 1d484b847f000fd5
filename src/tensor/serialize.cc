#include "tensor/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/check.h"

namespace urcl {
namespace io {

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  URCL_CHECK(out.good()) << "stream write failed";
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  URCL_CHECK(in.good()) << "tensor stream truncated";
  return value;
}

// Explicit instantiations for the POD types the checkpoint encoders use.
template void WritePod<uint32_t>(std::ostream&, uint32_t);
template void WritePod<uint64_t>(std::ostream&, uint64_t);
template void WritePod<int64_t>(std::ostream&, int64_t);
template void WritePod<float>(std::ostream&, float);
template void WritePod<double>(std::ostream&, double);
template uint32_t ReadPod<uint32_t>(std::istream&);
template uint64_t ReadPod<uint64_t>(std::istream&);
template int64_t ReadPod<int64_t>(std::istream&);
template float ReadPod<float>(std::istream&);
template double ReadPod<double>(std::istream&);

int64_t StreamRemaining(std::istream& in) {
  const std::streampos pos = in.tellg();
  if (pos < 0) return -1;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  if (end < 0 || !in.good()) return -1;
  return static_cast<int64_t>(end - pos);
}

}  // namespace io

namespace {

using io::ReadPod;
using io::WritePod;

// 2^40 elements (4 TiB of float32) — far above any real tensor; guards the
// element-count product against int64 overflow from hostile dim fields.
constexpr int64_t kMaxElements = int64_t{1} << 40;

}  // namespace

void SaveTensor(const Tensor& tensor, std::ostream& out) {
  WritePod(out, kTensorMagic);
  WritePod(out, static_cast<int64_t>(tensor.rank()));
  for (const int64_t d : tensor.shape().dims()) WritePod(out, d);
  out.write(reinterpret_cast<const char*>(tensor.data()),
            static_cast<std::streamsize>(tensor.NumElements() * sizeof(float)));
  URCL_CHECK(out.good()) << "tensor write failed";
}

Tensor LoadTensor(std::istream& in) {
  const uint32_t magic = ReadPod<uint32_t>(in);
  URCL_CHECK_EQ(magic, kTensorMagic) << "bad tensor magic";
  const int64_t rank = ReadPod<int64_t>(in);
  URCL_CHECK(rank >= 0 && rank <= 16) << "implausible tensor rank " << rank;

  // Validate the header against the bytes actually present before allocating:
  // a corrupt dim field must not trigger a huge allocation or a short read.
  const int64_t remaining_header = io::StreamRemaining(in);
  URCL_CHECK(remaining_header < 0 ||
             remaining_header >= rank * static_cast<int64_t>(sizeof(int64_t)))
      << "tensor stream truncated: rank " << rank << " needs "
      << rank * static_cast<int64_t>(sizeof(int64_t)) << " header bytes but only "
      << remaining_header << " remain";

  std::vector<int64_t> dims(static_cast<size_t>(rank));
  int64_t elements = 1;
  for (auto& d : dims) {
    d = ReadPod<int64_t>(in);
    URCL_CHECK_GE(d, 0);
    URCL_CHECK(d == 0 || elements <= kMaxElements / d)
        << "tensor header dims overflow (dim " << d << ")";
    elements *= d;
  }
  const int64_t payload_bytes = elements * static_cast<int64_t>(sizeof(float));
  const int64_t remaining = io::StreamRemaining(in);
  URCL_CHECK(remaining < 0 || payload_bytes <= remaining)
      << "tensor data truncated: header claims " << payload_bytes << " bytes but only "
      << remaining << " remain";

  Tensor tensor{Shape(dims)};
  in.read(reinterpret_cast<char*>(tensor.mutable_data()),
          static_cast<std::streamsize>(payload_bytes));
  URCL_CHECK(in.good() || (payload_bytes == 0 && !in.bad())) << "tensor data truncated";
  return tensor;
}

void SaveTensors(const std::vector<Tensor>& tensors, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  URCL_CHECK(out.is_open()) << "cannot open " << path << " for writing";
  WritePod(out, static_cast<int64_t>(tensors.size()));
  for (const Tensor& t : tensors) SaveTensor(t, out);
}

std::vector<Tensor> LoadTensors(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  URCL_CHECK(in.is_open()) << "cannot open " << path << " for reading";
  const int64_t count = ReadPod<int64_t>(in);
  // Every tensor occupies at least magic + rank = 12 bytes; a corrupt count
  // field cannot pass this bound.
  const int64_t remaining = io::StreamRemaining(in);
  URCL_CHECK(count >= 0 && (remaining < 0 || count <= remaining / 12))
      << "bad tensor count " << count << " for " << remaining << " remaining bytes in "
      << path;
  std::vector<Tensor> tensors;
  tensors.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) tensors.push_back(LoadTensor(in));
  return tensors;
}

}  // namespace urcl
