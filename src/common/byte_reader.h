// Bounds-checked reader over encoded bytes: the decoding side of every
// binary format here (checkpoint containers, their sections, serialized
// tensors). A read that would run past the end returns false and consumes
// nothing, so short or damaged input becomes a typed error instead of an
// abort or an out-of-bounds read.
#ifndef URCL_COMMON_BYTE_READER_H_
#define URCL_COMMON_BYTE_READER_H_

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace urcl {
namespace io {

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  // Copies the next `size` bytes into `dst`.
  bool ReadBytes(void* dst, size_t size) {
    if (remaining() < size) return false;
    if (size > 0) std::memcpy(dst, bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  // One POD value in the writer's (host, little-endian) layout.
  template <typename T>
  bool Read(T* value) {
    return ReadBytes(value, sizeof(T));
  }

  // The next `size` bytes as a string.
  bool ReadString(size_t size, std::string* value) {
    if (remaining() < size) return false;
    value->assign(bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace io
}  // namespace urcl

#endif  // URCL_COMMON_BYTE_READER_H_
