#include "checkpoint/container.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "checkpoint/crc32.h"
#include "common/byte_reader.h"
#include "common/check.h"

namespace urcl {
namespace checkpoint {
namespace {

constexpr uint64_t kMagic = 0x54504B434C435255ull;  // "URCLCKPT" little-endian
constexpr size_t kMaxSectionName = 255;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

void Container::Add(std::string name, std::string payload) {
  URCL_CHECK(!name.empty() && name.size() <= kMaxSectionName)
      << "section name must be 1..255 bytes";
  sections_.push_back(Section{std::move(name), std::move(payload)});
}

const std::string* Container::Find(const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section.payload;
  }
  return nullptr;
}

std::string Container::SerializeToString() const {
  std::string out;
  AppendPod(&out, kMagic);
  AppendPod(&out, kContainerVersion);
  AppendPod(&out, static_cast<uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    AppendPod(&out, static_cast<uint32_t>(section.name.size()));
    out.append(section.name);
    AppendPod(&out, static_cast<uint64_t>(section.payload.size()));
    AppendPod(&out, Crc32(section.payload));
    out.append(section.payload);
  }
  // Whole-body CRC over everything after the magic.
  AppendPod(&out, Crc32(out.data() + sizeof(kMagic), out.size() - sizeof(kMagic)));
  return out;
}

Status Container::Parse(const std::string& bytes, Container* out) {
  io::ByteReader reader(bytes);
  uint64_t magic = 0;
  if (!reader.Read(&magic)) return Status::Error("checkpoint truncated: no magic");
  if (magic != kMagic) return Status::Error("bad checkpoint magic: not a URCL checkpoint");

  // Validate the trailer CRC first: any single flipped byte after the magic
  // is caught here with one message, before field-level parsing.
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::Error("checkpoint truncated: no body");
  }
  uint32_t stored_total = 0;
  std::memcpy(&stored_total, bytes.data() + bytes.size() - sizeof(uint32_t), sizeof(uint32_t));
  const uint32_t actual_total =
      Crc32(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic) - sizeof(uint32_t));
  if (stored_total != actual_total) {
    char message[96];
    std::snprintf(message, sizeof(message),
                  "checkpoint body CRC mismatch (stored %08x, computed %08x)", stored_total,
                  actual_total);
    return Status::Error(message);
  }

  uint32_t version = 0;
  if (!reader.Read(&version)) return Status::Error("checkpoint truncated: no version");
  if (version != kContainerVersion) {
    return Status::Error("unsupported checkpoint version " + std::to_string(version) +
                         " (this build reads version " + std::to_string(kContainerVersion) +
                         ")");
  }
  uint32_t count = 0;
  if (!reader.Read(&count)) return Status::Error("checkpoint truncated: no section count");

  Container parsed;
  for (uint32_t i = 0; i < count; ++i) {
    const std::string where = "section " + std::to_string(i);
    uint32_t name_len = 0;
    if (!reader.Read(&name_len)) return Status::Error(where + ": truncated name length");
    if (name_len == 0 || name_len > kMaxSectionName) {
      return Status::Error(where + ": implausible name length " + std::to_string(name_len));
    }
    Section section;
    if (!reader.ReadString(name_len, &section.name)) {
      return Status::Error(where + ": truncated name");
    }
    uint64_t payload_len = 0;
    uint32_t stored_crc = 0;
    if (!reader.Read(&payload_len) || !reader.Read(&stored_crc)) {
      return Status::Error("section '" + section.name + "': truncated header");
    }
    if (payload_len > reader.remaining()) {
      return Status::Error("section '" + section.name + "': payload length " +
                           std::to_string(payload_len) + " exceeds the " +
                           std::to_string(reader.remaining()) + " bytes remaining");
    }
    if (!reader.ReadString(static_cast<size_t>(payload_len), &section.payload)) {
      return Status::Error("section '" + section.name + "': truncated payload");
    }
    const uint32_t actual_crc = Crc32(section.payload);
    if (actual_crc != stored_crc) {
      char message[64];
      std::snprintf(message, sizeof(message), "CRC mismatch (stored %08x, computed %08x)",
                    stored_crc, actual_crc);
      return Status::Error("section '" + section.name + "': " + message);
    }
    parsed.sections_.push_back(std::move(section));
  }
  if (reader.remaining() != sizeof(uint32_t)) {
    return Status::Error("checkpoint has " + std::to_string(reader.remaining()) +
                         " trailing bytes after the last section (expected 4)");
  }
  *out = std::move(parsed);
  return Status::Ok();
}

Status Container::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  const std::string bytes = SerializeToString();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::Error("cannot open " + tmp + " for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      return Status::Error("write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("rename " + tmp + " -> " + path + " failed");
  }
  return Status::Ok();
}

Status Container::ReadFile(const std::string& path, Container* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::Error("cannot open " + path + " for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Error("read failed for " + path);
  const Status status = Parse(buffer.str(), out);
  if (!status.ok()) return Status::Error(path + ": " + status.message());
  return Status::Ok();
}

}  // namespace checkpoint
}  // namespace urcl
