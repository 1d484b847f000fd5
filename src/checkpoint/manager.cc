#include "checkpoint/manager.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/check.h"

namespace urcl {
namespace checkpoint {

namespace fs = std::filesystem;

CheckpointManager::CheckpointManager(ManagerOptions options) : options_(std::move(options)) {
  URCL_CHECK(!options_.dir.empty()) << "checkpoint dir must be set";
  URCL_CHECK_GT(options_.retention, 0);
  URCL_CHECK(!options_.prefix.empty());
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  URCL_CHECK(!ec) << "cannot create checkpoint dir " << options_.dir << ": " << ec.message();

  // Continue an existing rotation instead of overwriting it.
  for (const std::string& path : ListCheckpoints()) {
    last_sequence_ = std::max(last_sequence_, SequenceOf(fs::path(path).filename().string()));
  }
}

int64_t CheckpointManager::SequenceOf(const std::string& filename) const {
  const std::string prefix = options_.prefix + "-";
  const std::string suffix = ".urcl";
  if (filename.size() <= prefix.size() + suffix.size()) return -1;
  if (filename.compare(0, prefix.size(), prefix) != 0) return -1;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(), suffix) != 0) return -1;
  const std::string digits =
      filename.substr(prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (digits.empty()) return -1;
  int64_t sequence = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    sequence = sequence * 10 + (c - '0');
  }
  return sequence;
}

std::vector<std::string> CheckpointManager::ListCheckpoints() const {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const int64_t sequence = SequenceOf(entry.path().filename().string());
    if (sequence >= 0) found.emplace_back(sequence, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [sequence, path] : found) paths.push_back(std::move(path));
  return paths;
}

Status CheckpointManager::Save(const Container& container) {
  const int64_t sequence = last_sequence_ + 1;
  char name[64];
  std::snprintf(name, sizeof(name), "%s-%08lld.urcl", options_.prefix.c_str(),
                static_cast<long long>(sequence));
  const std::string path = (fs::path(options_.dir) / name).string();
  const Status status = container.WriteFile(path);
  if (!status.ok()) return status;
  last_sequence_ = sequence;

  const std::vector<std::string> all = ListCheckpoints();
  const int64_t excess = static_cast<int64_t>(all.size()) - options_.retention;
  for (int64_t i = 0; i < excess; ++i) std::remove(all[static_cast<size_t>(i)].c_str());
  return Status::Ok();
}

Status CheckpointManager::LoadNewestValid(
    Container* out, std::string* diagnostics,
    const std::function<Status(const Container&)>& accept) const {
  const std::vector<std::string> all = ListCheckpoints();
  if (all.empty()) return Status::Error("no valid checkpoint in " + options_.dir + " (empty)");
  Status newest;
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    Container container;
    Status status = Container::ReadFile(*it, &container);
    if (status.ok() && accept) status = accept(container).Annotate(*it + ": ");
    if (status.ok()) {
      *out = std::move(container);
      return Status::Ok();
    }
    if (diagnostics != nullptr) diagnostics->append("rejected " + status.message() + "\n");
    if (it == all.rbegin()) newest = status;
  }
  return newest;
}

}  // namespace checkpoint
}  // namespace urcl
