// Checkpoint rotation: numbered container files in a directory, atomic
// writes, retention-N pruning, and newest-valid fallback on load. A corrupted
// or truncated checkpoint (detected via the container CRCs, or by the
// caller's section decoders) is skipped with a diagnostic and the next-newest
// one is tried, so a crash mid-write — or a
// flipped byte on disk — costs at most one checkpoint interval of progress.
#ifndef URCL_CHECKPOINT_MANAGER_H_
#define URCL_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checkpoint/container.h"
#include "common/status.h"

namespace urcl {
namespace checkpoint {

struct ManagerOptions {
  std::string dir;
  // Newest checkpoints kept on disk; older ones are pruned after each save.
  int64_t retention = 3;
  // Files are named <prefix>-<8-digit-seq>.urcl.
  std::string prefix = "ckpt";
};

class CheckpointManager {
 public:
  // Creates `options.dir` (and parents) if missing; aborts on invalid options.
  explicit CheckpointManager(ManagerOptions options);

  // Writes `container` as the next sequence number and prunes beyond
  // retention. Pruning failures are ignored (stale files are re-pruned next
  // save); write failures are returned.
  Status Save(const Container& container);

  // Walks the checkpoints newest first and loads the first one that parses
  // and validates and, when `accept` is set, that `accept` takes (returns
  // Ok for). Each rejected file appends one "rejected <path>: <reason>" line
  // to *diagnostics (may be nullptr). When every file is rejected, returns
  // the newest file's status; an empty directory is an error too.
  Status LoadNewestValid(Container* out, std::string* diagnostics,
                         const std::function<Status(const Container&)>& accept = nullptr) const;

  // Checkpoint paths in the directory, oldest first.
  std::vector<std::string> ListCheckpoints() const;

  // Sequence number of the last successful Save in this process (0 = none).
  int64_t last_sequence() const { return last_sequence_; }

  const ManagerOptions& options() const { return options_; }

 private:
  // Parses the sequence number out of a checkpoint filename; -1 if foreign.
  int64_t SequenceOf(const std::string& filename) const;

  ManagerOptions options_;
  int64_t last_sequence_ = 0;
};

}  // namespace checkpoint
}  // namespace urcl

#endif  // URCL_CHECKPOINT_MANAGER_H_
