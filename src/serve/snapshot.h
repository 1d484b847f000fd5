// Immutable model versions for the streaming inference service.
//
// The trainer publishes weight snapshots as checkpoint-format Containers
// (UrclTrainer::SetSnapshotSink); ParseModelSnapshot materializes each one
// into a frozen UrclModel plus identifying metadata, and ModelHub hands the
// newest version to any number of concurrent reader threads via an atomic
// shared_ptr swap — readers never take a mutex and never observe a
// half-published model. The hub also keeps an N-deep ring of previously-live
// versions so a post-swap failure spike can roll the service back to the
// last-good snapshot without waiting for the trainer. See DESIGN.md
// "Serving model" and "Serving failure model".
#ifndef URCL_SERVE_SNAPSHOT_H_
#define URCL_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "checkpoint/container.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/urcl.h"

namespace urcl {
namespace serve {

// One published model version. Immutable after construction, so any number
// of reader threads can run `model`'s forward (or a compiled plan bound to
// its weights) concurrently without synchronization; the shared_ptr holding
// the snapshot keeps the weights alive for in-flight queries across a
// hot-swap.
struct ModelSnapshot {
  int64_t version = 0;     // monotonically increasing publish count (1-based)
  int64_t stage = -1;      // training stage the weights were captured in
  int64_t step_count = 0;  // optimizer steps taken when the snapshot was cut
  std::unique_ptr<const core::UrclModel> model;
};

// Parses a trainer-published container (sections "model" + "serve_meta", as
// written by UrclTrainer::PublishSnapshot) into a fresh immutable snapshot.
// `config` must describe the same architecture the trainer was built with;
// mismatched tensor counts or shapes, malformed model sections (typed as
// core::ParseStateDict types them), unknown serve_meta schema versions and
// missing sections come back as an error Status (the serving loop
// quarantines the snapshot and keeps the previous version live).
Status ParseModelSnapshot(const checkpoint::Container& container,
                          const core::UrclConfig& config,
                          std::shared_ptr<const ModelSnapshot>* out);

// Model-version exchange between one publisher (the training thread) and many
// reader threads, with rollback. Publish() retires the current snapshot into
// a bounded history ring and installs the new one; RollBack() reinstates the
// most recently retired version (dropping the bad incumbent). Current() is a
// single atomic shared_ptr load, so readers are never blocked by a publish or
// a rollback and an in-flight query finishes on whichever version it
// acquired.
class ModelHub {
 public:
  // `history_depth` previously-live versions are retained for rollback
  // (0 = no history: RollBack always fails).
  explicit ModelHub(int64_t history_depth = 4);

  // Installs `snapshot` as the version served to all subsequent Current()
  // calls and retires the incumbent into the history ring. Thread-safe
  // against RollBack and other Publish calls (readers stay lock-free).
  void Publish(std::shared_ptr<const ModelSnapshot> snapshot);

  // Drops the current version and reinstates the most recently retired one
  // (which leaves the history ring — a version is never rolled back to
  // twice without an intervening publish). Returns the reinstated snapshot,
  // or nullptr when the history is empty (the caller must degrade instead).
  // The dropped incumbent is NOT pushed into history: it is bad by
  // definition.
  std::shared_ptr<const ModelSnapshot> RollBack();

  // Newest published snapshot; nullptr before the first Publish.
  std::shared_ptr<const ModelSnapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  // The most recently retired version (nullptr when the history is empty).
  // Kept alive so tests and diagnostics can compare versions across a swap
  // without racing the publisher.
  std::shared_ptr<const ModelSnapshot> Previous() const;

  // Number of Publish calls / successful RollBack calls observed.
  int64_t swap_count() const { return swaps_.load(std::memory_order_relaxed); }
  int64_t rollback_count() const { return rollbacks_.load(std::memory_order_relaxed); }

  // Previously-live versions currently available to roll back to.
  int64_t history_size() const;

 private:
  const int64_t history_depth_;
  std::atomic<std::shared_ptr<const ModelSnapshot>> current_;
  std::atomic<int64_t> swaps_{0};
  std::atomic<int64_t> rollbacks_{0};

  // Retired versions, oldest first, newest at the back; bounded to
  // history_depth_. Guarded by mu_ (publisher/rollback/diagnostic paths only
  // — the query hot path never touches it).
  mutable Mutex mu_;
  std::deque<std::shared_ptr<const ModelSnapshot>> history_ URCL_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace urcl

#endif  // URCL_SERVE_SNAPSHOT_H_
