// Snapshot admission: the validation gate between the trainer publishing a
// weight snapshot and that snapshot going live in the ModelHub (DESIGN.md
// §11). A bad publish must never swap into production; it is quarantined
// (counted + logged by the caller) and the incumbent version stays live.
//
// Gates, in order (each produces a distinct diagnostic):
//   1. integrity  — the serialized container round-trips through
//                   checkpoint::Container::Parse: magic, section structure,
//                   per-section CRC32 and the whole-body CRC (catches
//                   bit-flips, truncation and wrong section counts);
//   2. parse      — ParseModelSnapshot: serve_meta schema version, section
//                   presence and architecture (tensor-count) agreement;
//   3. weight scan — every parameter tensor is finite;
//   4. canary     — one inference on a pinned probe window must produce an
//                   all-finite output within |y| <= kCanaryAbsBound
//                   (normalized space), so weights that are finite but
//                   explosive are caught before live traffic sees them.
//
// Gates 1-3 always run; only the canary can be switched off.
#ifndef URCL_SERVE_ADMISSION_H_
#define URCL_SERVE_ADMISSION_H_

#include <memory>
#include <string>

#include "checkpoint/container.h"
#include "common/status.h"
#include "core/urcl.h"
#include "serve/snapshot.h"
#include "tensor/tensor.h"

namespace urcl {
namespace serve {

// Canary output bound: |y| above this (in normalized space) fails the canary.
// Normalized targets live in [0, 1]; the bound leaves generous headroom for
// extrapolation while catching runaway weights.
inline constexpr float kCanaryAbsBound = 1e3f;

struct AdmissionConfig {
  // Reject snapshots whose canary inference is non-finite or out of bounds.
  // Every production path keeps it on; tests switch it off to let an
  // explosive version go live.
  bool run_canary = true;
};

// Runs published snapshot bytes through all four gates. `probe_window` is the
// pinned canary input [1, M, N, C]; `adjacency` the dense [N, N] graph handed
// to inference. On success *out holds the validated snapshot, ready to
// publish. Failures come back as typed statuses: kDataLoss for corrupt or
// non-finite content, kInvalidArgument/kUnknown for schema and architecture
// mismatches.
Status AdmitSnapshotBytes(const std::string& bytes, const core::UrclConfig& config,
                          const AdmissionConfig& admission, const Tensor& probe_window,
                          const Tensor& adjacency, std::shared_ptr<const ModelSnapshot>* out);

}  // namespace serve
}  // namespace urcl

#endif  // URCL_SERVE_ADMISSION_H_
