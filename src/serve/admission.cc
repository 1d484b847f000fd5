#include "serve/admission.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace urcl {
namespace serve {

namespace {

// Gates 2-4 over a container that passed gate 1.
Status AdmitSnapshot(const checkpoint::Container& container, const core::UrclConfig& config,
                     const AdmissionConfig& admission, const Tensor& probe_window,
                     const Tensor& adjacency, std::shared_ptr<const ModelSnapshot>* out) {
  // Gate 2: schema/architecture parse.
  std::shared_ptr<const ModelSnapshot> snapshot;
  {
    const Status status = ParseModelSnapshot(container, config, &snapshot);
    if (!status.ok()) return status;
  }

  // Gate 3: all-finite weight scan. A snapshot whose parameters already hold
  // NaN/Inf can only ever produce garbage; reject it before it serves.
  const std::vector<Tensor> state = snapshot->model->StateDict();
  for (size_t i = 0; i < state.size(); ++i) {
    if (!state[i].AllFinite()) {
      return Status::DataLoss("snapshot v" + std::to_string(snapshot->version) +
                              " rejected: parameter tensor " + std::to_string(i) +
                              " holds non-finite values");
    }
  }

  // Gate 4: canary inference on the pinned probe window. Finite weights can
  // still be explosive (a diverged trainer); the canary bounds the output.
  if (admission.run_canary) {
    const Tensor canary =
        snapshot->model->Forward(autograd::Variable(probe_window, /*requires_grad=*/false),
                                 adjacency)
            .value();
    if (!canary.AllFinite()) {
      return Status::DataLoss("snapshot v" + std::to_string(snapshot->version) +
                              " rejected: canary inference produced non-finite output");
    }
    const float* data = canary.data();
    const int64_t count = canary.NumElements();
    for (int64_t i = 0; i < count; ++i) {
      if (std::fabs(data[i]) > kCanaryAbsBound) {
        return Status::DataLoss("snapshot v" + std::to_string(snapshot->version) +
                                " rejected: canary output " + std::to_string(data[i]) +
                                " outside |y| <= " + std::to_string(kCanaryAbsBound));
      }
    }
  }

  *out = std::move(snapshot);
  return Status::Ok();
}

}  // namespace

Status AdmitSnapshotBytes(const std::string& bytes, const core::UrclConfig& config,
                          const AdmissionConfig& admission, const Tensor& probe_window,
                          const Tensor& adjacency, std::shared_ptr<const ModelSnapshot>* out) {
  if (out == nullptr) return Status::InvalidArgument("AdmitSnapshotBytes: null output snapshot");
  // Gate 1: container integrity — magic, section structure, per-section and
  // whole-body CRC32 (reused from src/checkpoint/).
  checkpoint::Container container;
  {
    const Status status = checkpoint::Container::Parse(bytes, &container);
    if (!status.ok()) {
      return Status::DataLoss("snapshot container rejected: " + status.message());
    }
  }
  return AdmitSnapshot(container, config, admission, probe_window, adjacency, out);
}

}  // namespace serve
}  // namespace urcl
