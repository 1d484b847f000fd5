// The pluggable spatio-temporal encoder interface. The paper's framework is
// backbone-agnostic (Sec. V-B4): any model exposing an encoder that maps
// observations to a latent tensor can be dropped in. Three backbones are
// provided: GraphWaveNet (CNN-based, the default STEncoder), DCRNN-style
// (RNN-based) and GeoMAN-style (attention-based).
#ifndef URCL_CORE_BACKBONE_H_
#define URCL_CORE_BACKBONE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace urcl {
namespace core {

using autograd::Variable;

// Diffusion steps K of the graph convolutions (Eq. 21) in the GraphWaveNet
// and DCRNN encoders.
inline constexpr int64_t kDiffusionSteps = 2;

struct BackboneConfig {
  int64_t num_nodes = 0;
  int64_t in_channels = 2;       // C of the observations
  int64_t input_steps = 12;      // M
  int64_t hidden_channels = 16;  // per-layer width (paper: 32)
  int64_t latent_channels = 64;  // final latent width (paper: 256)
  int64_t num_layers = 5;        // spatio-temporal layers (paper: 5)
  int64_t adaptive_embedding_dim = 8;
  bool use_adaptive_adjacency = true;  // Eq. 23
  // When false, the GraphWaveNet encoder ignores the provided adjacency and
  // relies on the adaptive one only (MTGNN-style fully-learned graph).
  bool use_static_supports = true;
  bool directed_graph = false;

  // Returns a human-readable message per invalid field (empty when the config
  // is usable). Checked at MakeBackbone; call directly for early feedback.
  std::vector<std::string> Validate() const;
};

// Joins validation messages into one multi-line report for URCL_CHECK output.
std::string FormatConfigErrors(const std::vector<std::string>& errors);

// Abstract STEncoder: [B, M, N, C] + adjacency [N, N] -> latent [B, H, N, T'].
class StBackbone : public nn::Module {
 public:
  virtual Variable Encode(const Variable& observations, const Tensor& adjacency) const = 0;

  // Latent geometry (for sizing the STDecoder / projector).
  virtual int64_t latent_channels() const = 0;
  virtual int64_t latent_time() const = 0;

  virtual std::string name() const = 0;

  // Pools the latent [B, H, N, T'] to one embedding per sample [B, H]
  // (mean over nodes and time); input to the STSimSiam projector.
  static Variable PoolLatent(const Variable& latent);
};

enum class BackboneType { kGraphWaveNet, kDcrnn, kGeoman };

std::string BackboneTypeName(BackboneType type);

std::unique_ptr<StBackbone> MakeBackbone(BackboneType type, const BackboneConfig& config,
                                         Rng& rng);

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_BACKBONE_H_
