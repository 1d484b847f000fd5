#include "core/backbone.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "core/dcrnn_backbone.h"
#include "core/geoman_backbone.h"
#include "core/stencoder.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

Variable StBackbone::PoolLatent(const Variable& latent) {
  URCL_CHECK_EQ(latent.shape().rank(), 4) << "latent must be [B, H, N, T']";
  return ag::Mean(latent, {2, 3});  // -> [B, H]
}

std::string BackboneTypeName(BackboneType type) {
  switch (type) {
    case BackboneType::kGraphWaveNet:
      return "GraphWaveNet";
    case BackboneType::kDcrnn:
      return "DCRNN";
    case BackboneType::kGeoman:
      return "GeoMAN";
  }
  URCL_CHECK(false) << "unknown backbone type";
  return "";
}

std::vector<std::string> BackboneConfig::Validate() const {
  std::vector<std::string> errors;
  if (num_nodes <= 0) errors.push_back("num_nodes must be > 0 (set it from the dataset)");
  if (in_channels <= 0) errors.push_back("in_channels must be > 0");
  if (input_steps <= 0) errors.push_back("input_steps must be > 0");
  if (hidden_channels <= 0) errors.push_back("hidden_channels must be > 0");
  if (latent_channels <= 0) errors.push_back("latent_channels must be > 0");
  if (num_layers <= 0) errors.push_back("num_layers must be > 0");
  if (use_adaptive_adjacency && adaptive_embedding_dim <= 0) {
    errors.push_back("adaptive_embedding_dim must be > 0 when use_adaptive_adjacency is set");
  }
  if (!use_adaptive_adjacency && !use_static_supports) {
    errors.push_back(
        "at least one adjacency source is required: enable use_adaptive_adjacency or "
        "use_static_supports");
  }
  return errors;
}

std::string FormatConfigErrors(const std::vector<std::string>& errors) {
  std::string joined;
  for (const std::string& e : errors) {
    if (!joined.empty()) joined += "; ";
    joined += e;
  }
  return joined;
}

std::unique_ptr<StBackbone> MakeBackbone(BackboneType type, const BackboneConfig& config,
                                         Rng& rng) {
  const std::vector<std::string> errors = config.Validate();
  URCL_CHECK(errors.empty()) << "invalid BackboneConfig: " << FormatConfigErrors(errors);
  switch (type) {
    case BackboneType::kGraphWaveNet:
      return std::make_unique<GraphWaveNetEncoder>(config, rng);
    case BackboneType::kDcrnn:
      return std::make_unique<DcrnnEncoder>(config, rng);
    case BackboneType::kGeoman:
      return std::make_unique<GeomanEncoder>(config, rng);
  }
  URCL_CHECK(false) << "unknown backbone type";
  return nullptr;
}

}  // namespace core
}  // namespace urcl
