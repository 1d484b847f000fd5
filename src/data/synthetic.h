// Synthetic streaming traffic generator. Substitutes for the proprietary
// METR-LA / PEMS archives (see DESIGN.md): produces speed / flow / occupancy
// series on a sensor network with daily & weekly periodicity, rush-hour
// congestion that diffuses along graph edges, sensor noise, incidents, and
// controllable concept drift (gradual and abrupt) — the phenomena that drive
// the paper's streaming evaluation.
#ifndef URCL_DATA_SYNTHETIC_H_
#define URCL_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/sensor_network.h"
#include "tensor/tensor.h"

namespace urcl {
namespace data {

struct TrafficConfig {
  int64_t num_nodes = 24;
  int64_t num_days = 20;
  int64_t steps_per_day = 96;  // 96 = 15-minute sampling interval
  // Channel 0 is always speed; channel 1 flow; channel 2 occupancy.
  int64_t channels = 2;
  float free_flow_speed = 65.0f;  // speed scale (paper datasets are in mph)
  float max_flow = 500.0f;        // flow scale (vehicles / interval)
  float noise_std = 1.0f;         // additive sensor noise on speed
  float incident_rate = 0.02f;    // expected incidents per node per day
  float graph_radius = 0.35f;     // geometric-graph connection radius

  // Gradual drift: per-day shift of the rush-hour phase (in steps) and
  // per-day multiplicative demand growth.
  float phase_drift_per_day = 0.0f;
  float demand_growth_per_day = 0.0f;
  // Abrupt drift: at each listed day boundary, a fraction of node demand
  // factors is re-drawn and the rush-hour phase jumps.
  std::vector<int64_t> abrupt_drift_days;
  float abrupt_refresh_fraction = 0.5f;
  float abrupt_phase_jump_steps = 6.0f;
  // Dynamics drift: each abrupt boundary also re-draws the *regime* — the
  // autoregressive coefficients that govern how congestion propagates
  // (inertia, neighbor coupling, demand response), the speed-congestion
  // response coefficient and the flow scale. Because congestion is a
  // simulated AR state, this changes the conditional distribution
  // P(X_{t+1} | window): stale models make systematic one-step errors
  // (marginal drift alone barely affects one-step forecasting).
  // regime_drift_scale scales how far the regime parameters may move at each
  // abrupt boundary (1.0 = the default ranges; larger = stronger concept
  // drift).
  float regime_drift_scale = 1.0f;

  uint64_t seed = 7;
};

// Generates the graph once and then the full series deterministically.
class SyntheticTraffic {
 public:
  explicit SyntheticTraffic(const TrafficConfig& config);

  const graph::SensorNetwork& network() const { return network_; }
  const TrafficConfig& config() const { return config_; }

  // Full series [T, N, C] with T = num_days * steps_per_day. When the
  // process-wide FaultInjector has input-fault rates configured (URCL_FAULT),
  // ApplyInputFaults is run on the result before it is returned.
  Tensor GenerateSeries();

  // Underlying congestion level in [0, 1] for one (day, step, node); exposed
  // for tests and for inspecting drift behaviour.
  float CongestionAt(int64_t day, int64_t step, int64_t node) const;

 private:
  float DemandAt(int64_t day, int64_t step, int64_t node) const;

  // Simulates the congestion state field for all (t, node) once.
  void SimulateCongestion();

  TrafficConfig config_;
  graph::SensorNetwork network_;
  std::vector<float> node_factor_;          // per-node demand multiplier
  std::vector<std::vector<float>> factor_by_day_;  // node factors after drift, per day
  std::vector<float> phase_by_day_;         // rush-hour phase offset per day (steps)
  std::vector<float> amplitude_by_day_;     // demand amplitude per day
  // Regime (dynamics) parameters per day — see regime_drift_scale.
  std::vector<float> inertia_by_day_;       // AR(1) self coefficient
  std::vector<float> coupling_by_day_;      // neighbor coupling coefficient
  std::vector<float> speed_coef_by_day_;    // speed drop per unit congestion
  std::vector<float> flow_scale_by_day_;    // flow magnitude multiplier
  std::vector<float> congestion_;           // [T * N] simulated state field
  // incident map: day -> list of (node, start_step, duration, severity)
  struct Incident {
    int64_t node;
    int64_t start_step;
    int64_t duration;
    float severity;
  };
  std::vector<std::vector<Incident>> incidents_by_day_;
};

// Corrupts a [T, N, C] series in place according to the process-wide
// FaultInjector's rates: `nan`/`inf` poison individual cells, `drop` blanks
// every channel of a (t, node) reading (a dead sensor). No-op when no rates
// are configured. Used by GenerateSeries and available to CSV-based loaders.
void ApplyInputFaults(Tensor* series);

}  // namespace data
}  // namespace urcl

#endif  // URCL_DATA_SYNTHETIC_H_
