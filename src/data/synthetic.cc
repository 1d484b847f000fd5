#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/fault_injector.h"
#include "graph/generator.h"

namespace urcl {
namespace data {
namespace {

// Gaussian bump helper for the two daily rush hours.
float Bump(float t, float center, float width) {
  const float d = t - center;
  return std::exp(-0.5f * d * d / (width * width));
}

}  // namespace

SyntheticTraffic::SyntheticTraffic(const TrafficConfig& config)
    : config_(config),
      network_([&] {
        Rng graph_rng(config.seed);
        return graph::RandomGeometricGraph(config.num_nodes, config.graph_radius, graph_rng);
      }()) {
  URCL_CHECK_GT(config_.num_days, 0);
  URCL_CHECK_GT(config_.steps_per_day, 0);
  URCL_CHECK(config_.channels >= 1 && config_.channels <= 3)
      << "channels must be 1 (speed), 2 (+flow) or 3 (+occupancy)";

  Rng rng(config_.seed + 1);
  node_factor_.resize(static_cast<size_t>(config_.num_nodes));
  for (auto& f : node_factor_) f = rng.Uniform(0.7f, 1.3f);

  // One smoothing pass over the graph so neighboring sensors have correlated
  // demand (spatial correlation the GCN can exploit).
  std::vector<float> smoothed = node_factor_;
  for (int64_t i = 0; i < config_.num_nodes; ++i) {
    const auto& neighbors = network_.Neighbors(i);
    if (neighbors.empty()) continue;
    float acc = 0.0f;
    for (const auto& [j, w] : neighbors) acc += node_factor_[static_cast<size_t>(j)];
    smoothed[static_cast<size_t>(i)] =
        0.6f * node_factor_[static_cast<size_t>(i)] + 0.4f * acc / neighbors.size();
  }
  node_factor_ = smoothed;

  // Per-day drift trajectories: demand pattern AND the dynamics regime.
  const size_t days = static_cast<size_t>(config_.num_days);
  factor_by_day_.resize(days);
  phase_by_day_.resize(days);
  amplitude_by_day_.resize(days);
  inertia_by_day_.resize(days);
  coupling_by_day_.resize(days);
  speed_coef_by_day_.resize(days);
  flow_scale_by_day_.resize(days);
  std::vector<float> factors = node_factor_;
  float phase = 0.0f;
  float amplitude = 1.0f;
  float inertia = 0.45f;
  float coupling = 0.3f;
  float speed_coef = 0.8f;
  float flow_scale = 1.0f;
  for (int64_t day = 0; day < config_.num_days; ++day) {
    if (std::find(config_.abrupt_drift_days.begin(), config_.abrupt_drift_days.end(), day) !=
        config_.abrupt_drift_days.end()) {
      // Abrupt concept drift: re-draw a fraction of node factors, jump phase.
      for (auto& f : factors) {
        if (rng.Bernoulli(config_.abrupt_refresh_fraction)) f = rng.Uniform(0.7f, 1.3f);
      }
      phase += config_.abrupt_phase_jump_steps;
      // Advance the regime: the AR dynamics of congestion and how it maps to
      // the observed channels take a *random walk* away from their current
      // values (real drift is cumulative — seasons progress, road works
      // accumulate — so later periods keep diverging from the base period
      // instead of reverting to it). regime_drift_scale scales the step size;
      // walks reflect off the parameter bounds.
      const float s = config_.regime_drift_scale;
      auto walk = [&](float value, float step, float lo, float hi) {
        value += (rng.Bernoulli(0.5) ? 1.0f : -1.0f) * rng.Uniform(0.5f, 1.0f) * step * s;
        if (value > hi) value = hi - (value - hi);
        if (value < lo) value = lo + (lo - value);
        return std::clamp(value, lo, hi);
      };
      inertia = walk(inertia, 0.12f, 0.1f, 0.8f);
      coupling = std::min(walk(coupling, 0.1f, 0.05f, 0.45f), 0.85f - inertia);
      speed_coef = walk(speed_coef, 0.14f, 0.3f, 0.98f);
      flow_scale = walk(flow_scale, 0.1f, 0.5f, 1.5f);
    }
    factor_by_day_[static_cast<size_t>(day)] = factors;
    phase_by_day_[static_cast<size_t>(day)] = phase;
    amplitude_by_day_[static_cast<size_t>(day)] = amplitude;
    inertia_by_day_[static_cast<size_t>(day)] = inertia;
    coupling_by_day_[static_cast<size_t>(day)] = coupling;
    speed_coef_by_day_[static_cast<size_t>(day)] = speed_coef;
    flow_scale_by_day_[static_cast<size_t>(day)] = flow_scale;
    phase += config_.phase_drift_per_day;
    amplitude *= 1.0f + config_.demand_growth_per_day;
  }

  // Incidents: Poisson-ish sampling, localized congestion spikes.
  incidents_by_day_.resize(days);
  for (int64_t day = 0; day < config_.num_days; ++day) {
    for (int64_t node = 0; node < config_.num_nodes; ++node) {
      if (rng.Bernoulli(std::min(0.95, static_cast<double>(config_.incident_rate)))) {
        Incident incident;
        incident.node = node;
        incident.start_step = rng.UniformInt(0, config_.steps_per_day - 1);
        incident.duration = rng.UniformInt(2, std::max<int64_t>(3, config_.steps_per_day / 12));
        incident.severity = rng.Uniform(0.2f, 0.6f);
        incidents_by_day_[static_cast<size_t>(day)].push_back(incident);
      }
    }
  }

  SimulateCongestion();
}

float SyntheticTraffic::DemandAt(int64_t day, int64_t step, int64_t node) const {
  const float steps = static_cast<float>(config_.steps_per_day);
  const float phase = phase_by_day_[static_cast<size_t>(day)];
  const float t = static_cast<float>(step) - phase;
  // Rush hours at 8:30 and 17:30 (as fractions of the day), widths ~1.25 h.
  const float morning = Bump(t, 8.5f / 24.0f * steps, 1.25f / 24.0f * steps);
  const float evening = Bump(t, 17.5f / 24.0f * steps, 1.5f / 24.0f * steps);
  const bool weekend = (day % 7) >= 5;
  const float weekday_scale = weekend ? 0.55f : 1.0f;
  const float base = 0.22f + weekday_scale * (0.55f * morning + 0.5f * evening);
  return amplitude_by_day_[static_cast<size_t>(day)] * weekday_scale *
         factor_by_day_[static_cast<size_t>(day)][static_cast<size_t>(node)] * base;
}

void SyntheticTraffic::SimulateCongestion() {
  const int64_t total_steps = config_.num_days * config_.steps_per_day;
  const int64_t n = config_.num_nodes;
  congestion_.assign(static_cast<size_t>(total_steps * n), 0.0f);
  // Process noise makes the congestion state genuinely stochastic so that
  // knowing the regime coefficients matters for one-step prediction.
  Rng process_rng(config_.seed + 3);
  const float process_noise = config_.noise_std > 0.0f ? 0.02f : 0.0f;

  std::vector<float> previous(static_cast<size_t>(n));
  for (int64_t node = 0; node < n; ++node) {
    previous[static_cast<size_t>(node)] = std::clamp(DemandAt(0, 0, node), 0.0f, 1.0f);
  }
  std::vector<float> current(static_cast<size_t>(n));
  for (int64_t t = 0; t < total_steps; ++t) {
    const int64_t day = t / config_.steps_per_day;
    const int64_t step = t % config_.steps_per_day;
    const float a = inertia_by_day_[static_cast<size_t>(day)];
    const float b = coupling_by_day_[static_cast<size_t>(day)];
    const float g = 1.0f - a - b;  // demand-response weight; mean level is
                                   // regime-independent, dynamics are not.
    for (int64_t node = 0; node < n; ++node) {
      float drive = DemandAt(day, step, node);
      for (const Incident& incident : incidents_by_day_[static_cast<size_t>(day)]) {
        if (incident.node == node && step >= incident.start_step &&
            step < incident.start_step + incident.duration) {
          drive += incident.severity;
        }
      }
      const auto& neighbors = network_.Neighbors(node);
      float neighbor_mean = previous[static_cast<size_t>(node)];
      if (!neighbors.empty()) {
        float acc = 0.0f;
        float weight_total = 0.0f;
        for (const auto& [j, w] : neighbors) {
          acc += w * previous[static_cast<size_t>(j)];
          weight_total += w;
        }
        neighbor_mean = acc / std::max(weight_total, 1e-6f);
      }
      float state = a * previous[static_cast<size_t>(node)] + b * neighbor_mean + g * drive;
      if (process_noise > 0.0f) state += process_rng.Normal(0.0f, process_noise);
      current[static_cast<size_t>(node)] = std::clamp(state, 0.0f, 1.0f);
      congestion_[static_cast<size_t>(t * n + node)] = current[static_cast<size_t>(node)];
    }
    previous = current;
  }
}

float SyntheticTraffic::CongestionAt(int64_t day, int64_t step, int64_t node) const {
  URCL_CHECK(day >= 0 && day < config_.num_days);
  URCL_CHECK(step >= 0 && step < config_.steps_per_day);
  URCL_CHECK(node >= 0 && node < config_.num_nodes);
  const int64_t t = day * config_.steps_per_day + step;
  return congestion_[static_cast<size_t>(t * config_.num_nodes + node)];
}

Tensor SyntheticTraffic::GenerateSeries() {
  const int64_t total_steps = config_.num_days * config_.steps_per_day;
  Tensor series(Shape{total_steps, config_.num_nodes, config_.channels});
  float* out = series.mutable_data();
  Rng noise_rng(config_.seed + 2);
  for (int64_t day = 0; day < config_.num_days; ++day) {
    for (int64_t step = 0; step < config_.steps_per_day; ++step) {
      const int64_t t = day * config_.steps_per_day + step;
      for (int64_t node = 0; node < config_.num_nodes; ++node) {
        const float c = CongestionAt(day, step, node);
        float* cell = out + (t * config_.num_nodes + node) * config_.channels;
        // Speed falls with congestion at the current regime's response rate.
        const float speed_coef = speed_coef_by_day_[static_cast<size_t>(day)];
        const float speed = config_.free_flow_speed * (1.0f - speed_coef * c) +
                            noise_rng.Normal(0.0f, config_.noise_std);
        cell[0] = std::max(speed, 0.05f * config_.free_flow_speed);
        if (config_.channels >= 2) {
          // Fundamental diagram: flow peaks at intermediate congestion; the
          // regime scales the magnitude (sensor gain / capacity changes).
          const float flow = flow_scale_by_day_[static_cast<size_t>(day)] * config_.max_flow *
                             4.0f * c * std::max(1.0f - c, 0.0f);
          cell[1] = std::max(flow + noise_rng.Normal(0.0f, config_.noise_std * 4.0f), 0.0f);
        }
        if (config_.channels >= 3) {
          const float occupancy = 100.0f * c + noise_rng.Normal(0.0f, config_.noise_std);
          cell[2] = std::clamp(occupancy, 0.0f, 100.0f);
        }
      }
    }
  }
  ApplyInputFaults(&series);
  return series;
}

void ApplyInputFaults(Tensor* series) {
  URCL_CHECK(series != nullptr);
  URCL_CHECK_EQ(series->rank(), 3) << "fault injection expects a [T, N, C] series";
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  const double nan_rate = injector.nan_rate();
  const double inf_rate = injector.inf_rate();
  const double drop_rate = injector.drop_rate();
  if (nan_rate <= 0.0 && inf_rate <= 0.0 && drop_rate <= 0.0) return;

  const int64_t steps = series->dim(0);
  const int64_t nodes = series->dim(1);
  const int64_t channels = series->dim(2);
  float* data = series->mutable_data();
  Rng& rng = injector.rng();
  // Dropped sensors: a (t, node) pair whose every channel reads NaN, the way
  // a dead loop detector shows up in the METR-LA/PEMS exports.
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t node = 0; node < nodes; ++node) {
      float* cell = data + (t * nodes + node) * channels;
      if (drop_rate > 0.0 && rng.Bernoulli(drop_rate)) {
        for (int64_t c = 0; c < channels; ++c) {
          cell[c] = std::numeric_limits<float>::quiet_NaN();
        }
        injector.RecordDroppedSensor();
        continue;
      }
      for (int64_t c = 0; c < channels; ++c) {
        if (nan_rate > 0.0 && rng.Bernoulli(nan_rate)) {
          cell[c] = std::numeric_limits<float>::quiet_NaN();
          injector.RecordNanCell();
        } else if (inf_rate > 0.0 && rng.Bernoulli(inf_rate)) {
          cell[c] = std::numeric_limits<float>::infinity();
          injector.RecordInfCell();
        }
      }
    }
  }
}

}  // namespace data
}  // namespace urcl
