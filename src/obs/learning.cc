#include "obs/learning.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace urcl {
namespace obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

void LearningTelemetry::Record(int64_t trained_stage, int64_t eval_stage, double metric) {
  matrix_[trained_stage][eval_stage] = metric;
  if (trained_stage > latest_trained_) latest_trained_ = trained_stage;
}

double LearningTelemetry::At(int64_t trained_stage, int64_t eval_stage) const {
  const auto row = matrix_.find(trained_stage);
  if (row == matrix_.end()) return kNan;
  const auto cell = row->second.find(eval_stage);
  return cell != row->second.end() ? cell->second : kNan;
}

double LearningTelemetry::Forgetting(int64_t stage) const {
  const double first = Diagonal(stage);
  const double latest = Latest(stage);
  if (std::isnan(first) || std::isnan(latest)) return kNan;
  return latest - first;
}

double LearningTelemetry::MeanForgetting() const {
  double sum = 0.0;
  int64_t n = 0;
  for (int64_t s = 0; s < latest_trained_; ++s) {
    const double f = Forgetting(s);
    if (std::isnan(f)) continue;
    sum += f;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void LearningTelemetry::ExportGauges() const {
  if (!MetricsEnabled()) return;
  auto& registry = MetricsRegistry::Get();
  for (int64_t s = 0; s < latest_trained_; ++s) {
    const double f = Forgetting(s);
    if (std::isnan(f)) continue;
    registry
        .GetGauge(LabeledName("urcl.learn.forgetting", {{"stage", std::to_string(s)}}))
        .Set(f);
  }
  registry.GetGauge("urcl.learn.backward_transfer").Set(BackwardTransfer());
  registry.GetGauge("urcl.learn.stages_trained")
      .Set(static_cast<double>(latest_trained_ + 1));
}

std::string LearningTelemetry::ToJson() const {
  std::ostringstream out;
  out << "{\"stages\":" << (latest_trained_ + 1) << ",\"matrix\":{";
  bool first_row = true;
  for (const auto& [trained, row] : matrix_) {
    if (!first_row) out << ",";
    first_row = false;
    out << JsonString(std::to_string(trained)) << ":{";
    bool first_cell = true;
    for (const auto& [eval, metric] : row) {
      if (!first_cell) out << ",";
      first_cell = false;
      out << JsonString(std::to_string(eval)) << ":" << JsonNumber(metric);
    }
    out << "}";
  }
  out << "},\"forgetting\":{";
  bool first = true;
  for (int64_t s = 0; s < latest_trained_; ++s) {
    const double f = Forgetting(s);
    if (std::isnan(f)) continue;
    if (!first) out << ",";
    first = false;
    out << JsonString(std::to_string(s)) << ":" << JsonNumber(f);
  }
  out << "},\"mean_forgetting\":" << JsonNumber(MeanForgetting())
      << ",\"backward_transfer\":" << JsonNumber(BackwardTransfer()) << "}";
  return out.str();
}

Status LearningTelemetry::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Error("cannot open learning telemetry file: " + path);
  out << ToJson() << "\n";
  out.flush();
  if (!out) return Status::Error("failed writing learning telemetry file: " + path);
  return Status::Ok();
}

}  // namespace obs
}  // namespace urcl
