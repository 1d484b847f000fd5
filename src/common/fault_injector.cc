#include "common/fault_injector.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace urcl {
namespace fault {
namespace {

// Parses a strict decimal double in [0, 1]; returns false on junk.
bool ParseRate(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;
  *out = value;
  return true;
}

bool ParseInt(const std::string& text, int64_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) parts.push_back(part);
  return parts;
}

}  // namespace

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Reset() {
  MutexLock lock(serve_mu_);
  enabled_ = false;
  nan_rate_ = inf_rate_ = drop_rate_ = dup_rate_ = 0.0;
  bitflip_rate_ = drop_publish_rate_ = tick_drop_rate_ = tick_dup_rate_ = slow_rate_ = 0.0;
  slow_ms_ = 2;
  rng_ = Rng(0xFA117);
  kills_.clear();
  counters_ = FaultCounters();
}

bool FaultInjector::ServeDraw(double rate, int64_t* counter) {
  if (rate <= 0.0) return false;
  MutexLock lock(serve_mu_);
  if (!rng_.Bernoulli(rate)) return false;
  ++*counter;
  return true;
}

bool FaultInjector::NextSnapshotBitflipped() {
  return ServeDraw(bitflip_rate_, &counters_.bitflipped_snapshots);
}

bool FaultInjector::NextPublishDropped() {
  return ServeDraw(drop_publish_rate_, &counters_.dropped_publishes);
}

bool FaultInjector::NextTickDropped() {
  return ServeDraw(tick_drop_rate_, &counters_.dropped_ticks);
}

bool FaultInjector::NextTickDuplicated() {
  return ServeDraw(tick_dup_rate_, &counters_.duplicated_ticks);
}

bool FaultInjector::NextQuerySlowed() {
  return ServeDraw(slow_rate_, &counters_.slowed_queries);
}

size_t FaultInjector::PickByte(size_t size) {
  if (size == 0) return 0;
  MutexLock lock(serve_mu_);
  return static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(size) - 1));
}

void FaultInjector::ArmKill(const std::string& point, int64_t after_hits, KillMode mode) {
  KillSpec& spec = kills_[point];
  spec.after_hits = after_hits;
  spec.hits = 0;
  spec.mode = mode;
  enabled_ = true;
}

bool FaultInjector::AtKillPoint(const char* point) {
  if (!enabled_) return false;
  auto it = kills_.find(point);
  if (it == kills_.end() || it->second.after_hits <= 0) return false;
  KillSpec& spec = it->second;
  if (++spec.hits < spec.after_hits) return false;
  spec.after_hits = 0;  // disarm: a resumed run must not re-fire
  ++counters_.kills;
  if (spec.mode == KillMode::kExit) {
    std::fprintf(stderr, "[fault] simulated crash at kill point '%s' (hit %lld)\n", point,
                 static_cast<long long>(spec.hits));
    std::fflush(stderr);
    std::_Exit(137);
  }
  std::fprintf(stderr, "[fault] cooperative stop at kill point '%s' (hit %lld)\n", point,
               static_cast<long long>(spec.hits));
  return true;
}

bool FaultInjector::NextBatchDuplicated() {
  if (dup_rate_ <= 0.0) return false;
  if (!rng_.Bernoulli(dup_rate_)) return false;
  ++counters_.duplicated_batches;
  return true;
}

std::vector<std::string> FaultInjector::Configure(const std::string& spec) {
  std::vector<std::string> errors;
  for (const std::string& clause : SplitOn(spec, ';')) {
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      errors.push_back("fault clause '" + clause + "' is not key=value");
      continue;
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "nan" || key == "inf" || key == "drop" || key == "dup" ||
        key == "serve_bitflip" || key == "drop_publish" || key == "tick_drop" ||
        key == "tick_dup" || key == "slow") {
      double rate = 0.0;
      if (!ParseRate(value, &rate)) {
        errors.push_back("fault rate '" + clause + "' must be a number in [0, 1]");
        continue;
      }
      if (key == "nan") nan_rate_ = rate;
      else if (key == "inf") inf_rate_ = rate;
      else if (key == "drop") drop_rate_ = rate;
      else if (key == "dup") dup_rate_ = rate;
      else if (key == "serve_bitflip") bitflip_rate_ = rate;
      else if (key == "drop_publish") drop_publish_rate_ = rate;
      else if (key == "tick_drop") tick_drop_rate_ = rate;
      else if (key == "tick_dup") tick_dup_rate_ = rate;
      else slow_rate_ = rate;
      enabled_ = enabled_ || rate > 0.0;
    } else if (key == "slow_ms") {
      int64_t ms = 0;
      if (!ParseInt(value, &ms) || ms < 0) {
        errors.push_back("slow_ms '" + value + "' must be a non-negative integer");
        continue;
      }
      slow_ms_ = ms;
    } else if (key == "seed") {
      int64_t seed = 0;
      if (!ParseInt(value, &seed)) {
        errors.push_back("fault seed '" + value + "' is not an integer");
        continue;
      }
      rng_ = Rng(static_cast<uint64_t>(seed));
    } else if (key == "kill") {
      // kill=<point>:<hit>[:stop]
      const std::vector<std::string> parts = SplitOn(value, ':');
      int64_t hits = 0;
      if (parts.size() < 2 || parts.size() > 3 || !ParseInt(parts[1], &hits) || hits <= 0) {
        errors.push_back("kill spec '" + value + "' must be <point>:<hit>[:stop]");
        continue;
      }
      KillMode mode = KillMode::kExit;
      if (parts.size() == 3) {
        if (parts[2] != "stop") {
          errors.push_back("kill mode '" + parts[2] + "' must be 'stop' or absent");
          continue;
        }
        mode = KillMode::kStop;
      }
      ArmKill(parts[0], hits, mode);
    } else {
      errors.push_back("unknown fault key '" + key + "'");
    }
  }
  return errors;
}

void FaultInjector::LoadFromEnv() {
  // lint:allow(banned-call/getenv) URCL_FAULT, the fault-injection spec.
  const char* spec = std::getenv("URCL_FAULT");
  if (spec == nullptr || *spec == '\0') return;
  for (const std::string& error : Configure(spec)) {
    std::fprintf(stderr, "[fault] URCL_FAULT: %s\n", error.c_str());
  }
}

}  // namespace fault
}  // namespace urcl
