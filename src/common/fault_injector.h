// Process-wide fault-injection harness for crash-safety and robustness
// testing. Three fault families:
//
//  1. Kill points: named locations in the training loop (see core/urcl.cc)
//     where the process can be made to "crash" after a given number of hits —
//     either for real (std::_Exit(137), like SIGKILL but without signal
//     delivery nondeterminism) or cooperatively (the loop stops, the caller
//     discards the trainer and must resume from on-disk state only).
//  2. Input faults: NaN/Inf sensor readings and dropped (blacked-out) sensors
//     applied to generated series (data/synthetic.cc), plus duplicated
//     batches in the training schedule. The pipeline must quarantine the
//     resulting bad batches and keep training on the rest.
//  3. Serving faults: failures of the live serving path (serve/service.cc,
//     core/urcl.cc publish). The service must quarantine, degrade or roll
//     back — never crash and never emit a non-finite forecast.
//
// Configured programmatically (tests) or via the URCL_FAULT environment
// variable (CLI binaries call LoadFromEnv via ApplyRuntimeFlags). Spec is a
// semicolon-separated list:
//
//   URCL_FAULT="nan=0.01;inf=0.001;drop=0.05;dup=0.02;seed=9;kill=batch_done:40"
//   URCL_FAULT="serve_bitflip=0.2;tick_drop=0.1;slow=0.05;slow_ms=2;drop_publish=0.2"
//
//   kill=<point>:<hit>[:stop]  crash on the <hit>-th pass of the kill point
//                              (":stop" = cooperative stop instead of _Exit)
//   nan=<rate>   probability a series cell becomes NaN
//   inf=<rate>   probability a series cell becomes +/-Inf
//   drop=<rate>  probability a sensor loses a contiguous span of readings
//   dup=<rate>   probability a training batch is fed twice
//   seed=<n>     seed of the injector's private RNG (default 0xFA117)
//
//   serving fault points (names are the contract; tests and scripts/check.sh
//   reference them verbatim):
//   serve_bitflip=<rate>   probability a published snapshot has one byte
//                          bit-flipped before serving-side admission (the
//                          checkpoint CRC gate must quarantine it)
//   drop_publish=<rate>    probability the trainer's snapshot publish is
//                          silently swallowed (a stalled publisher: serving
//                          keeps answering from the last version it admitted)
//   tick_drop=<rate>       probability an ingested tick is dropped before it
//                          reaches the rolling window (ingestion gap)
//   tick_dup=<rate>        probability an ingested tick is applied twice
//   slow=<rate>            probability a Predict call sleeps slow_ms before
//                          answering (slow-inference tail)
//   slow_ms=<n>            sleep duration of a slowed query (default 2 ms)
//
// Kill points currently wired in (core/urcl.cc): stage_begin, batch_done,
// checkpoint_written, stage_end.
//
// All draws use the injector's own Rng so enabling faults never perturbs the
// deterministic streams of the components under test. Serving-fault draws are
// mutex-guarded: they fire from the ingestion, publisher and query threads
// concurrently.
#ifndef URCL_COMMON_FAULT_INJECTOR_H_
#define URCL_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"

namespace urcl {
namespace fault {

enum class KillMode {
  kExit,  // std::_Exit(137) — a real (if tidy) crash
  kStop,  // AtKillPoint returns true; the training loop must stop
};

struct FaultCounters {
  int64_t kills = 0;
  int64_t nan_cells = 0;
  int64_t inf_cells = 0;
  int64_t dropped_sensors = 0;
  int64_t duplicated_batches = 0;
  // Serving faults.
  int64_t bitflipped_snapshots = 0;
  int64_t dropped_publishes = 0;
  int64_t dropped_ticks = 0;
  int64_t duplicated_ticks = 0;
  int64_t slowed_queries = 0;
};

class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Parses `spec` (grammar above). Returns one message per malformed clause;
  // valid clauses are applied regardless.
  std::vector<std::string> Configure(const std::string& spec);

  // Reads URCL_FAULT once per call; malformed clauses are reported on stderr.
  void LoadFromEnv();

  // Back to a fully disarmed injector (tests call this between cases).
  void Reset();

  bool enabled() const { return enabled_; }

  // --- Kill points --------------------------------------------------------
  // Arms a crash at the `after_hits`-th pass of `point` (1-based).
  void ArmKill(const std::string& point, int64_t after_hits, KillMode mode);

  // Called at every named kill point. Returns true when the caller must stop
  // (kStop mode); in kExit mode the process exits with code 137 instead. A
  // triggered kill disarms itself so a resumed run in the same process (the
  // cooperative testing pattern) does not re-fire.
  bool AtKillPoint(const char* point);

  // --- Input faults -------------------------------------------------------
  double nan_rate() const { return nan_rate_; }
  double inf_rate() const { return inf_rate_; }
  double drop_rate() const { return drop_rate_; }
  double dup_rate() const { return dup_rate_; }

  // Bernoulli(dup_rate) draw; counts and returns true when the caller should
  // feed the current batch twice.
  bool NextBatchDuplicated();

  // Private RNG for fault placement (used by data/synthetic.cc).
  Rng& rng() { return rng_; }

  // Counter hooks for fault appliers living in other layers.
  void RecordNanCell() { ++counters_.nan_cells; }
  void RecordInfCell() { ++counters_.inf_cells; }
  void RecordDroppedSensor() { ++counters_.dropped_sensors; }

  // --- Serving faults -----------------------------------------------------
  // Thread-safe Bernoulli draws (called from the serving threads). Each
  // counts its own trigger.
  bool NextSnapshotBitflipped();
  bool NextPublishDropped();
  bool NextTickDropped();
  bool NextTickDuplicated();
  bool NextQuerySlowed();
  int64_t slow_ms() const { return slow_ms_; }

  // Uniform byte index in [0, size) from the injector's RNG (thread-safe);
  // used to place the serve_bitflip corruption.
  size_t PickByte(size_t size);

  const FaultCounters& counters() const { return counters_; }

 private:
  FaultInjector() = default;

  struct KillSpec {
    int64_t after_hits = 0;  // 1-based trigger count; 0 = disarmed
    int64_t hits = 0;
    KillMode mode = KillMode::kExit;
  };

  // Mutex-guarded Bernoulli draw incrementing `counter` on success (the
  // serving threads share the injector's RNG).
  bool ServeDraw(double rate, int64_t* counter);

  bool enabled_ = false;
  double nan_rate_ = 0.0;
  double inf_rate_ = 0.0;
  double drop_rate_ = 0.0;
  double dup_rate_ = 0.0;
  double bitflip_rate_ = 0.0;
  double drop_publish_rate_ = 0.0;
  double tick_drop_rate_ = 0.0;
  double tick_dup_rate_ = 0.0;
  double slow_rate_ = 0.0;
  int64_t slow_ms_ = 2;
  // rng_, kills_ and counters_ cannot be URCL_GUARDED_BY(serve_mu_): the
  // training-path draws (NextBatchDuplicated, the input-fault placement
  // through rng()), kill points and Configure run on the single driver thread
  // without the lock by design, while the serving-path draws (ServeDraw,
  // PickByte, Reset) fire from ingestion, publisher and query threads
  // concurrently and do lock. serve_mu_ makes only the serving draws atomic;
  // mixing the two modes on one member is a documented pre-TSA contract, not
  // an analysis escape.
  Rng rng_{0xFA117};
  Mutex serve_mu_;
  std::map<std::string, KillSpec> kills_;
  FaultCounters counters_;
};

}  // namespace fault
}  // namespace urcl

#endif  // URCL_COMMON_FAULT_INJECTOR_H_
