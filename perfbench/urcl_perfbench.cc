// Workload program of the repository benchmark (perfbench/run.py builds and
// runs it). One process runs one workload and prints, as the last line of
// stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
//   urcl_perfbench --workload protocol|serve_train --seed N --seconds S
//                  --trace 0|1
//
// Every workload runs URCL with all of the paper's components on
// (augmentation, SSL at weight 1.0, RMIR replay, STMixup; GraphWaveNet
// encoder, default executor) on the METR-LA preset over a 64-sensor synthetic
// network. --seed drives the synthetic series and the model initialisation.
//
// Workloads, each with its unit of work:
//   protocol     the continual protocol, repeated for --seconds with a fresh
//                trainer per pass: for the base set and each of the four
//                incremental sets, train kBatchesPerEpoch steps, deploy the
//                stage's weights into a ForecastService and answer the
//                seen-so-far test windows through it. Unit: one stage update
//                (train the set + deploy). Default compute thread count.
//   serve_train  kClients closed-loop clients send single-window queries while
//                a live trainer cycles through the stream's sets in the same
//                process and publishes a snapshot every kTrainPublishEvery
//                steps. Unit: one query. The client count, query size and
//                publish period are bench_serving's defaults, the serving mix
//                BENCH_serving.json records.
// serve_train runs one compute thread per caller (SetNumThreads(1)), so a
// query executes entirely on the client thread that sent it.
//
// End-to-end times are CPU time, not wall time: process CPU time for the
// protocol (all compute threads), the calling thread's CPU time for a query.
// On a shared virtual machine the host takes cores away for tens of
// milliseconds at a time (steal); wall-clock figures then measure the host
// more than the program, while CPU time counts only the work the program did.
// CPU time is blind to time spent blocked (every ParallelFor region holds one
// process-wide lock, so concurrent callers queue) and to parallel speed-up;
// the per-layer wall figures and cpu_per_wall show both.
//
// End-to-end metrics (--trace 0): cpu_p50_ms and cpu_p90_ms of the unit cost,
// units_per_cpu_s (units done per CPU second of the threads doing them, so
// also a capacity per core), and setup_s (CPU seconds to build the inputs,
// model and service; see SetupTimer).
// Per-layer metrics (--trace 1), all from the measured window of the workload
// itself: the serving split measured around the workload's calls (snapshot
// admission, swap-window vs steady query CPU, query wall latency, plan
// compiles per swap, plan-answer share), the process's CPU/wall ratio, and
// the trainer's and service's own trace spans (train step and its forward,
// backward, optimizer and RMIR phases, snapshot publish, serving executor).
//
// Correctness: sampled answers are compared bit for bit with a tape forward of
// the snapshot version that served them; protocol passes must reproduce each
// other's losses and MAE exactly; no step or snapshot may be quarantined and
// no query may fail or degrade.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <ctime>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "checkpoint/container.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/urcl.h"
#include "data/metrics.h"
#include "data/normalizer.h"
#include "data/presets.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace urcl {
namespace perfbench {
namespace {

using autograd::Variable;

constexpr int64_t kNodes = 64;             // sensors in the synthetic network
constexpr int64_t kDays = 5;               // 480 steps at 15-minute sampling
constexpr int64_t kBatchesPerEpoch = 6;    // every stage trains exactly 6 steps
constexpr int64_t kEvalBatch = 16;         // protocol evaluation batch
constexpr int64_t kQueryPool = 32;         // distinct queries per workload
constexpr int64_t kSetupRepeats = 12;      // set-ups per batch, 5-9 ms each
constexpr int64_t kMinSetupBatches = 10;   // timed set-up batches a run needs
constexpr double kSetupEverySeconds = 0.5; // serve_train set-up batch period
constexpr int64_t kSampleEvery = 16;      // verify every Nth recorded answer
constexpr int64_t kClients = 4;            // bench_serving --clients default
constexpr int64_t kTrainQueryBatch = 1;    // windows per serve_train query
constexpr int64_t kTrainPublishEvery = 4;  // bench_serving --publish-every default
constexpr int64_t kMinAnswers = 200;       // cpu_p90_ms needs >= 10 beyond it
constexpr size_t kTraceRingEvents = 16384; // spans kept per thread (--trace 1)
constexpr double kWarmupSeconds = 0.5;

// ---------------------------------------------------------------------------
// Clocks, statistics and output

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double NsToMs(double ns) { return ns / 1e6; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

// The end-to-end metrics shared by every workload, from per-unit CPU costs.
void AddEndToEnd(const std::vector<double>& unit_cpu_ns, double total_cpu_ns,
                 Outcome* outcome) {
  outcome->Add("cpu_p50_ms", NsToMs(Quantile(unit_cpu_ns, 0.50)), "ms");
  outcome->Add("cpu_p90_ms", NsToMs(Quantile(unit_cpu_ns, 0.90)), "ms");
  outcome->Add("units_per_cpu_s", static_cast<double>(unit_cpu_ns.size()) / (total_cpu_ns / 1e9),
               "1/s");
}

// What the serving layer did in a workload's measured window.
struct ServingWindow {
  std::vector<double> admission_ns;  // CPU per snapshot publish into the service
  std::vector<double> swap_ns;       // query CPU: first answer on a new version
  std::vector<double> steady_ns;     // query CPU: the other answers
  std::vector<double> wall_ns;       // query wall latency, every answer
  int64_t plan_answers = 0;
  int64_t compiles = 0;
  int64_t swaps = 0;
  double cpu_ns = 0.0;   // process CPU of the measured work
  double wall_s = 0.0;   // wall time of the measured work
};

// The serving-layer split (--trace 1) shared by every workload: snapshot
// admission cost, first-answer-on-a-new-version vs steady query cost, query
// wall latency (lock waits and lost parallelism show here, not in CPU time),
// plan compiles per hot-swap, the share of answers the compiled plan gave, and
// process CPU per wall second.
void AddServingLayers(const ServingWindow& w, Outcome* outcome) {
  const size_t answered = w.swap_ns.size() + w.steady_ns.size();
  outcome->Add("admission_ms", NsToMs(Median(w.admission_ns)), "ms");
  outcome->Add("swap_query_p50_ms", NsToMs(Median(w.swap_ns)), "ms");
  outcome->Add("steady_query_p50_ms", NsToMs(Median(w.steady_ns)), "ms");
  outcome->Add("query_wall_p50_ms", NsToMs(Quantile(w.wall_ns, 0.50)), "ms");
  outcome->Add("query_wall_p90_ms", NsToMs(Quantile(w.wall_ns, 0.90)), "ms");
  outcome->Add("plan_compiles_per_swap",
               static_cast<double>(w.compiles) / static_cast<double>(std::max<int64_t>(w.swaps, 1)),
               "ratio");
  outcome->Add("plan_answer_pct",
               100.0 * static_cast<double>(w.plan_answers) /
                   static_cast<double>(std::max<size_t>(answered, 1)),
               "%");
  outcome->Add("cpu_per_wall", w.cpu_ns / 1e9 / w.wall_s, "ratio");
}

void PrintOutcome(Outcome& outcome) {
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) outcome.Fail("metric " + m.name + " is not finite");
  }
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              outcome.correct ? "true" : "false", static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Trace spans of the measured window (--trace 1)

// Records the trainer's and service's URCL_TRACE_SCOPE spans from now on.
void StartSpans() {
  obs::ClearTrace();
  obs::ObsConfig config = obs::Current();
  config.trace = true;
  obs::Configure(config);
}

void StopSpans() {
  obs::ObsConfig config = obs::Current();
  config.trace = false;
  obs::Configure(config);
}

// Span durations in ms by span name, read back from the Chrome trace export
// ({"name":"<n>","cat":"urcl","ph":"X","ts":..,"dur":<us>,...}).
std::map<std::string, std::vector<double>> SpanDurationsMs() {
  const std::string json = obs::ChromeTraceJson();
  const std::string open = "{\"name\":\"";
  const std::string kind = "\",\"cat\":\"urcl\",\"ph\":\"X\"";
  const std::string dur = "\"dur\":";
  std::map<std::string, std::vector<double>> spans;
  for (size_t at = json.find(open); at != std::string::npos; at = json.find(open, at + 1)) {
    const size_t name_begin = at + open.size();
    const size_t name_end = json.find('"', name_begin);
    if (name_end == std::string::npos || json.compare(name_end, kind.size(), kind) != 0) continue;
    const size_t dur_at = json.find(dur, name_end);
    if (dur_at == std::string::npos) break;
    spans[json.substr(name_begin, name_end - name_begin)].push_back(
        std::strtod(json.c_str() + dur_at + dur.size(), nullptr) / 1000.0);
  }
  return spans;
}

// Per-layer metrics from the spans: the median train step and snapshot
// publish, the step's phases as mean ms per step (a phase may run zero or
// several times in a step), and the median serving executor call.
void AddSpanLayers(Outcome* outcome) {
  std::map<std::string, std::vector<double>> spans = SpanDurationsMs();
  const double steps = static_cast<double>(spans["train_step"].size());
  const auto per_step = [&](const char* span) {
    const std::vector<double>& ms = spans[span];
    return std::accumulate(ms.begin(), ms.end(), 0.0) / steps;
  };
  if (steps == 0 || spans["forward"].empty() || spans["rmir_draw"].empty()) {
    outcome->Fail("the measured window recorded no train step spans");
  }
  outcome->Add("train_step_ms", Median(spans["train_step"]), "ms");
  outcome->Add("forward_ms", per_step("forward"), "ms");
  outcome->Add("backward_ms", per_step("backward"), "ms");
  outcome->Add("optimizer_ms", per_step("optimizer_step"), "ms");
  outcome->Add("rmir_draw_ms", per_step("rmir_draw"), "ms");
  outcome->Add("publish_ms", Median(spans["publish_snapshot"]), "ms");
  outcome->Add("serve_exec_ms", Median(spans["serve.exec"]), "ms");
}

// ---------------------------------------------------------------------------
// Inputs

struct Pipeline {
  data::DatasetPreset preset;
  std::unique_ptr<data::SyntheticTraffic> generator;
  data::MinMaxNormalizer normalizer;
  std::unique_ptr<data::StDataset> dataset;
  std::unique_ptr<data::StreamSplitter> stream;
  int64_t target_channel = 0;
  std::vector<Tensor> queries;  // [B, M, N, C] windows spread over the series

  const graph::SensorNetwork& network() const { return generator->network(); }
};

std::unique_ptr<Pipeline> BuildPipeline(uint64_t seed, int64_t query_batch) {
  auto p = std::make_unique<Pipeline>();
  p->preset = data::MetrLaPreset();
  data::TrafficConfig traffic = p->preset.MakeTrafficConfig(kNodes, kDays, seed);
  // Pronounced drift at the set boundaries, as in the reproduction benches.
  traffic.abrupt_refresh_fraction = 0.7f;
  traffic.abrupt_phase_jump_steps = 8.0f;
  traffic.regime_drift_scale = 1.6f;
  p->generator = std::make_unique<data::SyntheticTraffic>(traffic);
  const Tensor series = p->generator->GenerateSeries();
  p->normalizer = data::MinMaxNormalizer::Fit(series);
  const data::WindowConfig window = p->preset.MakeWindowConfig();
  p->dataset = std::make_unique<data::StDataset>(p->normalizer.Transform(series), window);
  p->stream = std::make_unique<data::StreamSplitter>(*p->dataset, data::StreamConfig{});
  p->target_channel = window.target_channel;
  const int64_t samples = p->dataset->NumSamples();
  const int64_t windows = kQueryPool * query_batch;
  for (int64_t i = 0; i < kQueryPool; ++i) {
    std::vector<int64_t> indices;
    for (int64_t j = 0; j < query_batch; ++j) {
      indices.push_back((i * query_batch + j) * samples / windows);
    }
    p->queries.push_back(p->dataset->MakeBatch(indices).first);
  }
  return p;
}

// URCL with every paper component on (the UrclConfig defaults: augmentation,
// SSL at weight 1.0, RMIR, STMixup) at the reproduction benches' quick-scale
// widths and the paper's five-layer encoder.
core::UrclConfig MakeModelConfig(const Pipeline& p, uint64_t seed) {
  core::UrclConfig config;
  config.encoder.num_nodes = kNodes;
  config.encoder.in_channels = p.preset.channels;
  config.encoder.input_steps = p.preset.input_steps;
  config.encoder.hidden_channels = 8;
  config.encoder.latent_channels = 16;
  config.encoder.num_layers = 5;
  config.encoder.adaptive_embedding_dim = 6;
  config.decoder_hidden = 64;
  config.proj_hidden = 16;
  config.output_steps = p.preset.output_steps;
  config.max_batches_per_epoch = kBatchesPerEpoch;
  config.seed = seed;
  return config;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Times the workload's set-up: `make` builds its inputs, model and service.
// A batch runs `make` kSetupRepeats times (a fixed count, so the figure does
// not depend on how much wall time the host grants); setup_s is the median
// over all timed batches of the mean CPU time per set-up. The host's speed
// drifts over seconds (the same set-up takes 5 to 9 ms of CPU), so each
// workload times batches spread over its whole run, always under the same
// load: the protocol between stages, with its compute threads idle, and
// serve_train every kSetupEverySeconds inside the measured window. `cpu_clock`
// is the process clock where set-up may use compute workers, and the calling
// thread's clock where it runs wholly on that thread while other threads work.
template <typename Make>
class SetupTimer {
 public:
  SetupTimer(int64_t (*cpu_clock)(), Make make) : cpu_clock_(cpu_clock), make_(std::move(make)) {}

  // One untimed batch to warm caches and the tensor pool, then the state the
  // workload runs on.
  auto Build() {
    for (int64_t repeat = 0; repeat < kSetupRepeats; ++repeat) make_();
    return make_();
  }

  void Batch() {
    const int64_t cpu_start = cpu_clock_();
    for (int64_t repeat = 0; repeat < kSetupRepeats; ++repeat) make_();
    seconds_.push_back(static_cast<double>(cpu_clock_() - cpu_start) / 1e9 /
                       static_cast<double>(kSetupRepeats));
  }

  // setup_s (--trace 0), or a failure when the run timed too few batches.
  void Report(const Args& args, Outcome* outcome) {
    if (args.trace) return;
    if (static_cast<int64_t>(seconds_.size()) < kMinSetupBatches) {
      outcome->Fail("only " + std::to_string(seconds_.size()) + " set-up batches timed");
    }
    outcome->Add("setup_s", Median(seconds_), "s");
  }

 private:
  int64_t (*cpu_clock_)();
  Make make_;
  std::vector<double> seconds_;
};

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.NumElements()) * sizeof(float)) ==
             0;
}

// ---------------------------------------------------------------------------
// Answer verification: tape forward of the published snapshot that served.

struct Sample {
  int64_t version = 0;
  size_t query = 0;
  Tensor predictions;
};

// Checks each sample against UrclModel::Forward of containers[version - 1]
// (trainer versions are 1-based publish counts).
void VerifySamples(const std::vector<Sample>& samples,
                   const std::vector<checkpoint::Container>& containers,
                   const core::UrclConfig& config, const Pipeline& p, Outcome* outcome) {
  const Tensor adjacency = p.network().AdjacencyMatrix();
  std::map<int64_t, std::shared_ptr<const serve::ModelSnapshot>> parsed;
  std::map<std::pair<int64_t, size_t>, Tensor> reference;
  int64_t mismatches = 0;
  for (const Sample& sample : samples) {
    if (sample.version < 1 || sample.version > static_cast<int64_t>(containers.size())) {
      outcome->Fail("answer stamped with unknown version " + std::to_string(sample.version));
      continue;
    }
    const auto key = std::make_pair(sample.version, sample.query);
    auto it = reference.find(key);
    if (it == reference.end()) {
      std::shared_ptr<const serve::ModelSnapshot>& snapshot = parsed[sample.version];
      if (snapshot == nullptr) {
        const Status status = serve::ParseModelSnapshot(
            containers[static_cast<size_t>(sample.version - 1)], config, &snapshot);
        if (!status.ok()) {
          outcome->Fail("cannot parse snapshot v" + std::to_string(sample.version) + ": " +
                        status.ToString());
          continue;
        }
      }
      const Tensor& inputs = p.queries[sample.query];
      it = reference
               .emplace(key, snapshot->model->Forward(Variable(inputs, false), adjacency).value())
               .first;
    }
    if (!SameBits(it->second, sample.predictions)) ++mismatches;
  }
  if (mismatches > 0) {
    outcome->Fail(std::to_string(mismatches) + " of " + std::to_string(samples.size()) +
                  " sampled answers differ from the tape forward of their snapshot");
  }
}

// ---------------------------------------------------------------------------
// protocol

struct ProtocolState {
  std::unique_ptr<Pipeline> pipeline;
  core::UrclConfig config;
  std::unique_ptr<serve::ForecastService> service;
};

struct ProtocolLog {
  std::vector<double> update_ns;  // train one stage + deploy its weights
  ServingWindow serving;          // deploys and evaluation queries
  int64_t queries = 0;
  int64_t failed_queries = 0;
  int64_t mismatches = 0;
};

struct PassResult {
  std::vector<float> losses;
  std::vector<double> stage_mae;  // pooled seen-so-far MAE after each stage
  int64_t quarantined = 0;
};

// One pass of the continual protocol with a fresh trainer: for each set of
// the stream, train on it, deploy the stage's final weights (the trainer
// publishes them at stage end) and answer the seen-so-far test windows
// through the service. Every stage trains kBatchesPerEpoch steps, so stage
// updates are units of equal work. The stage's CPU and wall time add to
// log->serving; `after_stage` runs between stages, outside both.
PassResult RunProtocolPass(const ProtocolState& state, ProtocolLog* log,
                           const std::function<void()>& after_stage) {
  const Pipeline& p = *state.pipeline;
  core::UrclTrainer trainer(state.config, p.network());
  checkpoint::Container stage_end;
  trainer.SetSnapshotSink(
      [&stage_end](const checkpoint::Container& container) { stage_end = container; });
  const core::UrclTrainer::SnapshotSink deploy = state.service->SnapshotSink();
  ServingWindow& serving = log->serving;
  PassResult result;
  for (int64_t stage = 0; stage < p.stream->NumStages(); ++stage) {
    trainer.BeginStage(stage);
    const Stopwatch stage_wall;
    const int64_t update_start = ProcessCpuNs();
    trainer.TrainStage(p.stream->Stage(stage).train, 1);
    const int64_t deploy_start = ProcessCpuNs();
    deploy(stage_end);
    const int64_t update_end = ProcessCpuNs();
    log->update_ns.push_back(static_cast<double>(update_end - update_start));
    serving.admission_ns.push_back(static_cast<double>(update_end - deploy_start));

    data::MetricsAccumulator accumulator;
    bool first = true;
    for (int64_t seen = 0; seen <= stage; ++seen) {
      const data::StDataset& test = p.stream->Stage(seen).test;
      for (int64_t start = 0; start < test.NumSamples(); start += kEvalBatch) {
        const int64_t count = std::min(kEvalBatch, test.NumSamples() - start);
        std::vector<int64_t> indices;
        for (int64_t i = 0; i < count; ++i) indices.push_back(start + i);
        const auto [inputs, targets] = test.MakeBatch(indices);
        core::PredictRequest request;
        request.inputs = inputs;
        core::PredictResponse response;
        const Stopwatch query_wall;
        const int64_t query_start = ProcessCpuNs();
        const Status status = state.service->Predict(request, &response);
        const double cpu_ns = static_cast<double>(ProcessCpuNs() - query_start);
        const double wall_ns = static_cast<double>(query_wall.ElapsedNs());
        ++log->queries;
        if (!status.ok() || response.degraded || !response.predictions.AllFinite()) {
          ++log->failed_queries;
          continue;
        }
        (first ? serving.swap_ns : serving.steady_ns).push_back(cpu_ns);
        serving.wall_ns.push_back(wall_ns);
        if (response.executor == core::AnswerExecutor::kPlan) ++serving.plan_answers;
        if (first) {
          // The deployed version must answer exactly what the trainer's own
          // weights do.
          core::PredictResponse direct;
          if (!trainer.Predict(request, &direct).ok() ||
              !SameBits(direct.predictions, response.predictions)) {
            ++log->mismatches;
          }
          first = false;
        }
        accumulator.Add(
            p.normalizer.InverseTransformChannel(response.predictions, p.target_channel),
            p.normalizer.InverseTransformChannel(targets, p.target_channel));
      }
    }
    result.stage_mae.push_back(accumulator.Result().mae);
    serving.cpu_ns += static_cast<double>(ProcessCpuNs() - update_start);
    serving.wall_s += stage_wall.ElapsedSeconds();
    after_stage();
  }
  result.losses = trainer.loss_history();
  result.quarantined = trainer.quarantined_batches();
  return result;
}

void RunProtocol(const Args& args, Outcome* outcome) {
  SetupTimer setup(ProcessCpuNs, [&args] {
    auto s = std::make_unique<ProtocolState>();
    s->pipeline = BuildPipeline(args.seed, 1);
    s->config = MakeModelConfig(*s->pipeline, args.seed);
    serve::ServiceConfig service_config;
    service_config.model = s->config;
    s->service = std::make_unique<serve::ForecastService>(
        service_config, s->pipeline->network(), s->pipeline->normalizer);
    return s;
  });
  const std::unique_ptr<ProtocolState> state = setup.Build();
  const serve::ForecastService& service = *state->service;
  const std::function<void()> time_setup = [&] {
    if (!args.trace) setup.Batch();
  };

  // Warm-up pass (fills the tensor pool); also the reference every measured
  // pass must reproduce bit for bit.
  ProtocolLog warmup_log;
  const PassResult reference = RunProtocolPass(*state, &warmup_log, time_setup);
  for (const double mae : reference.stage_mae) {
    if (!(mae > 0.0 && mae < state->pipeline->preset.free_flow_speed)) {
      outcome->Fail("implausible seen-so-far MAE " + std::to_string(mae));
    }
  }
  const int64_t steps_per_pass = static_cast<int64_t>(reference.losses.size());
  if (steps_per_pass != kBatchesPerEpoch * state->pipeline->stream->NumStages()) {
    outcome->Fail("a pass trained " + std::to_string(steps_per_pass) + " steps, expected " +
                  std::to_string(kBatchesPerEpoch) + " per stage");
  }

  ProtocolLog log;
  const int64_t compiles_before = service.plan_compiles();
  const int64_t swaps_before = service.hub().swap_count();
  const int64_t rejected_before = service.quarantined_snapshots();
  int64_t quarantined = 0;
  if (args.trace) StartSpans();
  const Stopwatch measured;
  do {
    const PassResult pass = RunProtocolPass(*state, &log, time_setup);
    quarantined += pass.quarantined;
    if (pass.losses != reference.losses || pass.stage_mae != reference.stage_mae) {
      outcome->Fail("a protocol pass did not reproduce the reference pass");
    }
  } while (measured.ElapsedSeconds() < args.seconds);
  if (args.trace) StopSpans();
  setup.Report(args, outcome);

  outcome->attempted = static_cast<int64_t>(log.update_ns.size()) + log.queries;
  outcome->failed = quarantined + log.failed_queries;
  if (quarantined > 0) outcome->Fail(std::to_string(quarantined) + " steps quarantined");
  if (service.quarantined_snapshots() > rejected_before) {
    outcome->Fail("the service quarantined a deployed stage snapshot");
  }
  if (log.failed_queries > 0) {
    outcome->Fail(std::to_string(log.failed_queries) + " evaluation queries failed");
  }
  if (log.mismatches > 0) {
    outcome->Fail(std::to_string(log.mismatches) +
                  " deployed answers differ from the trainer's forward");
  }

  if (!args.trace) {
    // Throughput counts whole stages, evaluation included.
    AddEndToEnd(log.update_ns, log.serving.cpu_ns, outcome);
    return;
  }
  log.serving.swaps = service.hub().swap_count() - swaps_before;
  log.serving.compiles = service.plan_compiles() - compiles_before;
  AddServingLayers(log.serving, outcome);
  AddSpanLayers(outcome);
}

// ---------------------------------------------------------------------------
// serve_train

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

struct ClientLog {
  std::vector<double> steady_ns;  // answers on a version this client already saw
  std::vector<double> swap_ns;    // first answer on a new version, or swapped in flight
  std::vector<double> wall_ns;    // wall latency of every answer
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t plan_answers = 0;
};

void RunClient(const serve::ForecastService& service, const Pipeline& p, int64_t client,
               const std::atomic<int>& phase, ClientLog* log) {
  size_t next = static_cast<size_t>(client);
  int64_t last_version = -1;
  int64_t recorded = 0;
  while (true) {
    const int current_phase = phase.load(std::memory_order_acquire);
    if (current_phase == kStop) break;
    const size_t query = next % p.queries.size();
    next += 5;  // coprime with the pool size: every client cycles all queries
    core::PredictRequest request;
    request.inputs = p.queries[query];
    core::PredictResponse response;
    const int64_t swaps_before = service.hub().swap_count();
    const Stopwatch wall;
    const int64_t cpu_start = ThreadCpuNs();
    const Status status = service.Predict(request, &response);
    const int64_t cpu_ns = ThreadCpuNs() - cpu_start;
    const int64_t wall_ns = wall.ElapsedNs();
    const bool swap_window =
        response.model_version != last_version || service.hub().swap_count() != swaps_before;
    last_version = response.model_version;
    if (current_phase != kMeasure) continue;
    ++log->attempted;
    if (!status.ok() || response.degraded || response.model_version < 1 ||
        !response.predictions.AllFinite()) {
      ++log->failed;
      continue;
    }
    (swap_window ? log->swap_ns : log->steady_ns).push_back(static_cast<double>(cpu_ns));
    log->wall_ns.push_back(static_cast<double>(wall_ns));
    if (response.executor == core::AnswerExecutor::kPlan) ++log->plan_answers;
    if (recorded++ % kSampleEvery == 0) {
      log->samples.push_back({response.model_version, query, std::move(response.predictions)});
    }
  }
}

struct TrainState {
  std::unique_ptr<Pipeline> pipeline;
  core::UrclConfig config;
  std::unique_ptr<serve::ForecastService> service;
  std::unique_ptr<core::UrclTrainer> trainer;
};

void RunServeTrain(const Args& args, Outcome* outcome) {
  SetupTimer setup(ThreadCpuNs, [&args] {
    auto s = std::make_unique<TrainState>();
    s->pipeline = BuildPipeline(args.seed, kTrainQueryBatch);
    s->config = MakeModelConfig(*s->pipeline, args.seed);
    serve::ServiceConfig service_config;
    service_config.model = s->config;
    s->service = std::make_unique<serve::ForecastService>(
        service_config, s->pipeline->network(), s->pipeline->normalizer);
    s->trainer = std::make_unique<core::UrclTrainer>(s->config, s->pipeline->network());
    return s;
  });
  const std::unique_ptr<TrainState> state = setup.Build();

  const Pipeline& p = *state->pipeline;
  const serve::ForecastService& service = *state->service;
  const core::UrclTrainer::SnapshotSink deploy = state->service->SnapshotSink();
  std::atomic<int> phase{kWarmup};
  // Every published container is kept so sampled answers can be checked
  // against the exact weights that served them.
  std::vector<checkpoint::Container> published;
  ServingWindow window;
  state->trainer->SetSnapshotSink(
      [&](const checkpoint::Container& container) {
        published.push_back(container);
        const int64_t start = ThreadCpuNs();
        deploy(container);
        if (phase.load(std::memory_order_acquire) == kMeasure) {
          window.admission_ns.push_back(static_cast<double>(ThreadCpuNs() - start));
        }
      },
      kTrainPublishEvery);

  std::thread trainer_thread([&] {
    for (int64_t k = 0; phase.load(std::memory_order_acquire) != kStop; ++k) {
      state->trainer->BeginStage(k);
      state->trainer->TrainStage(p.stream->Stage(k % p.stream->NumStages()).train, 1);
    }
  });
  const Stopwatch wait;
  while (service.hub().Current() == nullptr && wait.ElapsedSeconds() < 60.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t rejected_before = service.quarantined_snapshots();
  std::vector<ClientLog> logs(static_cast<size_t>(kClients));
  if (service.hub().Current() != nullptr) {
    std::vector<std::thread> clients;
    for (int64_t c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, std::cref(service), std::cref(p), c, std::cref(phase),
                           &logs[static_cast<size_t>(c)]);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    const int64_t compiles_before = service.plan_compiles();
    const int64_t swaps_before = service.hub().swap_count();
    if (args.trace) StartSpans();
    const Stopwatch measured;
    const int64_t cpu_start = ProcessCpuNs();
    phase.store(kMeasure, std::memory_order_release);
    // Set-up is timed only inside the window, so every batch runs under the
    // same load: beside five busy threads on a small machine a set-up costs
    // 1.5x the CPU it costs alone, and a mix of quiet and loaded batches makes
    // setup_s read whichever share happened to be larger.
    while (measured.ElapsedSeconds() < args.seconds) {
      const double left = args.seconds - measured.ElapsedSeconds();
      std::this_thread::sleep_for(std::chrono::duration<double>(std::min(left, kSetupEverySeconds)));
      if (!args.trace && measured.ElapsedSeconds() < args.seconds) setup.Batch();
    }
    phase.store(kStop, std::memory_order_release);
    window.cpu_ns = static_cast<double>(ProcessCpuNs() - cpu_start);
    window.wall_s = measured.ElapsedSeconds();
    for (std::thread& t : clients) t.join();
    if (args.trace) StopSpans();
    window.compiles = service.plan_compiles() - compiles_before;
    window.swaps = service.hub().swap_count() - swaps_before;
  } else {
    phase.store(kStop, std::memory_order_release);
    outcome->Fail("the trainer published no snapshot within 60 s");
  }
  trainer_thread.join();
  setup.Report(args, outcome);

  std::vector<Sample> samples;
  for (const ClientLog& log : logs) {
    outcome->attempted += log.attempted;
    outcome->failed += log.failed;
    window.plan_answers += log.plan_answers;
    window.steady_ns.insert(window.steady_ns.end(), log.steady_ns.begin(), log.steady_ns.end());
    window.swap_ns.insert(window.swap_ns.end(), log.swap_ns.begin(), log.swap_ns.end());
    window.wall_ns.insert(window.wall_ns.end(), log.wall_ns.begin(), log.wall_ns.end());
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
  }
  std::vector<double> all_ns = window.steady_ns;
  all_ns.insert(all_ns.end(), window.swap_ns.begin(), window.swap_ns.end());
  if (outcome->failed > 0) {
    outcome->Fail(std::to_string(outcome->failed) + " queries failed or degraded");
  }
  if (static_cast<int64_t>(all_ns.size()) < kMinAnswers) {
    outcome->Fail("only " + std::to_string(all_ns.size()) + " answered queries");
  }
  if (window.swaps < 2) outcome->Fail("fewer than two hot-swaps in the measured window");
  if (state->trainer->quarantined_batches() > 0) outcome->Fail("trainer quarantined a step");
  if (service.quarantined_snapshots() > rejected_before) {
    outcome->Fail("the service quarantined a published snapshot");
  }
  VerifySamples(samples, published, state->config, p, outcome);

  if (!args.trace) {
    AddEndToEnd(all_ns, std::accumulate(all_ns.begin(), all_ns.end(), 0.0), outcome);
    return;
  }
  AddServingLayers(window, outcome);
  AddSpanLayers(outcome);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: urcl_perfbench --workload protocol|serve_train --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // Spans go to per-thread rings created on first use; bound them before any
  // thread records (older spans of a busy client thread are overwritten).
  obs::SetTraceRingCapacity(kTraceRingEvents);
  Outcome outcome;
  if (args.workload == "protocol") {
    RunProtocol(args, &outcome);
  } else if (args.workload == "serve_train") {
    runtime::SetNumThreads(1);
    RunServeTrain(args, &outcome);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintOutcome(outcome);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace urcl

int main(int argc, char** argv) { return urcl::perfbench::Main(argc, argv); }
