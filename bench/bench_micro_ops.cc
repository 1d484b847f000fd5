// Micro-benchmarks (google-benchmark) for the substrate operations that
// dominate URCL's runtime: tensor kernels, the GCN/TCN layers, a full
// encoder forward/backward, augmentations, and RMIR components, plus
// thread-count sweeps over the parallel kernels (the *Threads benchmarks,
// Arg = thread count) and over the pool's per-region hand-off
// (BM_ParallelForHandoff). Writes BENCH_micro_ops.json unless
// --benchmark_out is given.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "augment/augmentation.h"
#include "runtime/parallel.h"
#include "autograd/ops.h"
#include "core/stencoder.h"
#include "core/stmixup.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "exec/plan.h"
#include "graph/generator.h"
#include "graph/transition.h"
#include "nn/gcn.h"
#include "nn/optimizer.h"
#include "nn/tcn.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "replay/replay_buffer.h"
#include "replay/samplers.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

namespace ag = ::urcl::autograd;

void BM_TensorAddBroadcast(benchmark::State& state) {
  Rng rng(1);
  const int64_t n = state.range(0);
  Tensor a = Tensor::RandomNormal(Shape{n, n}, rng);
  Tensor b = Tensor::RandomNormal(Shape{n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::Add(a, b));
}
BENCHMARK(BM_TensorAddBroadcast)->Arg(32)->Arg(128);

void BM_MatMul(benchmark::State& state) {
  Rng rng(2);
  const int64_t n = state.range(0);
  Tensor a = Tensor::RandomNormal(Shape{n, n}, rng);
  Tensor b = Tensor::RandomNormal(Shape{n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::MatMul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(3);
  Tensor a = Tensor::RandomNormal(Shape{8, 16, 12, 24}, rng);
  Tensor b = Tensor::RandomNormal(Shape{24, 24}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::MatMul(a, b));
}
BENCHMARK(BM_BatchedMatMul);

void BM_Softmax(benchmark::State& state) {
  Rng rng(4);
  Tensor a = Tensor::RandomNormal(Shape{64, 64}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::Softmax(a, -1));
}
BENCHMARK(BM_Softmax);

void BM_GatedTcnForward(benchmark::State& state) {
  Rng rng(5);
  nn::GatedTcn tcn(16, 16, 2, 2, rng);
  ag::Variable x(Tensor::RandomNormal(Shape{8, 16, 24, 12}, rng), false);
  for (auto _ : state) benchmark::DoNotOptimize(tcn.Forward(x));
}
BENCHMARK(BM_GatedTcnForward);

void BM_DiffusionGcnForward(benchmark::State& state) {
  Rng rng(6);
  const int64_t nodes = state.range(0);
  Rng graph_rng(7);
  graph::SensorNetwork g = graph::RandomGeometricGraph(nodes, 0.3f, graph_rng);
  const std::vector<Tensor> supports = graph::BuildSupports(g);
  nn::DiffusionGcn gcn(16, 16, static_cast<int64_t>(supports.size()), false, 2, rng);
  ag::Variable x(Tensor::RandomNormal(Shape{8, 16, nodes, 12}, rng), false);
  for (auto _ : state) benchmark::DoNotOptimize(gcn.Forward(x, supports, ag::Variable()));
}
BENCHMARK(BM_DiffusionGcnForward)->Arg(12)->Arg(32);

void BM_EncoderForwardBackward(benchmark::State& state) {
  Rng rng(8);
  Rng graph_rng(9);
  graph::SensorNetwork g = graph::RandomGeometricGraph(12, 0.35f, graph_rng);
  core::BackboneConfig config;
  config.num_nodes = 12;
  config.in_channels = 2;
  config.input_steps = 12;
  config.hidden_channels = 8;
  config.latent_channels = 16;
  config.num_layers = 5;
  config.adaptive_embedding_dim = 6;
  core::GraphWaveNetEncoder encoder(config, rng);
  const Tensor adjacency = g.AdjacencyMatrix();
  ag::Variable x(Tensor::RandomNormal(Shape{8, 12, 12, 2}, rng), false);
  for (auto _ : state) {
    ag::Variable loss = ag::Mean(ag::Square(encoder.Encode(x, adjacency)));
    for (const auto& p : encoder.Parameters()) p.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(loss.value().Item());
  }
}
BENCHMARK(BM_EncoderForwardBackward);

void BM_Augmentation(benchmark::State& state) {
  Rng rng(10);
  Rng graph_rng(11);
  graph::SensorNetwork g = graph::RandomGeometricGraph(24, 0.3f, graph_rng);
  Tensor obs = Tensor::RandomUniform(Shape{8, 12, 24, 2}, rng);
  const auto augmentations = augment::MakeDefaultAugmentations();
  const auto& augmentation = augmentations[static_cast<size_t>(state.range(0))];
  state.SetLabel(augmentation->name());
  for (auto _ : state) benchmark::DoNotOptimize(augmentation->Apply(obs, g, rng));
}
BENCHMARK(BM_Augmentation)->DenseRange(0, 4);

void BM_StMixup(benchmark::State& state) {
  Rng rng(12);
  Tensor cx = Tensor::RandomUniform(Shape{8, 12, 24, 2}, rng);
  Tensor cy = Tensor::RandomUniform(Shape{8, 1, 24, 1}, rng);
  Tensor rx = Tensor::RandomUniform(Shape{4, 12, 24, 2}, rng);
  Tensor ry = Tensor::RandomUniform(Shape{4, 1, 24, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(core::StMixup(cx, cy, rx, ry, 0.5f, rng));
}
BENCHMARK(BM_StMixup);

void BM_ReplayBufferAdd(benchmark::State& state) {
  Rng rng(13);
  replay::ReplayBuffer buffer(256);
  replay::ReplayItem item;
  item.inputs = Tensor::RandomNormal(Shape{12, 24, 2}, rng);
  item.targets = Tensor::RandomNormal(Shape{1, 24, 1}, rng);
  for (auto _ : state) {
    replay::ReplayItem copy = item;
    buffer.Add(std::move(copy));
  }
}
BENCHMARK(BM_ReplayBufferAdd);

void BM_PearsonCorrelation(benchmark::State& state) {
  Rng rng(14);
  Tensor a = Tensor::RandomNormal(Shape{12, 24, 2}, rng);
  Tensor b = Tensor::RandomNormal(Shape{12, 24, 2}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay::RmirSampler::PearsonCorrelation(a, b));
  }
}
BENCHMARK(BM_PearsonCorrelation);

void BM_RmirSelect(benchmark::State& state) {
  Rng rng(15);
  replay::ReplayBuffer buffer(256);
  for (int i = 0; i < 256; ++i) {
    replay::ReplayItem item;
    item.inputs = Tensor::RandomNormal(Shape{12, 24, 2}, rng);
    item.targets = Tensor::RandomNormal(Shape{1, 24, 1}, rng);
    buffer.Add(std::move(item));
  }
  replay::RmirSampler sampler(/*candidate_pool=*/32);
  std::vector<float> interference(256);
  for (auto& v : interference) v = rng.Uniform();
  Tensor current = Tensor::RandomNormal(Shape{8, 12, 24, 2}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Select(buffer, current, interference, 4));
  }
}
BENCHMARK(BM_RmirSelect);

// --- Thread-count sweeps over the parallel kernels --------------------------
// Arg = thread count. UseRealTime so wall-clock (not per-thread CPU) speedup
// is what the JSON series reports. Results are bitwise identical across the
// sweep; only the timing changes.

// Sets the thread count for the benchmark's duration, then restores it.
class ThreadSweep {
 public:
  explicit ThreadSweep(int threads) : saved_(runtime::GetNumThreads()) {
    runtime::SetNumThreads(threads);
  }
  ~ThreadSweep() { runtime::SetNumThreads(saved_); }

 private:
  int saved_;
};

void BM_BatchedMatMulThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(20);
  Tensor a = Tensor::RandomNormal(Shape{8, 96, 96}, rng);
  Tensor b = Tensor::RandomNormal(Shape{8, 96, 96}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::MatMul(a, b));
  state.SetItemsProcessed(state.iterations() * 8 * 96 * 96 * 96);
}
BENCHMARK(BM_BatchedMatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_TemporalConvThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(21);
  ag::Variable in(Tensor::RandomNormal(Shape{8, 16, 64, 24}, rng), false);
  ag::Variable w(Tensor::RandomNormal(Shape{16, 16, 1, 2}, rng), false);
  for (auto _ : state) benchmark::DoNotOptimize(ag::TemporalConv2d(in, w, 2));
}
BENCHMARK(BM_TemporalConvThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_GraphMatMulThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(22);
  Rng graph_rng(23);
  graph::SensorNetwork g = graph::RandomGeometricGraph(64, 0.3f, graph_rng);
  const Tensor adjacency = g.AdjacencyMatrix();
  ag::Variable x(Tensor::RandomNormal(Shape{8, 16, 64, 12}, rng), false);
  for (auto _ : state) benchmark::DoNotOptimize(nn::GraphMatMul(adjacency, x));
}
BENCHMARK(BM_GraphMatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SumAxisThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(24);
  Tensor a = Tensor::RandomNormal(Shape{64, 128, 96}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::Sum(a, {1}));
}
BENCHMARK(BM_SumAxisThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_AddBroadcastThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(25);
  Tensor a = Tensor::RandomNormal(Shape{64, 1, 96, 24}, rng);
  Tensor b = Tensor::RandomNormal(Shape{1, 16, 96, 24}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::Add(a, b));
}
BENCHMARK(BM_AddBroadcastThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The diffusion GCN's adaptive-support hop at the benchmark's encoder scale
// (batch 8, 8 channels, 64 nodes, 11 steps): forward plus backward with a
// grad-requiring adjacency and input, as in a training step.
void BM_GraphMatMulBackwardThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(26);
  const Tensor adjacency = Tensor::RandomNormal(Shape{64, 64}, rng);
  const Tensor x = Tensor::RandomNormal(Shape{8, 8, 64, 11}, rng);
  const Tensor seed = Tensor::RandomNormal(x.shape(), rng);
  for (auto _ : state) {
    ag::Variable a(adjacency, /*requires_grad=*/true);
    ag::Variable in(x, /*requires_grad=*/true);
    ag::Variable out = nn::GraphMatMul(a, in);
    out.BackwardWithSeed(seed);
    benchmark::DoNotOptimize(a.grad());
    benchmark::DoNotOptimize(in.grad());
  }
}
BENCHMARK(BM_GraphMatMulBackwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// A channel bias broadcast over an encoder activation, [8, 8, 64, 11] + [1, 8, 1, 1].
void BM_BiasAddThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(27);
  const Tensor x = Tensor::RandomNormal(Shape{8, 8, 64, 11}, rng);
  const Tensor bias = Tensor::RandomNormal(Shape{1, 8, 1, 1}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::Add(x, bias));
}
BENCHMARK(BM_BiasAddThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// That bias's gradient: the [8, 8, 64, 11] upstream gradient summed to [1, 8, 1, 1].
void BM_BiasGradThreads(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(0)));
  Rng rng(28);
  const Tensor g = Tensor::RandomNormal(Shape{8, 8, 64, 11}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::ReduceTo(g, Shape{1, 8, 1, 1}));
}
BENCHMARK(BM_BiasGradThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The pool's hand-off alone: an empty-body region of range(0) one-index
// chunks at range(1) threads. A region of n chunks runs on
// runtime::RegionLanes(n, threads) lanes, so this times the wake-up,
// claims and join a region pays before any kernel work. cpu_time is the
// whole process's, workers included.
void BM_ParallelForHandoff(benchmark::State& state) {
  ThreadSweep sweep(static_cast<int>(state.range(1)));
  const int64_t chunks = state.range(0);
  for (auto _ : state) {
    runtime::ParallelFor(0, chunks, 1,
                         [](int64_t begin, int64_t) { benchmark::DoNotOptimize(begin); });
  }
}
BENCHMARK(BM_ParallelForHandoff)
    ->ArgsProduct({{2, 4, 16, 64}, {1, 2, 4}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_AdamStep(benchmark::State& state) {
  // Adam over a realistic mix of parameter sizes (odd lengths exercise the
  // SIMD tail path). Gradients are re-filled each iteration so Step() always
  // has work; the moments evolve but shapes never change.
  Rng rng(30);
  const std::vector<Shape> shapes = {Shape{16, 257}, Shape{64, 64}, Shape{129},
                                     Shape{8, 8, 33}, Shape{1000}, Shape{7}};
  std::vector<ag::Variable> params;
  std::vector<Tensor> grads;
  int64_t total = 0;
  for (const Shape& s : shapes) {
    params.emplace_back(Tensor::RandomNormal(s, rng), true);
    grads.push_back(Tensor::RandomNormal(s, rng));
    total += s.NumElements();
  }
  nn::AdamConfig config;
  config.weight_decay = 0.02f;
  nn::Adam adam(params, config);
  for (auto _ : state) {
    adam.ZeroGrad();
    for (size_t i = 0; i < params.size(); ++i) params[i].AccumulateGrad(grads[i]);
    adam.Step();
    benchmark::DoNotOptimize(params[0].value().data());
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_AdamStep);

void RunTrainStepBenchmark(benchmark::State& state, bool observed,
                           exec::ExecutorMode executor = exec::ExecutorMode::kTape) {
  // One URCL training epoch (1 batch) on a tiny synthetic pipeline. Reports
  // pool hit/miss counters per step: at steady state (after the warmup epoch)
  // misses should be ~0, i.e. the training loop makes no allocator calls.
  // The `observed` variant runs the identical loop with metrics, tracing and
  // the autograd profiler all enabled; comparing the two rows in
  // BENCH_micro_ops.json measures the full-observability overhead (budget:
  // <2% on real_time).
  data::TrafficConfig traffic;
  traffic.num_nodes = 6;
  traffic.num_days = 2;
  traffic.steps_per_day = 60;
  traffic.channels = 2;
  data::SyntheticTraffic generator(traffic);
  Tensor series = generator.GenerateSeries();
  data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(normalizer.Transform(series), data::WindowConfig{12, 1, 0});

  core::UrclConfig config;
  config.encoder.num_nodes = traffic.num_nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = 12;
  config.encoder.hidden_channels = 4;
  config.encoder.latent_channels = 8;
  config.encoder.num_layers = 3;
  config.encoder.adaptive_embedding_dim = 3;
  config.batch_size = 4;
  config.max_batches_per_epoch = 1;
  config.replay_sample_count = 2;
  config.rmir_scan_size = 6;
  config.rmir_candidate_pool = 4;
  config.buffer_capacity = 32;
  config.proj_hidden = 8;
  config.decoder_hidden = 16;
  config.enable_augmentation = false;  // fixed shapes batch to batch
  config.executor = executor;          // pinned: BM_TrainStep is the tape baseline

  core::UrclTrainer trainer(config, generator.network());
  const obs::ObsConfig saved_obs = obs::Current();
  if (observed) {
    obs::ObsConfig all;
    all.metrics = all.trace = all.profiler = true;
    obs::Configure(all);
  }
  trainer.TrainStage(dataset, 2);  // warmup fills the pool's free lists
  pool::BufferPool& pool = pool::BufferPool::Get();
  pool.ResetCounters();
  for (auto _ : state) trainer.TrainStage(dataset, 1);
  const pool::PoolStats stats = pool.Stats();
  const double steps = static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["pool_hits_per_step"] =
      benchmark::Counter(static_cast<double>(stats.hits) / steps);
  state.counters["pool_misses_per_step"] =
      benchmark::Counter(static_cast<double>(stats.misses) / steps);
  if (observed) {
    state.counters["trace_events_buffered"] =
        benchmark::Counter(static_cast<double>(obs::TraceEventCount()));
    obs::Configure(saved_obs);
    obs::ClearTrace();
    obs::ResetProfiler();
  }
}

// Both variants run 7 repetitions and report aggregates so the recorded
// overhead ratio (Observed median / baseline median) is robust to scheduler
// noise; record with --benchmark_enable_random_interleaving=true so slow
// drift cannot bias one variant's block (see bench/README.md).
void BM_TrainStep(benchmark::State& state) { RunTrainStepBenchmark(state, false); }
BENCHMARK(BM_TrainStep)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(7)
    ->ReportAggregatesOnly(true);

void BM_TrainStepObserved(benchmark::State& state) { RunTrainStepBenchmark(state, true); }
BENCHMARK(BM_TrainStepObserved)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(7)
    ->ReportAggregatesOnly(true);

// Identical loop on the compiled executor (DESIGN.md §12): the train, RMIR
// virtual-step and per-item graphs replay as arena programs. Compare the
// median against BM_TrainStep for the tape-vs-plan speedup; the pool
// counters should report ~0 acquisitions per step (arena-only steady state).
void BM_PlanStep(benchmark::State& state) {
  RunTrainStepBenchmark(state, false, exec::ExecutorMode::kPlan);
}
BENCHMARK(BM_PlanStep)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(7)
    ->ReportAggregatesOnly(true);

void BM_BuildSupportsDense(benchmark::State& state) {
  Rng graph_rng(16);
  graph::SensorNetwork g = graph::RandomGeometricGraph(32, 0.3f, graph_rng);
  const Tensor adjacency = g.AdjacencyMatrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BuildSupportsDense(adjacency, false));
  }
}
BENCHMARK(BM_BuildSupportsDense);

}  // namespace
}  // namespace urcl

// Custom main: same as BENCHMARK_MAIN() but defaults the JSON series output
// to BENCH_micro_ops.json so the threads sweep is recorded without extra
// flags. Any explicit --benchmark_out takes precedence. Stamps the build
// configuration into the JSON context (the library's own `library_build_type`
// key describes the distro's libbenchmark, not this code — see bench/README.md).
int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "********************************************************************\n"
               "* WARNING: bench_micro_ops built WITHOUT NDEBUG (URCL_CHECK live). *\n"
               "* Timings are NOT comparable to the recorded Release baselines.    *\n"
               "********************************************************************\n");
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("urcl_build_type", "optimized");
#else
  benchmark::AddCustomContext("urcl_build_type", "debug");
#endif
  benchmark::AddCustomContext("urcl_simd_backend", urcl::simd::kBackendName);
  benchmark::AddCustomContext("urcl_executor",
                              urcl::exec::ExecutorModeName(urcl::core::UrclConfig{}.executor));
  benchmark::AddCustomContext(
      "urcl_obs_overhead",
      "compare BM_TrainStep (observability off) with BM_TrainStepObserved "
      "(metrics+trace+profiler on); budget <2% on real_time");
  benchmark::AddCustomContext(
      "urcl_check_overhead",
      "version counters + gate branches stay live when URCL_CHECK is off; "
      "budget <2% on BM_TrainStep real_time vs pre-check main (interleaved "
      "medians; counters ride the pool's owner block, bump is relaxed "
      "load+store)");
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_ops.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
