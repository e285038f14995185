// Microbenchmarks of the kernels the attacks stress, in two modes:
//
//   ./bench_micro                 dense-vs-sparse timing harness; writes
//                                 BENCH_micro.json (override: --json=PATH)
//                                 so successive PRs accumulate a perf
//                                 trajectory.  Includes a large generated
//                                 graph (default 20k nodes, override via
//                                 GEATTACK_BENCH_MICRO_LARGE_N) where the
//                                 dense path is infeasible and only the CSR
//                                 path runs.
//   ./bench_micro --gbench [...]  the original google-benchmark suite
//                                 (dense matmul, GCN forward, adjacency
//                                 gradient, explainer step, hypergradient).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/attack/attack.h"
#include "src/core/geattack.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

GraphData& BenchData() {
  static GraphData data = [] {
    Rng rng(5);
    CitationGraphConfig cfg;
    cfg.num_nodes = 300;
    cfg.num_edges = 700;
    cfg.num_classes = 4;
    cfg.feature_dim = 256;
    return KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
  }();
  return data;
}

Gcn& BenchModel() {
  static Gcn model = [] {
    Rng rng(6);
    GraphData& data = BenchData();
    Split split = MakeSplit(data, 0.1, 0.1, &rng);
    TrainConfig cfg;
    cfg.epochs = 60;
    return TrainNewGcn(data, split, cfg, &rng);
  }();
  return model;
}

void BM_DenseMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = rng.NormalTensor(n, n, 0, 1);
  Tensor b = rng.NormalTensor(n, n, 0, 1);
  for (auto _ : state) benchmark::DoNotOptimize(a.MatMul(b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(128)->Arg(256)->Arg(512);

void BM_NormalizeAdjacency(benchmark::State& state) {
  Tensor adj = BenchData().graph.DenseAdjacency();
  for (auto _ : state) benchmark::DoNotOptimize(NormalizeAdjacency(adj));
}
BENCHMARK(BM_NormalizeAdjacency);

void BM_GcnForward(benchmark::State& state) {
  GraphData& data = BenchData();
  Gcn& model = BenchModel();
  Tensor norm = NormalizeAdjacency(data.graph.DenseAdjacency());
  for (auto _ : state)
    benchmark::DoNotOptimize(model.Logits(norm, data.features));
}
BENCHMARK(BM_GcnForward);

void BM_SparseGcnForward(benchmark::State& state) {
  GraphData& data = BenchData();
  Gcn& model = BenchModel();
  CsrMatrix norm = NormalizeAdjacencyCsr(data.graph);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.Logits(norm, data.features));
}
BENCHMARK(BM_SparseGcnForward);

void BM_AdjacencyGradient(benchmark::State& state) {
  GraphData& data = BenchData();
  Gcn& model = BenchModel();
  const GcnForwardContext ctx = MakeForwardContext(model, data.features);
  Tensor adj = data.graph.DenseAdjacency();
  for (auto _ : state) {
    Var a = Var::Leaf(adj, true);
    Var loss = TargetedAttackLoss(ctx, a, 0, 1);
    benchmark::DoNotOptimize(GradOne(loss, a).value());
  }
}
BENCHMARK(BM_AdjacencyGradient);

void BM_ExplainerInnerStep(benchmark::State& state) {
  GraphData& data = BenchData();
  Gcn& model = BenchModel();
  const GcnForwardContext ctx = MakeForwardContext(model, data.features);
  Rng rng(2);
  Tensor adj = data.graph.DenseAdjacency();
  Tensor mask0 = rng.NormalTensor(adj.rows(), adj.cols(), 0, 0.1);
  for (auto _ : state) {
    Var a = Constant(adj);
    Var m = Var::Leaf(mask0, true);
    Var loss = GnnExplainer::ExplainerLoss(ctx, a, m, 0, 1);
    benchmark::DoNotOptimize(GradOne(loss, m).value());
  }
}
BENCHMARK(BM_ExplainerInnerStep);

void BM_GeAttackHypergradient(benchmark::State& state) {
  // One full outer iteration's gradient: T differentiable inner steps plus
  // the backward through them.
  GraphData& data = BenchData();
  Gcn& model = BenchModel();
  const GcnForwardContext ctx = MakeForwardContext(model, data.features);
  Rng rng(3);
  Tensor adj = data.graph.DenseAdjacency();
  Tensor mask0 = rng.NormalTensor(adj.rows(), adj.cols(), 0, 0.1);
  const int64_t T = state.range(0);
  for (auto _ : state) {
    Var a = Var::Leaf(adj, true);
    Var m = Var::Leaf(mask0, true);
    for (int64_t t = 0; t < T; ++t) {
      Var loss = GnnExplainer::ExplainerLoss(ctx, a, m, 0, 1);
      Var p = GradOne(loss, m, {.create_graph = true});
      m = Sub(m, MulScalar(p, 0.3));
    }
    Var total = Add(TargetedAttackLoss(ctx, a, 0, 1),
                    MulScalar(Sum(SelectRow(m, 0)), 2.0));
    benchmark::DoNotOptimize(GradOne(total, a).value());
  }
}
BENCHMARK(BM_GeAttackHypergradient)->Arg(1)->Arg(3)->Arg(5);

// ---------------------------------------------------------------------------
// Dense-vs-sparse JSON harness.
// ---------------------------------------------------------------------------

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn`, in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowMs();
    fn();
    const double elapsed = NowMs() - t0;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

GraphData MakeScaledGraph(int64_t n, uint64_t seed) {
  Rng rng(seed);
  CitationGraphConfig cfg;
  cfg.num_nodes = n;
  cfg.num_edges = 3 * n;
  cfg.num_classes = 5;
  cfg.feature_dim = 128;
  return KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
}

struct ForwardRow {
  int64_t n = 0;
  int64_t edges = 0;
  double dense_ms = -1.0;  // < 0 means skipped (infeasible densely).
  double sparse_ms = 0.0;
  // Pre-normalized CSR forwards: double vs float32 value storage
  // (inference-only; the f32 path is opt-in everywhere).
  double prenorm_ms = 0.0;
  double prenorm_f32_ms = 0.0;
};

struct TrainRow {
  int64_t n = 0;
  int64_t epochs = 0;
  double dense_ms = -1.0;
  double sparse_ms = 0.0;
};

void WriteNullableMs(std::ostream& os, const char* key, double ms) {
  os << "\"" << key << "\":";
  if (ms < 0.0) {
    os << "null";
  } else {
    os << ms;
  }
}

/// "model name" of the first CPU in /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

int RunJsonHarness(const std::string& json_path) {
  const int64_t large_n = [] {
    const char* v = std::getenv("GEATTACK_BENCH_MICRO_LARGE_N");
    return (v != nullptr && std::atoll(v) > 0) ? std::atoll(v)
                                               : int64_t{20000};
  }();
  // Above this the n x n dense tensors (several live at once during
  // normalization) stop fitting in memory, which is the point of the CSR
  // path: the dense columns are reported as null.
  const int64_t dense_max_n = 5000;

  std::vector<ForwardRow> forward;
  std::vector<TrainRow> train;

  for (int64_t n : std::vector<int64_t>{1000, 2000, 5000, large_n}) {
    std::cerr << "[bench_micro] n=" << n << ": generating graph...\n";
    GraphData data = MakeScaledGraph(n, /*seed=*/9000 + static_cast<uint64_t>(n));
    Rng rng(17);
    Gcn model({data.feature_dim(), 16, data.num_classes}, &rng);
    const bool dense_ok = n <= dense_max_n;
    const int reps = n <= 2000 ? 3 : 1;

    ForwardRow f;
    f.n = data.num_nodes();
    f.edges = data.graph.num_edges();
    f.sparse_ms = TimeMs(
        [&] {
          benchmark::DoNotOptimize(
              model.Logits(NormalizeAdjacencyCsr(data.graph), data.features));
        },
        reps);
    if (dense_ok) {
      f.dense_ms = TimeMs(
          [&] {
            benchmark::DoNotOptimize(model.Logits(
                NormalizeAdjacency(data.graph.DenseAdjacency()),
                data.features));
          },
          reps);
    }
    {
      // Kernel-only comparison on a prebuilt normalized CSR: double values
      // vs float32 value storage (the eval-path option).  The f32
      // conversion happens once outside the timed region so both lambdas
      // time exactly the two SpMM passes.
      const CsrMatrix norm = NormalizeAdjacencyCsr(data.graph);
      const std::vector<float> f32 = ValuesToF32(norm.values());
      f.prenorm_ms = TimeMs(
          [&] {
            benchmark::DoNotOptimize(model.Logits(norm, data.features));
          },
          reps);
      f.prenorm_f32_ms = TimeMs(
          [&] {
            benchmark::DoNotOptimize(
                model.LogitsF32(*norm.pattern(), f32, data.features));
          },
          reps);
    }
    forward.push_back(f);
    std::cerr << "[bench_micro] n=" << f.n << " forward: sparse "
              << f.sparse_ms << " ms (prenorm " << f.prenorm_ms << " ms, f32 "
              << f.prenorm_f32_ms << " ms), dense "
              << (dense_ok ? std::to_string(f.dense_ms) + " ms"
                           : std::string("skipped"))
              << "\n";

    // Train timings on the small and the large scenario only.
    if (n == 1000 || n == large_n) {
      Split split = MakeSplit(data, 0.1, 0.1, &rng);
      TrainConfig cfg;
      cfg.epochs = n == large_n ? 3 : 5;
      cfg.patience = 0;

      TrainRow t;
      t.n = data.num_nodes();
      t.epochs = cfg.epochs;
      t.sparse_ms = TimeMs(
          [&] {
            Rng train_rng(23);
            cfg.use_sparse = true;
            benchmark::DoNotOptimize(
                TrainNewGcn(data, split, cfg, &train_rng));
          },
          1);
      if (dense_ok) {
        t.dense_ms = TimeMs(
            [&] {
              Rng train_rng(23);
              cfg.use_sparse = false;
              benchmark::DoNotOptimize(
                  TrainNewGcn(data, split, cfg, &train_rng));
            },
            1);
      }
      train.push_back(t);
      std::cerr << "[bench_micro] n=" << t.n << " train x" << t.epochs
                << ": sparse " << t.sparse_ms << " ms, dense "
                << (dense_ok ? std::to_string(t.dense_ms) + " ms"
                             : std::string("skipped"))
                << "\n";
    }
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot open " << json_path << " for writing\n";
    return 1;
  }
  // Rows are best-of-3 (n <= 2000) or single runs; kernels are
  // single-threaded, so hardware_concurrency only describes the host.
  out << "{\n  \"bench\": \"micro\",\n  \"host\": {"
      << "\"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << CpuModel() << "\", \"compiler\": \""
      << GEATTACK_COMPILER << "\", \"build_type\": \""
      << GEATTACK_BUILD_TYPE << "\"},\n  \"forward\": [\n";
  for (size_t i = 0; i < forward.size(); ++i) {
    const ForwardRow& f = forward[i];
    out << "    {\"n\":" << f.n << ",\"edges\":" << f.edges << ",";
    WriteNullableMs(out, "dense_ms", f.dense_ms);
    out << ",\"sparse_ms\":" << f.sparse_ms
        << ",\"prenorm_ms\":" << f.prenorm_ms
        << ",\"prenorm_f32_ms\":" << f.prenorm_f32_ms << ",";
    WriteNullableMs(out, "speedup",
                    f.dense_ms < 0.0 || f.sparse_ms <= 0.0
                        ? -1.0
                        : f.dense_ms / f.sparse_ms);
    out << "}" << (i + 1 < forward.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"train\": [\n";
  for (size_t i = 0; i < train.size(); ++i) {
    const TrainRow& t = train[i];
    out << "    {\"n\":" << t.n << ",\"epochs\":" << t.epochs << ",";
    WriteNullableMs(out, "dense_ms", t.dense_ms);
    out << ",\"sparse_ms\":" << t.sparse_ms << ",";
    WriteNullableMs(out, "speedup",
                    t.dense_ms < 0.0 || t.sparse_ms <= 0.0
                        ? -1.0
                        : t.dense_ms / t.sparse_ms);
    out << "}" << (i + 1 < train.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cerr << "[bench_micro] wrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace geattack

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  bool gbench = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gbench") {
      gbench = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!gbench) return geattack::RunJsonHarness(json_path);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
