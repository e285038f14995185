#include <algorithm>
#include <fstream>
#include <string>

#include "src/graph/datasets.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

double MsSince(double start_us) { return (NowUs() - start_us) / 1000.0; }

namespace {

/// Times one set-up phase and records it as a span of the same name.
template <class F>
void Phase(World* world, const std::string& name, F body) {
  const double start = NowUs();
  {
    ScopedSpan span(name);
    body();
  }
  world->phase_ms[name] += MsSince(start);
}

}  // namespace

std::unique_ptr<World> BuildWorld(const WorldSpec& spec) {
  using namespace geattack;
  auto world = std::make_unique<World>();
  World* w = world.get();
  const double start = NowUs();
  ScopedSpan setup_span("setup");
  Rng rng(spec.seed);

  Phase(w, "graph.build", [&] {
    w->data = spec.cora ? MakeDataset(DatasetId::kCora, 1.0, &rng)
                        : KeepLargestConnectedComponent(
                              GenerateCitationGraph(spec.generator, &rng));
  });
  w->split = MakeSplit(w->data, 0.1, 0.1, &rng);
  Phase(w, "nn.train", [&] {
    w->model = std::make_unique<Gcn>(
        TrainNewGcn(w->data, w->split, spec.train, &rng, &w->train));
  });
  Phase(w, "nn.forward", [&] {
    w->clean_logits = w->model->LogitsFromGraph(w->data.graph,
                                                w->data.features);
  });
  Phase(w, "eval.context",
        [&] { w->ctx = MakeSparseAttackContext(w->data, *w->model); });
  Phase(w, "eval.prepare", [&] {
    w->selected = SelectTargetNodes(w->data, w->clean_logits, w->split.test,
                                    spec.selection, &rng);
    w->targets = PrepareTargets(w->ctx, w->selected, &rng, /*sparse=*/true);
  });
  if (spec.budget_cap > 0)
    for (PreparedTarget& t : w->targets)
      t.budget = std::min(t.budget, spec.budget_cap);

  if (spec.train_pg) {
    Phase(w, "explain.pg.train", [&] {
      PgExplainerConfig pg_config;
      pg_config.seed = spec.seed;
      w->pg = std::make_unique<PgExplainer>(w->model.get(), &w->data.features,
                                            pg_config);
      const size_t count = std::min<size_t>(16, w->split.train.size());
      const std::vector<int64_t> instances(w->split.train.begin(),
                                           w->split.train.begin() +
                                               static_cast<ptrdiff_t>(count));
      w->pg->Train(w->data.graph, instances, PredictLabels(w->clean_logits));
    });
  }
  w->total_s = MsSince(start) / 1000.0;
  return world;
}

std::unique_ptr<World> SetUp(Run* run, const WorldSpec& spec) {
  std::unique_ptr<World> world = BuildWorld(spec);
  JsonWriter& json = *run->json;
  json.Key("setup");
  json.BeginObject();
  json.Field("total_s", world->total_s);
  for (const auto& [name, ms] : world->phase_ms) json.Field(name + "_ms", ms);
  json.EndObject();
  return world;
}

void WriteWorld(Run* run, const World& world) {
  JsonWriter& json = *run->json;
  json.Key("world");
  json.BeginObject();
  json.Field("nodes", world.data.num_nodes());
  json.Field("edges", world.data.graph.num_edges());
  json.Field("features", world.data.feature_dim());
  json.Field("classes", world.data.num_classes);
  json.Field("train_epochs", world.train.epochs_run);
  json.Field("test_accuracy", world.train.test_accuracy);
  json.Field("selected", static_cast<int64_t>(world.selected.size()));
  json.Field("prepared", static_cast<int64_t>(world.targets.size()));
  int64_t budget = 0;
  for (const auto& t : world.targets) budget += t.budget;
  json.Field("budget_sum", budget);
  json.EndObject();
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

}  // namespace perfbench
