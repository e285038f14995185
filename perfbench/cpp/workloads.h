// The benchmark's three workloads and the state they share.
//
// Each workload runs in its own process (perfbench/run.py launches one
// `geabench` per workload), builds its inputs from the seed, measures for
// the requested number of seconds, checks its outputs, and writes a raw
// record — timings, outcomes, checks and (traced run) spans — that run.py
// turns into metrics.  The library sees only the generated inputs.

#ifndef PERFBENCH_CPP_WORKLOADS_H_
#define PERFBENCH_CPP_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json.h"
#include "src/eval/pipeline.h"
#include "src/explain/pg_explainer.h"
#include "src/graph/generators.h"
#include "src/nn/gcn.h"
#include "src/nn/trainer.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (the service's WAL lives here).
  std::string tmp_dir;
  /// Worker count for the driver and the service: the host's core count.
  int nproc = 1;
};

/// One workload run: options, the raw-record writer (positioned inside the
/// top-level object) and the correctness checks collected so far.
struct Run {
  RunOptions options;
  JsonWriter* json = nullptr;
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;

  /// Records a correctness check; any failed check fails the run.
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
};

/// Milliseconds since `start_us` (a NowUs() reading).
double MsSince(double start_us);

/// How a workload builds its world.  A world is fixed per workload (its
/// seed is a workload constant, like a dataset): the run's --seed drives the
/// random streams of the load instead, so every seed measures the same
/// amount of work and the spread across seeds is measurement noise.
struct WorldSpec {
  uint64_t seed = 1;
  /// Cora preset at paper scale (MakeDataset) when true, else the
  /// generator config below reduced to its largest connected component.
  bool cora = true;
  geattack::CitationGraphConfig generator;
  geattack::TrainConfig train;
  geattack::TargetSelectionConfig selection;
  /// Δ cap applied after PrepareTargets; 0 keeps the clean degree.
  int64_t budget_cap = 0;
  /// Train a PGExplainer on the clean world.
  bool train_pg = false;
};

/// A built world.  Not movable: ctx and the explainer point into it.
struct World {
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  geattack::GraphData data;
  geattack::Split split;
  std::unique_ptr<geattack::Gcn> model;
  geattack::TrainResult train;
  geattack::Tensor clean_logits;
  geattack::AttackContext ctx;
  std::vector<int64_t> selected;
  std::vector<geattack::PreparedTarget> targets;
  std::unique_ptr<geattack::PgExplainer> pg;
  /// Wall time of each set-up phase, by span name.
  std::map<std::string, double> phase_ms;
  double total_s = 0.0;
};

/// Builds the world for `spec`: graph, GCN, context, target selection and
/// preparation, and optionally PGExplainer.  Each phase is timed (and
/// traced as a span named after its layer).
std::unique_ptr<World> BuildWorld(const WorldSpec& spec);

/// Builds the world once per run and writes its phase timings under
/// "setup".  One set-up per run: repeating it inside a run bought no
/// steadiness (two set-ups in one process agreed within 5% while runs
/// differed by up to 25% on a busy host) and cost a quarter of the run.
std::unique_ptr<World> SetUp(Run* run, const WorldSpec& spec);

/// Writes the world's size and target counts under "world".
void WriteWorld(Run* run, const World& world);

/// Peak resident set size of this process (VmHWM) in KiB; -1 if unknown.
int64_t PeakRssKb();

int RunPaperCampaign(Run* run);
int RunSparse20k(Run* run);
int RunServiceLive(Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOADS_H_
