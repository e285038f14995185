// Crash-recovery child driven by tools/crash_harness.py (the crash_harness
// ctest): a deterministic submit → drain → churn script over a WAL-journaled
// AttackService.
//
//   ./crash_child --journal=PATH --out=PATH [--seed=N]
//
// The harness SIGKILLs this process at random points and relaunches it on the
// same journal; every relaunch recovers from the journal, skips the
// already-durable prefix of the script, and runs only the remainder — so the
// published result file must be byte-identical to an uninterrupted run no
// matter where the kill landed.  Output is published atomically (tmp +
// rename): the harness never reads a torn file.
//
// Links only the geattack library, so the kill -9 gate is built wherever the
// tests are.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/fga.h"
#include "src/eval/pipeline.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"
#include "src/service/attack_service.h"
#include "tests/churn_plan.h"

namespace geattack {
namespace {

struct World {
  GraphData data;
  Gcn model;
  std::vector<PreparedTarget> targets;
};

/// A 160-node citation graph with a trained GCN and up to `num_targets`
/// prepared targets: correctly classified test nodes of degree >= 2 that
/// the untargeted FGA probe can flip, budgets capped at `budget_cap`.
World MakeWorld(int64_t n, int64_t feature_dim, int64_t budget_cap,
                int64_t num_targets) {
  Rng rng(9000 + static_cast<uint64_t>(n));
  CitationGraphConfig cfg;
  cfg.num_nodes = n;
  cfg.num_edges = 3 * n;
  cfg.num_classes = 5;
  cfg.feature_dim = feature_dim;
  World w{KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng)),
          Gcn({feature_dim, 16, 5}, &rng),
          {}};
  Split split = MakeSplit(w.data, 0.1, 0.1, &rng);
  TrainConfig tc;
  tc.epochs = 20;
  tc.patience = 0;
  w.model = TrainNewGcn(w.data, split, tc, &rng);
  const AttackContext ctx = MakeSparseAttackContext(w.data, w.model);

  const Tensor logits = w.model.LogitsFromGraph(w.data.graph,
                                                w.data.features);
  for (int64_t node : split.test) {
    if (static_cast<int64_t>(w.targets.size()) >= num_targets) break;
    if (w.data.graph.Degree(node) < 2) continue;
    if (logits.ArgMaxRow(node) != w.data.labels[ZU(node)]) continue;
    auto prepared = PrepareTargets(ctx, {node}, &rng, /*sparse=*/true);
    if (prepared.empty()) continue;
    prepared[0].budget = std::min(prepared[0].budget, budget_cap);
    w.targets.push_back(prepared[0]);
  }
  return w;
}

int RunCrashChild(const std::string& journal_path,
                  const std::string& out_path, uint64_t seed) {
  World w = MakeWorld(160, /*feature_dim=*/32, /*budget_cap=*/2,
                      /*num_targets=*/6);
  GEA_CHECK(w.targets.size() >= 4);
  const size_t num_targets = w.targets.size();

  AttackServiceConfig cfg;
  cfg.base_seed = seed;
  cfg.num_threads = 1;
  cfg.wave_size = 2;
  cfg.queue_capacity = 64;
  cfg.max_attempts = 1;  // The byte-identity scope: no retries, no
                         // deadlines, no shedding (no clock bits).
  cfg.journal_path = journal_path;
  AttackService service(cfg);
  GEA_CHECK(service
                .RegisterGraph("g", w.data, w.model,
                               std::make_shared<const FgaAttack>(
                                   /*targeted=*/true, /*use_sparse=*/true),
                               /*dense_context=*/false)
                .ok());
  const RecoveryReport rep = service.Recover();
  GEA_CHECK(rep.status.ok());
  // Every admission and every churn batch is fsync'd before its call
  // returns, so the durable prefix of the script is exactly what the WAL
  // says happened: skip it and run the rest.
  const size_t done_submits =
      rep.completed_tickets.size() + rep.pending_tickets.size();
  const int64_t done_churns = rep.churn_batches;

  const std::vector<ChurnBatch> plan = PlanChurn(w.data.graph, 2, 3);

  size_t next_submit = 0;
  int64_t next_churn = 0;
  const auto submit_step = [&] {
    const size_t i = next_submit++;
    if (i < done_submits) return;  // Durably admitted before the crash.
    const PreparedTarget& t = w.targets[i % w.targets.size()];
    AttackServiceRequest request;
    request.graph = "g";
    request.target_node = t.node;
    request.target_label = t.target_label;
    request.budget = t.budget;
    const Admission admission = service.Submit(request);
    GEA_CHECK(admission.status.ok());
    GEA_CHECK(admission.ticket == static_cast<int64_t>(i));
  };
  const auto churn_step = [&] {
    const int64_t j = next_churn++;
    if (j < done_churns) return;  // Epoch already rebuilt from the WAL.
    const ChurnResult cr = service.UpdateGraph("g", plan[ZU(j)]);
    GEA_CHECK(cr.status.ok());
  };

  // The script: half the targets on epoch 0, churn, the rest on epoch 1,
  // churn again so recovery must also restore a trailing epoch nobody
  // computed on.
  const size_t half = num_targets / 2;
  for (size_t i = 0; i < half; ++i) submit_step();
  service.Drain();
  churn_step();
  for (size_t i = half; i < num_targets; ++i) submit_step();
  service.Drain();
  churn_step();
  service.Drain();

  const std::string tmp_path = out_path + ".crash_tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    GEA_CHECK(out.good());
    for (size_t i = 0; i < num_targets; ++i) {
      const ServiceResult r = service.Take(static_cast<int64_t>(i));
      out << i << ' ' << r.accepted_index << ' ' << r.attempts << ' '
          << r.seed << ' ' << r.effective_budget << ' ' << r.epoch << ' '
          << static_cast<int>(r.result.status.code()) << ' '
          << r.result.added_edges.size();
      for (const Edge& e : r.result.added_edges)
        out << ' ' << e.u << ' ' << e.v;
      out << '\n';
    }
    GEA_CHECK(out.good());
  }
  GEA_CHECK(std::rename(tmp_path.c_str(), out_path.c_str()) == 0);
  std::cerr << "[crash_child] " << num_targets << " tickets published ("
            << done_submits << " submits, " << done_churns
            << " churns recovered)\n";
  return 0;
}

}  // namespace
}  // namespace geattack

int main(int argc, char** argv) {
  std::string journal_path;
  std::string out_path;
  uint64_t seed = 1234;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--journal=", 0) == 0) {
      journal_path = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.substr(7).c_str(), nullptr, 10);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (journal_path.empty() || out_path.empty()) {
    std::cerr << "usage: crash_child --journal=PATH --out=PATH [--seed=N]\n";
    return 2;
  }
  return geattack::RunCrashChild(journal_path, out_path, seed);
}
