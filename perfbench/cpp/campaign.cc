// The two closed-loop §5.1 campaigns: paper_campaign (Cora preset at paper
// scale, three attacker columns) and sparse_20k (20k-node generated graph,
// FGA-T and GEAttack).  One calling thread runs EvaluateAttack column after
// column; the driver fans each column's attacks out over nproc workers.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decorators.h"
#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/core/geattack.h"
#include "src/core/geattack_pg.h"
#include "src/defense/inspector_defense.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "src/explain/gnn_explainer.h"
#include "src/tensor/csr.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace geattack;

/// GNNExplainer epochs of the campaign inspector.
constexpr int64_t kInspectorEpochs = 50;
/// SpMM operand width and repetitions of the traced tensor-layer probe.
constexpr int64_t kSpmmCols = 16;
constexpr int kSpmmReps = 20;

/// One attacker column: the attack and the explainer that inspects it.
struct Column {
  std::string key;  ///< Metric key, e.g. "geattack".
  const TargetedAttack* attack = nullptr;
  const Explainer* explainer = nullptr;
  std::string explainer_key;  ///< "gnn" or "pg".
};

/// The per-column evaluation seed: every pass of a column replays the same
/// per-target streams, so each pass computes identical picks.
uint64_t ColumnSeed(uint64_t seed, size_t column) {
  return TargetSeed(seed ^ 0x5eed5eedULL, static_cast<int64_t>(column));
}

EvalConfig MakeEvalConfig(const Run& run) {
  EvalConfig config;
  config.sparse = true;
  config.defend = true;
  config.attack_threads = run.options.nproc;
  return config;
}

void WriteOutcome(JsonWriter* json, const std::string& column, int pass,
                  bool traced, double wall_ms, size_t targets,
                  const JointAttackOutcome& o) {
  json->BeginObject();
  json->Field("column", column);
  json->Field("pass", pass);
  json->Field("traced", traced);
  json->Field("wall_ms", wall_ms);
  json->Field("targets", static_cast<int64_t>(targets));
  json->Field("ok", o.num_targets);
  json->Field("failed", o.num_failed);
  json->Field("timed_out", o.num_timed_out);
  json->Field("skipped", o.num_skipped);
  json->Field("shed", o.num_shed);
  json->Field("asr", o.asr);
  json->Field("asr_t", o.asr_t);
  json->Field("precision", o.detection.precision);
  json->Field("recall", o.detection.recall);
  json->Field("f1", o.detection.f1);
  json->Field("ndcg", o.detection.ndcg);
  json->Field("defense_recovery", o.defense_recovery);
  json->Field("mean_pruned_edges", o.mean_pruned_edges);
  json->Field("mean_true_adversarial_pruned", o.mean_true_adversarial_pruned);
  json->EndObject();
}

bool SameOutcome(const JointAttackOutcome& a, const JointAttackOutcome& b) {
  return a.asr == b.asr && a.asr_t == b.asr_t &&
         a.detection.precision == b.detection.precision &&
         a.detection.recall == b.detection.recall &&
         a.detection.f1 == b.detection.f1 &&
         a.detection.ndcg == b.detection.ndcg &&
         a.num_targets == b.num_targets && a.num_failed == b.num_failed &&
         a.num_timed_out == b.num_timed_out &&
         a.defense_recovery == b.defense_recovery &&
         a.mean_pruned_edges == b.mean_pruned_edges &&
         a.mean_true_adversarial_pruned == b.mean_true_adversarial_pruned;
}

/// The traced tensor-layer probe: SpmmRaw on the normalized clean CSR times
/// an (n, 16) operand.
void ProbeSpmm(const World& world, uint64_t seed, JsonWriter* json) {
  const CsrMatrix& a = world.ctx.clean_norm_csr;
  Rng rng(seed);
  const Tensor operand = rng.UniformTensor(a.cols(), kSpmmCols, -1.0, 1.0);
  double checksum = 0.0;
  for (int r = 0; r < kSpmmReps; ++r) {
    ScopedSpan span("tensor.spmm");
    const Tensor out = SpmmRaw(*a.pattern(), a.values(), operand);
    checksum += out.at(0, 0);
  }
  // Computed bytes one SpmmRaw moves: values and column indices once, row
  // pointers once, one operand row per stored entry, the output once.
  const double nnz = static_cast<double>(a.nnz());
  const double rows = static_cast<double>(a.rows());
  const double bytes = nnz * (8.0 + 8.0) + (rows + 1.0) * 8.0 +
                       nnz * kSpmmCols * 8.0 + rows * kSpmmCols * 8.0;
  json->Field("spmm_bytes", bytes);
  json->Field("spmm_nnz", static_cast<int64_t>(a.nnz()));
  json->Field("spmm_checksum", checksum);
}

/// Runs the protocol steps EvaluateAttack performs after the attack, one
/// directly timed public call at a time, over the traced pass's picks:
/// PredictAtNode + Explain + ComputeDetection as "eval.inspect" and
/// InspectAndPruneInPlace as "defense.inspect_prune".
void TraceProtocolSteps(const World& world, const Column& column,
                        const std::vector<RecordedPick>& picks,
                        JsonWriter* json) {
  const EvalConfig defaults;
  const ProtocolContext pctx = MakeProtocolContext(world.ctx, *column.explainer);
  Graph work = world.data.graph;
  int64_t pruned = 0;
  int64_t hits = 0;
  int64_t inspected = 0;
  for (const RecordedPick& pick : picks) {
    if (pick.status != StatusCode::kOk) continue;
    for (const Edge& e : pick.edges) work.AddEdge(e.u, e.v);
    {
      ScopedSpan span("eval.inspect", pick.node);
      const int64_t predicted = PredictAtNode(pctx, work, pick.node);
      const Explanation explanation =
          column.explainer->Explain(work, pick.node, predicted);
      ComputeDetection(explanation, pick.edges, defaults.subgraph_size,
                       defaults.k);
    }
    DefenseOutcome defense;
    {
      ScopedSpan span("defense.inspect_prune", pick.node);
      defense = InspectAndPruneInPlace(pctx, &work, pick.node,
                                       defaults.defense, &pick.edges);
    }
    pruned += static_cast<int64_t>(defense.pruned_edges.size());
    hits += defense.true_adversarial_pruned;
    ++inspected;
    for (const Edge& e : defense.pruned_edges) work.AddEdge(e.u, e.v);
    for (const Edge& e : pick.edges) work.RemoveEdge(e.u, e.v);
  }
  json->BeginObject();
  json->Field("column", column.key);
  json->Field("inspected", inspected);
  json->Field("pruned_edges", pruned);
  json->Field("true_adversarial_pruned", hits);
  json->EndObject();
}

/// True when the decorator's picks equal an undecorated driver run on the
/// same base seed, target by target.
bool PicksMatchReference(const World& world, const Column& column,
                         const EvalConfig& config, uint64_t eval_seed,
                         const std::vector<RecordedPick>& picks,
                         std::string* detail) {
  std::vector<AttackRequest> requests;
  for (const PreparedTarget& t : world.targets)
    requests.push_back({t.node, t.target_label, t.budget});
  AttackDriverConfig driver;
  driver.num_threads = config.attack_threads;
  driver.base_seed = Rng(eval_seed).engine()();  // EvaluateAttack's draw.
  const std::vector<AttackResult> reference =
      RunMultiTargetAttack(world.ctx, *column.attack, requests, driver);
  std::map<int64_t, const RecordedPick*> by_node;
  for (const RecordedPick& p : picks) by_node[p.node] = &p;
  int64_t mismatched = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto it = by_node.find(requests[i].target_node);
    if (it == by_node.end() || it->second->edges != reference[i].added_edges ||
        it->second->status != reference[i].status.code())
      ++mismatched;
  }
  *detail = column.key + ": " + std::to_string(mismatched) + " of " +
            std::to_string(requests.size()) +
            " targets differ from the undecorated driver";
  return mismatched == 0 && picks.size() == requests.size();
}

/// Runs a campaign over the world of `spec`: FGA-T and GEAttack under
/// GNNExplainer, plus GEAttack-PG under the world's PGExplainer if it has
/// one.
int RunCampaign(Run* run, const WorldSpec& spec) {
  const RunOptions& opt = run->options;
  JsonWriter& json = *run->json;
  std::unique_ptr<World> world = SetUp(run, spec);
  WriteWorld(run, *world);
  run->Expect("targets_prepared", !world->targets.empty(),
              std::to_string(world->targets.size()) + " prepared targets");
  if (world->targets.empty()) return 1;

  GnnExplainerConfig gnn_config;
  gnn_config.epochs = kInspectorEpochs;
  gnn_config.seed = opt.seed;
  const GnnExplainer gnn(world->model.get(), &world->data.features,
                         gnn_config);
  const FgaAttack fga_t(/*targeted=*/true);
  const GeAttack geattack;
  std::unique_ptr<GeAttackPg> geattack_pg;
  std::vector<Column> columns = {{"fga_t", &fga_t, &gnn, "gnn"},
                                 {"geattack", &geattack, &gnn, "gnn"}};
  if (world->pg != nullptr) {
    geattack_pg = std::make_unique<GeAttackPg>(world->pg.get());
    columns.push_back({"geattack_pg", geattack_pg.get(), world->pg.get(), "pg"});
  }
  const EvalConfig config = MakeEvalConfig(*run);

  // One pass = every column once.  Returns each column's outcome.
  auto run_pass = [&](int pass, bool traced,
                      const std::vector<Column>& cols) {
    std::vector<JointAttackOutcome> outcomes;
    for (size_t c = 0; c < cols.size(); ++c) {
      Rng rng(ColumnSeed(opt.seed, c));
      const double start = NowUs();
      JointAttackOutcome outcome;
      {
        ScopedSpan span(traced ? "eval.evaluate" : "eval.evaluate.untraced",
                        static_cast<int64_t>(c));
        Tracer::Get().SetPhaseRoot(span.id());
        outcome = EvaluateAttack(world->ctx, *cols[c].attack, world->targets,
                                 *cols[c].explainer, config, &rng);
        Tracer::Get().SetPhaseRoot(-1);
      }
      WriteOutcome(&json, cols[c].key, pass, traced, MsSince(start),
                   world->targets.size(), outcome);
      outcomes.push_back(outcome);
    }
    return outcomes;
  };

  json.Key("evaluations");
  json.BeginArray();
  std::vector<JointAttackOutcome> first;
  bool deterministic = true;
  int passes = 0;
  if (!opt.trace) {
    const double begin = NowUs();
    do {
      const std::vector<JointAttackOutcome> outcomes =
          run_pass(passes, /*traced=*/false, columns);
      if (passes == 0) first = outcomes;
      for (size_t c = 0; c < outcomes.size(); ++c)
        deterministic = deterministic && SameOutcome(outcomes[c], first[c]);
      ++passes;
    } while (MsSince(begin) < opt.seconds * 1000.0);
    json.EndArray();
  } else {
    // The untraced reference pass, then the same pass through decorators.
    first = run_pass(0, /*traced=*/false, columns);
    std::vector<std::unique_ptr<TracedAttack>> attacks;
    std::vector<std::unique_ptr<TracedExplainer>> explainers;
    std::vector<Column> traced = columns;
    for (Column& col : traced) {
      attacks.push_back(
          std::make_unique<TracedAttack>(col.attack, "attack." + col.key));
      explainers.push_back(std::make_unique<TracedExplainer>(
          col.explainer, "explain." + col.explainer_key));
      col.attack = attacks.back().get();
      col.explainer = explainers.back().get();
    }
    const std::vector<JointAttackOutcome> outcomes =
        run_pass(1, /*traced=*/true, traced);
    for (size_t c = 0; c < outcomes.size(); ++c)
      deterministic = deterministic && SameOutcome(outcomes[c], first[c]);
    passes = 2;
    json.EndArray();

    json.Key("picks");
    json.BeginArray();
    for (size_t c = 0; c < traced.size(); ++c) {
      for (const RecordedPick& pick : attacks[c]->Picks()) {
        json.BeginArray();
        json.Value(columns[c].key);
        json.Value(pick.node);
        json.Value(static_cast<int64_t>(pick.status));
        json.Value(static_cast<int64_t>(pick.edges.size()));
        json.Value(pick.span);
        json.EndArray();
      }
    }
    json.EndArray();

    json.Key("protocol_steps");
    json.BeginArray();
    for (size_t c = 0; c < traced.size(); ++c)
      TraceProtocolSteps(*world, traced[c], attacks[c]->Picks(), &json);
    json.EndArray();

    for (size_t c = 0; c < columns.size(); ++c) {
      std::string detail;
      const bool same =
          PicksMatchReference(*world, columns[c], config,
                              ColumnSeed(opt.seed, c), attacks[c]->Picks(),
                              &detail);
      run->Expect("traced_picks_identical." + columns[c].key, same, detail);
    }
    json.Key("probes");
    json.BeginObject();
    ProbeSpmm(*world, opt.seed, &json);
    json.EndObject();
  }

  run->Expect("outcomes_identical_across_passes", deterministic,
              std::to_string(passes) + " passes");
  for (size_t c = 0; c < first.size(); ++c) {
    const JointAttackOutcome& o = first[c];
    run->Expect("no_failed_targets." + columns[c].key,
                o.num_failed == 0 && o.num_timed_out == 0 &&
                    o.num_skipped == 0 && o.num_shed == 0,
                std::to_string(o.num_failed) + " failed, " +
                    std::to_string(o.num_timed_out) + " timed out");
    run->Expect("finite_quality." + columns[c].key,
                std::isfinite(o.asr_t) && std::isfinite(o.detection.f1),
                "asr_t and f1 finite");
  }
  return 0;
}

}  // namespace

int RunPaperCampaign(Run* run) {
  // Paper protocol: TrainConfig defaults, 10/10/20 selection, Δ uncapped.
  WorldSpec spec;
  spec.cora = true;
  spec.train_pg = true;
  return RunCampaign(run, spec);
}

int RunSparse20k(Run* run) {
  WorldSpec spec;
  spec.cora = false;
  spec.generator.num_nodes = 20000;
  spec.generator.num_edges = 60000;
  spec.generator.num_classes = 5;
  spec.generator.feature_dim = 128;
  spec.train.epochs = 20;
  spec.train.patience = 0;
  spec.selection = {0, 0, 14};  // 8 of them survive preparation.
  spec.budget_cap = 3;
  return RunCampaign(run, spec);
}

}  // namespace perfbench
