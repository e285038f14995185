// End-to-end attack-loop benchmark: dense n x n relaxation vs. the sparse
// candidate-edge path, per-target, for GEAttack (bilevel, hypergradient)
// and FGA-T (single-level gradient).  This is the perf-trajectory point for
// the attack stack, complementing bench_micro's kernel-level numbers.
//
//   ./bench_attack                 full harness; writes BENCH_attack.json
//                                  (override: --json=PATH).  Sizes
//                                  n ∈ {1k, 5k, 20k}; the 20k scenario
//                                  (override: GEATTACK_BENCH_ATTACK_LARGE_N)
//                                  is sparse-only — the dense bilevel loop
//                                  cannot even allocate there.
//   ./bench_attack --quick         CI-sized sizes (n ∈ {300, 800}), small
//                                  budgets; same JSON schema.
//
// Both modes end with a "scaling" section that runs the full §5.1 loop —
// attack → explain → defend — sparse end-to-end at 100k nodes (plus a 1M row
// in full mode, with save/load timing) under a DenseAllocGuard: any n×n
// tensor allocation sneaking back into the protocol aborts the bench, so
// the CI quick gate hard-fails dense regressions.  Rows record per-phase
// latency and the row's own peak RSS (VmHWM reset before each row; null
// where the reset is not allowed).
//
// Each size also measures multi-target throughput (targets/sec) through the
// thread-pool driver: the serial (1-thread) driver vs GEATTACK_BENCH_ATTACK_
// THREADS workers (default 4) vs the batched task type
// (GEATTACK_BENCH_ATTACK_BATCH grouped targets per stacked task on
// GEATTACK_BENCH_ATTACK_BATCH_THREADS workers, defaults 2/2 — see the
// operating-point note in RunHarness), with a hard gate that both the
// parallel and the batched edge picks are identical to the serial ones.
//
// Both modes end with a dense-vs-sparse equivalence gate at the smallest
// size: FGA-T and GEAttack (mask_init_scale = 0) must each pick identical
// edges or reach the same final attack loss within 1e-6 (the loss fallback
// tolerates compiler-dependent roundoff flipping a near-tied argmin; the
// unit tests additionally pin identical picks on fixed seeds).  The process
// exits nonzero if either gate fails, so CI catches drift.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/attack/driver.h"
#include "src/service/attack_service.h"
#include "src/attack/fault_injection.h"
#include "src/attack/fga.h"
#include "src/core/geattack.h"
#include "src/defense/inspector_defense.h"
#include "src/eval/pipeline.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Scenario {
  GraphData data;
  Gcn model;
  AttackContext ctx;        // Dense + sparse, or sparse-only when large.
  PreparedTarget target;    // First prepared target (single-target rows).
  std::vector<PreparedTarget> targets;  // Multi-target throughput pool.
  bool dense_ok = false;
};

Scenario MakeScenario(int64_t n, bool dense_ok, int64_t feature_dim,
                      int64_t budget_cap, int64_t num_targets) {
  Rng rng(9000 + static_cast<uint64_t>(n));
  CitationGraphConfig cfg;
  cfg.num_nodes = n;
  cfg.num_edges = 3 * n;
  cfg.num_classes = 5;
  cfg.feature_dim = feature_dim;
  Scenario s{KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng)),
             Gcn({feature_dim, 16, 5}, &rng),
             AttackContext{},
             PreparedTarget{},
             {},
             dense_ok};
  Split split = MakeSplit(s.data, 0.1, 0.1, &rng);
  TrainConfig tc;
  tc.epochs = n >= 10000 ? 3 : (n >= 2000 ? 8 : 20);
  tc.patience = 0;
  s.model = TrainNewGcn(s.data, split, tc, &rng);
  s.ctx = dense_ok ? MakeAttackContext(s.data, s.model)
                   : MakeSparseAttackContext(s.data, s.model);

  // Targets: correctly-classified test nodes of degree >= 2 that the
  // untargeted FGA probe can flip (the paper's target-label protocol).
  const Tensor logits = s.model.LogitsFromGraph(s.data.graph,
                                                s.data.features);
  for (int64_t node : split.test) {
    if (static_cast<int64_t>(s.targets.size()) >= num_targets) break;
    if (s.data.graph.Degree(node) < 2) continue;
    if (logits.ArgMaxRow(node) != s.data.labels[ZU(node)]) continue;
    auto prepared = PrepareTargets(s.ctx, {node}, &rng, /*sparse=*/true);
    if (prepared.empty()) continue;
    prepared[0].budget = std::min(prepared[0].budget, budget_cap);
    s.targets.push_back(prepared[0]);
  }
  if (!s.targets.empty()) s.target = s.targets.front();
  return s;
}

struct TimedRun {
  double ms = -1.0;  // < 0: skipped (dense infeasible at this size).
  AttackResult result;
};

/// Best-of-`reps` timing (identical results each rep — attacks are
/// deterministic given the seed).  The cheap sparse configurations use
/// reps > 1 to shave scheduler noise; the dense references stay at 1 rep
/// because a single run already takes minutes.
TimedRun TimeAttack(const Scenario& s, const TargetedAttack& attack,
                    uint64_t seed, int reps = 1) {
  TimedRun run;
  AttackRequest req{s.target.node, s.target.target_label, s.target.budget};
  for (int r = 0; r < reps; ++r) {
    Rng rng(seed);
    const double t0 = NowMs();
    run.result = attack.Attack(s.ctx, req, &rng);
    const double elapsed = NowMs() - t0;
    if (r == 0 || elapsed < run.ms) run.ms = elapsed;
  }
  return run;
}

struct Row {
  int64_t n = 0;
  int64_t edges = 0;
  int64_t budget = 0;
  int64_t inner_steps = 0;  // 0 for FGA.
  double dense_ms = -1.0;
  double sparse_ms = 0.0;
};

struct EquivalenceRow {
  int64_t n = 0;
  std::string attack;
  bool identical_edges = false;
  double loss_delta = 0.0;
};

struct MultiTargetRow {
  int64_t n = 0;
  int64_t targets = 0;
  int threads = 0;
  double serial_ms = 0.0;    // Driver, num_threads = 1.
  double threaded_ms = 0.0;  // Driver, num_threads = threads.
  bool identical = false;    // Parallel picks == serial picks (gate).
  // Batched task type: num_threads = batched_threads, groups of
  // batch_targets through the stacked-RHS path.
  int batched_threads = 0;
  int batch_targets = 0;
  double batched_ms = 0.0;
  bool batched_identical = false;  // Batched picks == serial picks (gate).
  // Per-target statuses of the serial reference run — a healthy bench run
  // has zero of either (gated).
  int64_t failed = 0;
  int64_t timed_out = 0;
};

// Fault-containment gate: one poisoned-target pass and one
// deadline-limited pass through the driver; the faulted target must come
// back kError / kTimedOut and every survivor must keep the exact
// fault-free picks.
struct FaultRow {
  int64_t n = 0;
  int64_t targets = 0;
  bool poisoned_isolated = false;
  bool deadline_isolated = false;
};

int64_t CountStatus(const std::vector<AttackResult>& results,
                    StatusCode code) {
  int64_t count = 0;
  for (const AttackResult& r : results)
    if (r.status.code() == code) ++count;
  return count;
}

/// -log softmax[target_label] of the post-attack victim via the sparse
/// incremental eval path.
double FinalAttackLoss(const Scenario& s, const AttackResult& result) {
  const Tensor logits = PerturbedLogits(s.ctx, result, /*sparse=*/true);
  const int64_t v = s.target.node;
  double maxv = logits.at(v, 0);
  for (int64_t c = 1; c < logits.cols(); ++c)
    maxv = std::max(maxv, logits.at(v, c));
  double denom = 0.0;
  for (int64_t c = 0; c < logits.cols(); ++c)
    denom += std::exp(logits.at(v, c) - maxv);
  return -(logits.at(v, s.target.target_label) - maxv - std::log(denom));
}

bool SameEdges(const AttackResult& a, const AttackResult& b) {
  if (a.added_edges.size() != b.added_edges.size()) return false;
  for (size_t i = 0; i < a.added_edges.size(); ++i)
    if (!(a.added_edges[i] == b.added_edges[i])) return false;
  return true;
}

void WriteNullableMs(std::ostream& os, const char* key, double ms) {
  os << "\"" << key << "\":";
  if (ms < 0.0) {
    os << "null";
  } else {
    os << ms;
  }
}

void WriteRows(std::ostream& os, const std::vector<Row>& rows,
               bool with_inner) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"n\":" << r.n << ",\"edges\":" << r.edges
       << ",\"budget\":" << r.budget;
    if (with_inner) os << ",\"inner_steps\":" << r.inner_steps;
    os << ",";
    WriteNullableMs(os, "dense_ms", r.dense_ms);
    os << ",\"sparse_ms\":" << r.sparse_ms << ",";
    WriteNullableMs(os, "speedup",
                    r.dense_ms < 0.0 || r.sparse_ms <= 0.0
                        ? -1.0
                        : r.dense_ms / r.sparse_ms);
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

/// Resets the process peak resident set (VmHWM) to the current RSS, so the
/// next PeakRssMb() covers only what ran since.  False when the kernel does
/// not allow it (no /proc, or clear_refs not writable).
bool ResetPeakRss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

/// Process peak resident set (VmHWM) in MiB; -1 if /proc is unavailable.
double PeakRssMb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return -1.0;
}

// ---------------------------------------------------------------------------
// Service overload section: open-loop arrivals against the bounded-queue
// AttackService (src/service/attack_service.h) at offered loads of 0.5x /
// 1x / 2x / 4x the measured closed-loop capacity.  Each row records p50/p99
// latency, shed/reject counts and goodput — the degradation curve.  The 4x
// row is an overload burst and is CI-gated: the service must shed (bounded
// queue doing its job) AND every completed request's picks must be
// bit-identical to the offline driver over the accepted set in admission
// order (overload must degrade capacity, never correctness).
// ---------------------------------------------------------------------------

struct ServiceRow {
  double multiplier = 0.0;   // Offered load / measured capacity.
  double offered_tps = 0.0;
  int64_t submitted = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;      // Admission rejects (queue full).
  int64_t shed = 0;          // Accepted, then shed by the dispatcher.
  int64_t retried = 0;
  int64_t completed = 0;
  double p50_ms = 0.0;       // Admission-to-finalize latency percentiles
  double p99_ms = 0.0;       // over completed requests.
  double wall_ms = 0.0;
  double goodput_tps = 0.0;  // Completed per second of wall clock.
  bool identical = true;     // Completed picks == offline reference (gate).
};

struct ServiceSection {
  int64_t n = 0;
  double capacity_tps = 0.0;
  int64_t queue_capacity = 0;
  int64_t shed_watermark = 0;
  std::vector<ServiceRow> rows;
  bool gate_ok = true;  // Stays true when the section is skipped.
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

ServiceSection RunServiceSection(const Scenario& s, bool quick) {
  ServiceSection section;
  section.n = s.data.num_nodes();
  section.queue_capacity = 8;
  section.shed_watermark = 6;
  const FgaAttack attack(/*targeted=*/true, /*use_sparse=*/true);
  const uint64_t base_seed = 7100;
  const int service_threads = 2;

  // Measured capacity: warm the shared context caches, then time a
  // closed-loop driver pass over the target pool.  The service cannot beat
  // its own engine, so offered load is set relative to this.
  std::vector<AttackRequest> pool;
  for (const PreparedTarget& t : s.targets)
    pool.push_back({t.node, t.target_label, t.budget});
  AttackDriverConfig closed_cfg;
  closed_cfg.num_threads = service_threads;
  closed_cfg.base_seed = base_seed;
  RunMultiTargetAttack(s.ctx, attack, pool, closed_cfg);  // Warmup.
  const double closed_t0 = NowMs();
  RunMultiTargetAttack(s.ctx, attack, pool, closed_cfg);
  const double closed_ms = NowMs() - closed_t0;
  section.capacity_tps =
      closed_ms > 0.0
          ? 1000.0 * static_cast<double>(pool.size()) / closed_ms
          : 1000.0;

  const int64_t num_requests = quick ? 32 : 64;
  for (const double multiplier : {0.5, 1.0, 2.0, 4.0}) {
    AttackServiceConfig cfg;
    cfg.base_seed = base_seed;
    cfg.num_threads = service_threads;
    cfg.queue_capacity = section.queue_capacity;
    cfg.wave_size = 4;
    cfg.max_attempts = 2;
    cfg.retry_backoff_ms = 1.0;
    cfg.shed_watermark = section.shed_watermark;
    AttackService service(cfg);
    GEA_CHECK(service
                  .RegisterGraph("bench", s.data, s.model,
                                 std::shared_ptr<const TargetedAttack>(
                                     std::shared_ptr<const TargetedAttack>(),
                                     &attack),
                                 s.dense_ok)
                  .ok());

    ServiceRow row;
    row.multiplier = multiplier;
    row.offered_tps = multiplier * section.capacity_tps;
    const double gap_ms =
        row.offered_tps > 0.0 ? 1000.0 / row.offered_tps : 0.0;
    // The 4x row is an overload BURST: it front-loads 2x the queue bound
    // back-to-back (the arrival pattern admission control exists for)
    // before settling into the sustained rate.  Sub-saturation rows pace
    // every arrival.
    const int64_t burst =
        multiplier >= 4.0 ? 2 * section.queue_capacity : 0;

    std::vector<int64_t> tickets;
    std::vector<AttackRequest> accepted_requests;  // Admission order.
    const double wall_t0 = NowMs();
    double next_submit = wall_t0;
    for (int64_t i = 0; i < num_requests; ++i) {
      if (i >= burst) {
        // Deadline-paced (not sleep-paced): sub-millisecond gaps stay
        // accurate, so the offered rate is what the row claims.
        next_submit += gap_ms;
        while (NowMs() < next_submit) std::this_thread::yield();
      }
      const PreparedTarget& t =
          s.targets[ZU(i) % s.targets.size()];
      AttackServiceRequest request;
      request.graph = "bench";
      request.target_node = t.node;
      request.target_label = t.target_label;
      request.budget = t.budget;
      ++row.submitted;
      const Admission admission = service.Submit(request);
      if (admission.status.ok()) {
        tickets.push_back(admission.ticket);
        accepted_requests.push_back({t.node, t.target_label, t.budget});
      } else {
        ++row.rejected;
      }
    }
    service.Drain();
    row.wall_ms = NowMs() - wall_t0;
    const ServiceStats stats = service.stats();
    row.accepted = stats.accepted;
    row.shed = stats.shed;
    row.retried = stats.retried;

    std::vector<ServiceResult> outcomes;
    outcomes.reserve(tickets.size());
    for (const int64_t ticket : tickets)
      outcomes.push_back(service.Take(ticket));

    // Offline reference: the accepted set in admission order under the
    // same base seed — accepted_index k IS driver position k, so the plain
    // driver replays every first-attempt stream (see AttemptSeed).
    const std::vector<AttackResult> reference =
        RunMultiTargetAttack(s.ctx, attack, accepted_requests, closed_cfg);

    std::vector<double> latencies;
    for (size_t k = 0; k < outcomes.size(); ++k) {
      const ServiceResult& r = outcomes[k];
      if (!r.result.status.ok()) continue;
      ++row.completed;
      latencies.push_back(r.latency_ms);
      if (r.attempts <= 1) {
        row.identical = row.identical && SameEdges(r.result, reference[k]);
      } else {
        // A retried completion ran on its documented per-attempt stream:
        // replay exactly that recorded seed offline.
        AttackDriverConfig retry_cfg;
        retry_cfg.num_threads = 1;
        retry_cfg.request_seeds = {r.seed};
        const std::vector<AttackResult> replay = RunMultiTargetAttack(
            s.ctx, attack, {accepted_requests[k]}, retry_cfg);
        row.identical = row.identical && SameEdges(r.result, replay[0]);
      }
    }
    row.p50_ms = Percentile(latencies, 0.5);
    row.p99_ms = Percentile(latencies, 0.99);
    row.goodput_tps = row.wall_ms > 0.0
                          ? 1000.0 * static_cast<double>(row.completed) /
                                row.wall_ms
                          : 0.0;

    section.gate_ok =
        section.gate_ok && row.identical && row.completed > 0;
    if (multiplier >= 4.0)
      section.gate_ok = section.gate_ok && row.shed > 0;
    std::cerr << "[bench_attack] service x" << multiplier << ": offered "
              << row.offered_tps << " tps, completed " << row.completed
              << ", rejected " << row.rejected << ", shed " << row.shed
              << ", p50 " << row.p50_ms << " ms, p99 " << row.p99_ms
              << " ms, identical=" << (row.identical ? "yes" : "NO")
              << "\n";
    section.rows.push_back(row);
  }
  std::cerr << "[bench_attack] service overload gate: "
            << (section.gate_ok ? "PASS" : "FAIL") << "\n";
  return section;
}

// ---------------------------------------------------------------------------
// Live-churn section: epoch maintenance cost and correctness under fire.
// Two measurements at the smallest size:
//
//   1. Maintenance micro: building epoch k+1 from epoch k via ApplyChurn
//      (incremental CSR flip + exact GcnRenormalizeAfterFlips) vs building
//      the same context from scratch, with a bit-equality gate between the
//      two — the incremental path must be faster AND byte-identical.
//   2. Service under churn: submissions interleaved with UpdateGraph
//      batches; every completed result is replayed offline on a fresh
//      context built for ITS recorded epoch and must match bit-for-bit
//      (churn must never blur which graph a result answered for).
//
// Both gates roll into the bench's overall equivalence_gate.
// ---------------------------------------------------------------------------

struct ChurnSection {
  int64_t n = 0;
  int64_t batch_edges = 0;
  int64_t rounds = 0;
  int64_t ball_hops = -1;        // Invalidation radius (-1 = bump all).
  double incremental_ms = 0.0;   // Sum of ApplyChurn epoch builds.
  double full_rebuild_ms = 0.0;  // Sum of from-scratch context builds.
  double speedup = 0.0;
  int64_t epochs = 0;
  int64_t bumped_targets = 0;  // Queued requests re-pinned across the run.
  int64_t completed = 0;
  bool gate_ok = true;  // Stays true when the section is skipped.
};

/// Deterministic churn plan: `rounds` batches of `batch_edges` absent
/// chords each, scanned in (u, v) order off a working copy so every batch
/// stays valid after the previous ones applied.
std::vector<ChurnBatch> PlanChurn(const Graph& graph, int64_t rounds,
                                  int64_t batch_edges) {
  Graph work = graph;
  std::vector<ChurnBatch> plan;
  int64_t u = 0;
  int64_t v = 1;
  for (int64_t r = 0; r < rounds; ++r) {
    ChurnBatch batch;
    while (static_cast<int64_t>(batch.added.size()) < batch_edges) {
      if (v >= work.num_nodes()) {
        ++u;
        v = u + 1;
      }
      GEA_CHECK(u < work.num_nodes() - 1);
      if (!work.HasEdge(u, v)) {
        batch.added.push_back({u, v, 1.0});
        work.AddEdge(u, v);
      }
      ++v;
    }
    plan.push_back(std::move(batch));
  }
  return plan;
}

ChurnSection RunChurnSection(const Scenario& s, bool quick) {
  ChurnSection sec;
  sec.n = s.data.num_nodes();
  sec.batch_edges = quick ? 8 : 16;
  sec.rounds = quick ? 3 : 6;
  const FgaAttack attack(/*targeted=*/true, /*use_sparse=*/true);
  const uint64_t base_seed = 7300;

  const std::vector<ChurnBatch> plan =
      PlanChurn(s.data.graph, sec.rounds, sec.batch_edges);

  // Epoch-k graphs, for the rebuild baseline and the per-epoch replay gate.
  std::vector<GraphData> epoch_data;
  epoch_data.push_back(s.data);
  for (const ChurnBatch& batch : plan) {
    GraphData next = epoch_data.back();
    for (const ChurnEdge& e : batch.added) next.graph.AddEdge(e.u, e.v);
    epoch_data.push_back(std::move(next));
  }
  const auto fresh_ctx = [&](int64_t epoch) {
    return s.dense_ok
               ? MakeAttackContext(epoch_data[ZU(epoch)], s.model)
               : MakeSparseAttackContext(epoch_data[ZU(epoch)], s.model);
  };

  // ----- Maintenance micro: incremental epoch vs from-scratch rebuild. ----
  auto snap = MakeGraphSnapshot(
      "bench", s.data, s.model,
      std::shared_ptr<const TargetedAttack>(
          std::shared_ptr<const TargetedAttack>(), &attack),
      s.dense_ok);
  for (int64_t r = 0; r < sec.rounds; ++r) {
    double t0 = NowMs();
    snap = ApplyChurn(snap, plan[ZU(r)]);
    sec.incremental_ms += NowMs() - t0;
    // Service-equivalent full rebuild: a snapshot owns its data, so the
    // baseline pays the same copy-then-flip ApplyChurn pays, then builds
    // the whole context from scratch instead of incrementally.
    t0 = NowMs();
    GraphData rebuilt = epoch_data[ZU(r)];
    for (const ChurnEdge& e : plan[ZU(r)].added)
      rebuilt.graph.AddEdge(e.u, e.v);
    for (const ChurnEdge& e : plan[ZU(r)].removed)
      rebuilt.graph.RemoveEdge(e.u, e.v);
    const AttackContext fresh =
        s.dense_ok ? MakeAttackContext(rebuilt, s.model)
                   : MakeSparseAttackContext(rebuilt, s.model);
    sec.full_rebuild_ms += NowMs() - t0;
    // The maintenance contract, re-checked at bench scale: the incremental
    // epoch is bit-identical to the fresh build (values AND structure).
    sec.gate_ok =
        sec.gate_ok &&
        snap->ctx.clean_norm_csr.values() == fresh.clean_norm_csr.values() &&
        snap->ctx.clean_csr.pattern()->col_idx ==
            fresh.clean_csr.pattern()->col_idx;
  }
  sec.epochs = snap->epoch;
  sec.speedup = sec.incremental_ms > 0.0
                    ? sec.full_rebuild_ms / sec.incremental_ms
                    : 0.0;

  // ----- The service under fire: submit, churn, repeat; per-epoch gate. ---
  AttackServiceConfig cfg;
  cfg.base_seed = base_seed;
  cfg.num_threads = 2;
  cfg.wave_size = 2;
  cfg.queue_capacity = 64;
  sec.ball_hops = cfg.churn_ball_hops;
  AttackService service(cfg);
  GEA_CHECK(service
                .RegisterGraph("bench", s.data, s.model,
                               std::shared_ptr<const TargetedAttack>(
                                   std::shared_ptr<const TargetedAttack>(),
                                   &attack),
                               s.dense_ok)
                .ok());

  const int64_t per_round = quick ? 4 : 8;
  std::vector<int64_t> tickets;
  std::vector<AttackRequest> submitted;
  for (int64_t r = 0; r < sec.rounds; ++r) {
    for (int64_t i = 0; i < per_round; ++i) {
      const PreparedTarget& t =
          s.targets[ZU(r * per_round + i) % s.targets.size()];
      AttackServiceRequest request;
      request.graph = "bench";
      request.target_node = t.node;
      request.target_label = t.target_label;
      request.budget = t.budget;
      const Admission admission = service.Submit(request);
      GEA_CHECK(admission.status.ok());
      tickets.push_back(admission.ticket);
      submitted.push_back({t.node, t.target_label, t.budget});
    }
    const ChurnResult cr = service.UpdateGraph("bench", plan[ZU(r)]);
    GEA_CHECK(cr.status.ok());
    sec.bumped_targets += cr.requeued;
  }
  service.Drain();

  std::map<int64_t, AttackContext> epoch_ctx;
  for (size_t k = 0; k < tickets.size(); ++k) {
    const ServiceResult r = service.Take(tickets[k]);
    if (!r.result.status.ok()) {
      sec.gate_ok = false;
      continue;
    }
    ++sec.completed;
    auto it = epoch_ctx.find(r.epoch);
    if (it == epoch_ctx.end())
      it = epoch_ctx.emplace(r.epoch, fresh_ctx(r.epoch)).first;
    // Replay the recorded final-attempt seed on a fresh context built for
    // the result's epoch: picks must match bit-for-bit.
    AttackDriverConfig replay_cfg;
    replay_cfg.num_threads = 1;
    replay_cfg.request_seeds = {r.seed};
    const std::vector<AttackResult> replay =
        RunMultiTargetAttack(it->second, attack, {submitted[k]}, replay_cfg);
    sec.gate_ok = sec.gate_ok && SameEdges(r.result, replay[0]);
  }
  std::cerr << "[bench_attack] churn: " << sec.rounds << " x "
            << sec.batch_edges << "-edge batches, incremental "
            << sec.incremental_ms << " ms vs rebuild " << sec.full_rebuild_ms
            << " ms (x" << sec.speedup << "), bumped " << sec.bumped_targets
            << " queued targets, per-epoch replay gate "
            << (sec.gate_ok ? "PASS" : "FAIL") << "\n";
  return sec;
}

// ---------------------------------------------------------------------------
// Hidden crash-recovery child (driven by tools/crash_harness.py): a
// deterministic submit → drain → churn script over a WAL-journaled service.
// The harness SIGKILLs this process at random points and relaunches it;
// every relaunch recovers from the journal, skips the already-durable
// prefix of the script, and runs only the remainder — so the published
// result file must be byte-identical to an uninterrupted run no matter
// where the kill landed.  Output is published atomically (tmp + rename):
// the harness never reads a torn file.
// ---------------------------------------------------------------------------

int RunCrashChild(const std::string& journal_path,
                  const std::string& out_path, uint64_t seed) {
  Scenario s = MakeScenario(160, /*dense_ok=*/false, /*feature_dim=*/32,
                            /*budget_cap=*/2, /*num_targets=*/6);
  GEA_CHECK(s.targets.size() >= 4);
  const size_t num_targets = s.targets.size();
  const FgaAttack attack(/*targeted=*/true, /*use_sparse=*/true);

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
                .RegisterGraph("g", s.data, s.model,
                               std::shared_ptr<const TargetedAttack>(
                                   std::shared_ptr<const TargetedAttack>(),
                                   &attack),
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

  const std::vector<ChurnBatch> plan = PlanChurn(s.data.graph, 2, 3);

  size_t next_submit = 0;
  int64_t next_churn = 0;
  const auto submit_step = [&] {
    const size_t i = next_submit++;
    if (i < done_submits) return;  // Durably admitted before the crash.
    const PreparedTarget& t = s.targets[i % s.targets.size()];
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
  std::cerr << "[bench_attack] crash child: " << num_targets
            << " tickets published (" << done_submits << " submits, "
            << done_churns << " churns recovered)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Scaling section: the full §5.1 protocol — attack → explain → defend — at
// 100k (quick + full) and 1M (full) nodes, sparse end-to-end.  The protocol
// steps run under a DenseAllocGuard armed at 64·n elements: anything
// n-proportional (X·W₁ folds, logit columns) passes with a wide margin,
// while a single n×n tensor sneaking back into the loop aborts the bench —
// the CI quick gate hard-fails on dense regressions.

struct ScalingRow {
  int64_t n = 0;
  int64_t edges = 0;
  double generate_ms = 0.0;
  double train_ms = 0.0;
  double save_ms = -1.0;  // < 0: skipped.
  double load_ms = -1.0;
  double attack_ms = 0.0;
  double explain_ms = 0.0;
  double defend_ms = 0.0;  // Iterative inspector incl. RankIndex lookups.
  int64_t pruned_edges = 0;
  int64_t true_adversarial_pruned = 0;
  /// Largest single dense allocation (elements) observed while the guard
  /// was armed around the protocol steps.
  int64_t guard_largest_alloc = 0;
  /// Peak RSS of this row alone; < 0 (null in the json) when VmHWM could
  /// not be reset, since the lifetime figure would include earlier rows.
  double peak_rss_mb = -1.0;
  bool ok = false;
};

ScalingRow RunScalingRow(int64_t n, bool quick, bool io_round_trip) {
  ScalingRow row;
  const bool rss_reset = ResetPeakRss();
  Rng rng(77000 + static_cast<uint64_t>(n));
  CitationGraphConfig cfg;
  cfg.num_nodes = n;
  cfg.num_edges = 3 * n;
  cfg.num_classes = 5;
  cfg.feature_dim = 32;  // Bag-of-words stays sparse at bench scale.

  double t0 = NowMs();
  GraphData data =
      KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
  row.generate_ms = NowMs() - t0;
  row.n = data.num_nodes();
  row.edges = data.graph.num_edges();
  std::cerr << "[bench_attack] scaling n=" << row.n << " (" << row.edges
            << " edges): generated in " << row.generate_ms << " ms\n";

  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  TrainConfig tc;
  tc.epochs = quick ? 2 : 3;
  tc.patience = 0;
  t0 = NowMs();
  Gcn model = TrainNewGcn(data, split, tc, &rng);
  row.train_ms = NowMs() - t0;

  if (io_round_trip) {
    const char* tmp = std::getenv("TMPDIR");
    const std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                             "/geattack_scaling_" + std::to_string(n) +
                             ".txt";
    t0 = NowMs();
    const bool saved = SaveGraphDataToFile(data, path).ok();
    row.save_ms = NowMs() - t0;
    GraphData loaded;
    t0 = NowMs();
    const bool load_ok = saved && LoadGraphDataFromFile(path, &loaded).ok();
    row.load_ms = NowMs() - t0;
    std::remove(path.c_str());
    if (!load_ok || loaded.graph.num_edges() != data.graph.num_edges() ||
        loaded.features.MaxAbsDiff(data.features) != 0.0) {
      std::cerr << "[bench_attack] scaling n=" << row.n
                << ": IO round-trip FAILED\n";
      return row;
    }
    std::cerr << "[bench_attack] scaling save " << row.save_ms << " ms, load "
              << row.load_ms << " ms\n";
  }

  AttackContext ctx = MakeSparseAttackContext(data, model);
  const Tensor logits = model.LogitsFromGraph(data.graph, data.features);
  PreparedTarget target;
  for (int64_t node : split.test) {
    if (data.graph.Degree(node) < 2) continue;
    if (logits.ArgMaxRow(node) != data.labels[ZU(node)]) continue;
    auto prepared = PrepareTargets(ctx, {node}, &rng, /*sparse=*/true);
    if (prepared.empty()) continue;
    prepared[0].budget = std::min<int64_t>(prepared[0].budget, 2);
    target = prepared[0];
    break;
  }
  if (target.node < 0) {
    std::cerr << "[bench_attack] scaling n=" << row.n
              << ": no flippable target\n";
    return row;
  }

  GnnExplainerConfig ecfg;
  ecfg.epochs = quick ? 30 : 100;
  const GnnExplainer explainer(&model, &data.features, ecfg);
  const ProtocolContext pctx = MakeProtocolContext(ctx, explainer);
  Graph work = data.graph;
  {
    // The whole per-target protocol runs inside the tripwire.
    DenseAllocGuard guard(64 * row.n);

    GeAttackConfig ge;
    ge.inner_steps = 2;
    ge.use_sparse = true;
    AttackRequest req{target.node, target.target_label, target.budget};
    Rng attack_rng(4242);
    t0 = NowMs();
    const AttackResult result = GeAttack(ge).Attack(ctx, req, &attack_rng);
    row.attack_ms = NowMs() - t0;

    for (const Edge& e : result.added_edges) work.AddEdge(e.u, e.v);
    t0 = NowMs();
    const int64_t predicted = PredictAtNode(pctx, work, target.node);
    const Explanation explanation =
        explainer.Explain(work, target.node, predicted);
    row.explain_ms = NowMs() - t0;
    (void)explanation;

    InspectorDefenseConfig dcfg;
    dcfg.prune_top = 2;
    dcfg.iterative = true;
    t0 = NowMs();
    const DefenseOutcome defense = InspectAndPruneInPlace(
        pctx, &work, target.node, dcfg, &result.added_edges);
    row.defend_ms = NowMs() - t0;
    row.pruned_edges = static_cast<int64_t>(defense.pruned_edges.size());
    row.true_adversarial_pruned = defense.true_adversarial_pruned;
    row.guard_largest_alloc = DenseAllocGuard::largest_observed();
  }
  row.peak_rss_mb = rss_reset ? PeakRssMb() : -1.0;
  row.ok = true;
  std::cerr << "[bench_attack] scaling protocol: attack " << row.attack_ms
            << " ms, explain " << row.explain_ms << " ms, defend "
            << row.defend_ms << " ms (pruned " << row.pruned_edges << ", "
            << row.true_adversarial_pruned
            << " adversarial), largest dense alloc "
            << row.guard_largest_alloc << " elements, peak RSS "
            << row.peak_rss_mb << " MB\n";
  return row;
}

int RunHarness(const std::string& json_path, bool quick) {
  const int64_t large_n = [] {
    const char* v = std::getenv("GEATTACK_BENCH_ATTACK_LARGE_N");
    return (v != nullptr && std::atoll(v) > 0) ? std::atoll(v)
                                               : int64_t{20000};
  }();
  const std::vector<int64_t> sizes =
      quick ? std::vector<int64_t>{300, 800}
            : std::vector<int64_t>{1000, 5000, large_n};
  // Beyond this the dense bilevel loop's live autodiff graph (hundreds of
  // n x n tensors under create_graph) stops fitting in memory.
  const int64_t dense_max_n = quick ? 800 : 5000;
  const int64_t feature_dim = quick ? 64 : 128;
  const int64_t budget_cap = quick ? 2 : 3;
  const int64_t num_targets = quick ? 4 : 8;
  const int threads = [] {
    const char* v = std::getenv("GEATTACK_BENCH_ATTACK_THREADS");
    return (v != nullptr && std::atoi(v) > 0) ? std::atoi(v) : 4;
  }();
  // The batched row runs batch=2 on 2 workers in both modes: quick doubles
  // as the CI equivalence gate (hard-fail on any non-identical pick), and
  // on the single-core bench container pairs over a small pool is the
  // batched operating point that stays ahead of the 4-worker unbatched
  // pool (larger groups inflate the in-flight working set, which a single
  // core pays for in cache misses; real multi-core machines can raise
  // both knobs via the env overrides).
  const int batch_targets = [] {
    const char* v = std::getenv("GEATTACK_BENCH_ATTACK_BATCH");
    return (v != nullptr && std::atoi(v) > 0) ? std::atoi(v) : 2;
  }();
  const int batched_threads = [] {
    const char* v = std::getenv("GEATTACK_BENCH_ATTACK_BATCH_THREADS");
    return (v != nullptr && std::atoi(v) > 0) ? std::atoi(v) : 2;
  }();

  std::vector<Row> geattack_rows, fga_rows;
  std::vector<EquivalenceRow> equivalence;
  std::vector<MultiTargetRow> multi_rows;
  FaultRow fault_row;
  ServiceSection service_section;
  ChurnSection churn_section;
  bool gate_ok = true;

  for (int64_t n : sizes) {
    const bool dense_ok = n <= dense_max_n;
    std::cerr << "[bench_attack] n=" << n << ": building scenario...\n";
    Scenario s = MakeScenario(n, dense_ok, feature_dim, budget_cap,
                              num_targets);
    if (s.target.node < 0) {
      std::cerr << "[bench_attack] n=" << n << ": no flippable target\n";
      continue;
    }
    std::cerr << "[bench_attack] n=" << s.data.num_nodes() << " target "
              << s.target.node << " budget " << s.target.budget << "\n";

    GeAttackConfig ge;
    // T = 5 is affordable everywhere on the sparse path; the dense bilevel
    // graph at 5k only fits with a shallower inner loop, and the ratio is
    // measured at identical configs.
    ge.inner_steps = quick ? 2 : (n >= 2000 ? 2 : 5);
    GeAttackConfig ge_sparse = ge;
    ge_sparse.use_sparse = true;
    GeAttackConfig ge_dense = ge;
    ge_dense.use_sparse = false;

    Row grow;
    grow.n = s.data.num_nodes();
    grow.edges = s.data.graph.num_edges();
    grow.budget = s.target.budget;
    grow.inner_steps = ge.inner_steps;
    const int sparse_reps = quick ? 2 : (n >= 10000 ? 2 : 3);
    grow.sparse_ms = TimeAttack(s, GeAttack(ge_sparse), 101, sparse_reps).ms;
    std::cerr << "[bench_attack] GEAttack sparse " << grow.sparse_ms
              << " ms/target\n";
    if (dense_ok) {
      grow.dense_ms = TimeAttack(s, GeAttack(ge_dense), 101).ms;
      std::cerr << "[bench_attack] GEAttack dense " << grow.dense_ms
                << " ms/target\n";
    }
    geattack_rows.push_back(grow);

    Row frow;
    frow.n = grow.n;
    frow.edges = grow.edges;
    frow.budget = grow.budget;
    frow.sparse_ms =
        TimeAttack(s, FgaAttack(true, /*use_sparse=*/true), 102,
                   sparse_reps).ms;
    std::cerr << "[bench_attack] FGA-T sparse " << frow.sparse_ms
              << " ms/target\n";
    if (dense_ok) {
      frow.dense_ms =
          TimeAttack(s, FgaAttack(true, /*use_sparse=*/false), 102).ms;
      std::cerr << "[bench_attack] FGA-T dense " << frow.dense_ms
                << " ms/target\n";
    }
    fga_rows.push_back(frow);

    // ----- Multi-target throughput: serial driver vs thread pool, same
    // seeds, identical-picks gate. -----
    if (static_cast<int64_t>(s.targets.size()) >= 2) {
      const GeAttack mt_attack(ge_sparse);
      std::vector<AttackRequest> requests;
      for (const PreparedTarget& t : s.targets)
        requests.push_back({t.node, t.target_label, t.budget});

      MultiTargetRow mrow;
      mrow.n = grow.n;
      mrow.targets = static_cast<int64_t>(requests.size());
      mrow.threads = threads;
      // Best-of-2 timing per mode (results are deterministic, so reps are
      // identical) — single-shot multi-target walls on the shared bench
      // host swing by ~10%, more than the batched-vs-threaded margins.
      const int mt_reps = 2;
      auto timed = [&](const AttackDriverConfig& cfg,
                       std::vector<AttackResult>* out) {
        double best = -1.0;
        for (int r = 0; r < mt_reps; ++r) {
          const double t0 = NowMs();
          *out = RunMultiTargetAttack(s.ctx, mt_attack, requests, cfg);
          const double elapsed = NowMs() - t0;
          if (best < 0.0 || elapsed < best) best = elapsed;
        }
        return best;
      };
      AttackDriverConfig serial_cfg;
      serial_cfg.num_threads = 1;
      serial_cfg.base_seed = 909;
      std::vector<AttackResult> serial;
      mrow.serial_ms = timed(serial_cfg, &serial);
      mrow.failed = CountStatus(serial, StatusCode::kError) +
                    CountStatus(serial, StatusCode::kInvalidArgument);
      mrow.timed_out = CountStatus(serial, StatusCode::kTimedOut);
      gate_ok = gate_ok && mrow.failed == 0 && mrow.timed_out == 0;
      AttackDriverConfig par_cfg = serial_cfg;
      par_cfg.num_threads = threads;
      std::vector<AttackResult> parallel;
      mrow.threaded_ms = timed(par_cfg, &parallel);
      mrow.identical = serial.size() == parallel.size();
      for (size_t i = 0; mrow.identical && i < serial.size(); ++i)
        mrow.identical = SameEdges(serial[i], parallel[i]);
      gate_ok = gate_ok && mrow.identical;

      // Batched task type: shared BatchedSubgraphView + stacked-RHS scoring
      // per group, same per-target streams — picks must stay identical.
      AttackDriverConfig batched_cfg = serial_cfg;
      batched_cfg.num_threads = batched_threads;
      batched_cfg.batch_targets = batch_targets;
      mrow.batched_threads = batched_threads;
      mrow.batch_targets = batch_targets;
      std::vector<AttackResult> batched;
      mrow.batched_ms = timed(batched_cfg, &batched);
      mrow.batched_identical = serial.size() == batched.size();
      for (size_t i = 0; mrow.batched_identical && i < serial.size(); ++i)
        mrow.batched_identical = SameEdges(serial[i], batched[i]);
      gate_ok = gate_ok && mrow.batched_identical;

      std::cerr << "[bench_attack] multi-target GEAttack x" << mrow.targets
                << ": serial " << mrow.serial_ms << " ms, " << threads
                << " threads " << mrow.threaded_ms << " ms, batched("
                << batched_threads << "t x" << batch_targets << ") "
                << mrow.batched_ms << " ms, identical="
                << (mrow.identical ? "yes" : "NO") << "/"
                << (mrow.batched_identical ? "yes" : "NO") << "\n";
      multi_rows.push_back(mrow);
    }

    // ----- Equivalence gate at the smallest size. -----
    if (n == sizes.front()) {
      {
        EquivalenceRow row;
        row.n = grow.n;
        row.attack = "FGA-T";
        const TimedRun a = TimeAttack(s, FgaAttack(true, false), 103);
        const TimedRun b = TimeAttack(s, FgaAttack(true, true), 103);
        row.identical_edges = SameEdges(a.result, b.result);
        row.loss_delta = std::abs(FinalAttackLoss(s, a.result) -
                                  FinalAttackLoss(s, b.result));
        gate_ok = gate_ok && (row.identical_edges || row.loss_delta < 1e-6);
        equivalence.push_back(row);
      }
      {
        EquivalenceRow row;
        row.n = grow.n;
        row.attack = "GEAttack";
        GeAttackConfig eq = ge;
        eq.mask_init_scale = 0.0;  // Both paths deterministic + comparable.
        GeAttackConfig eq_sparse = eq;
        eq_sparse.use_sparse = true;
        eq.use_sparse = false;
        const TimedRun a = TimeAttack(s, GeAttack(eq), 104);
        const TimedRun b = TimeAttack(s, GeAttack(eq_sparse), 104);
        row.identical_edges = SameEdges(a.result, b.result);
        row.loss_delta = std::abs(FinalAttackLoss(s, a.result) -
                                  FinalAttackLoss(s, b.result));
        gate_ok = gate_ok && (row.identical_edges || row.loss_delta < 1e-6);
        equivalence.push_back(row);
      }
      std::cerr << "[bench_attack] equivalence gate: "
                << (gate_ok ? "PASS" : "FAIL") << "\n";
    }

    // ----- Fault-containment gate at the smallest size: survivors of a
    // poisoned target and of a deadline-limited stall must keep the exact
    // fault-free picks (the driver's isolation contract, hard-gated). -----
    if (n == sizes.front() && s.targets.size() >= 2) {
      const FgaAttack ft_attack(/*targeted=*/true, /*use_sparse=*/true);
      std::vector<AttackRequest> requests;
      for (const PreparedTarget& t : s.targets)
        requests.push_back({t.node, t.target_label, t.budget});
      AttackDriverConfig cfg;
      cfg.base_seed = 909;
      cfg.num_threads = 2;
      const std::vector<AttackResult> clean =
          RunMultiTargetAttack(s.ctx, ft_attack, requests, cfg);

      fault_row.n = grow.n;
      fault_row.targets = static_cast<int64_t>(requests.size());
      const size_t mid = requests.size() / 2;
      auto survivors_identical = [&](const std::vector<AttackResult>& got,
                                     StatusCode expect_mid) {
        if (got.size() != clean.size()) return false;
        if (got[mid].status.code() != expect_mid) return false;
        for (size_t i = 0; i < got.size(); ++i) {
          if (i == mid) continue;
          if (!got[i].status.ok() || !SameEdges(got[i], clean[i]))
            return false;
        }
        return true;
      };

      FaultInjectingAttack poisoned(&ft_attack);
      poisoned.InjectAt(requests[mid].target_node,
                        {FaultKind::kThrow, 0.0});
      fault_row.poisoned_isolated = survivors_identical(
          RunMultiTargetAttack(s.ctx, poisoned, requests, cfg),
          StatusCode::kError);

      FaultInjectingAttack stalled(&ft_attack);
      stalled.InjectAt(requests[mid].target_node,
                       {FaultKind::kDelay, 300.0});
      AttackDriverConfig deadline_cfg = cfg;
      deadline_cfg.target_deadline_ms = 60.0;
      fault_row.deadline_isolated = survivors_identical(
          RunMultiTargetAttack(s.ctx, stalled, requests, deadline_cfg),
          StatusCode::kTimedOut);

      gate_ok = gate_ok && fault_row.poisoned_isolated &&
                fault_row.deadline_isolated;
      std::cerr << "[bench_attack] fault-containment gate: poisoned "
                << (fault_row.poisoned_isolated ? "PASS" : "FAIL")
                << ", deadline "
                << (fault_row.deadline_isolated ? "PASS" : "FAIL") << "\n";
    }

    // ----- Service overload section at the smallest size: open-loop
    // arrivals, degradation curve, 4x-burst gate (shed > 0, completed
    // picks identical to the offline driver). -----
    if (n == sizes.front() && s.targets.size() >= 2) {
      service_section = RunServiceSection(s, quick);
      gate_ok = gate_ok && service_section.gate_ok;

      // ----- Live-churn section: epoch maintenance micro + service under
      // interleaved churn, per-epoch bit-identity gates. -----
      churn_section = RunChurnSection(s, quick);
      gate_ok = gate_ok && churn_section.gate_ok;
    }
  }

  // ----- Scaling: the sparse protocol at 100k (quick + full) and 1M
  // (full only), dense-alloc-guarded. -----
  std::vector<ScalingRow> scaling;
  {
    std::vector<int64_t> scaling_sizes{100000};
    if (!quick) scaling_sizes.push_back(1000000);
    for (int64_t sn : scaling_sizes) {
      scaling.push_back(RunScalingRow(sn, quick, /*io_round_trip=*/true));
      gate_ok = gate_ok && scaling.back().ok;
    }
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot open " << json_path << " for writing\n";
    return 1;
  }
  out << "{\n  \"bench\": \"attack\",\n  \"openmp\": "
#ifdef _OPENMP
      << "true"
#else
      << "false"
#endif
      << ",\n  \"quick\": " << (quick ? "true" : "false")
      << ",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"attack_threads\": " << threads
      << ",\n  \"geattack_per_target\": [\n";
  WriteRows(out, geattack_rows, /*with_inner=*/true);
  out << "  ],\n  \"fga_per_target\": [\n";
  WriteRows(out, fga_rows, /*with_inner=*/false);
  out << "  ],\n  \"multi_target\": [\n";
  for (size_t i = 0; i < multi_rows.size(); ++i) {
    const MultiTargetRow& m = multi_rows[i];
    const double t = static_cast<double>(m.targets);
    const double serial_tps =
        m.serial_ms > 0.0 ? 1000.0 * t / m.serial_ms : 0.0;
    const double threaded_tps =
        m.threaded_ms > 0.0 ? 1000.0 * t / m.threaded_ms : 0.0;
    out << "    {\"n\":" << m.n << ",\"targets\":" << m.targets
        << ",\"threads\":" << m.threads << ",\"serial_ms\":" << m.serial_ms
        << ",\"threaded_ms\":" << m.threaded_ms
        << ",\"serial_targets_per_sec\":" << serial_tps
        << ",\"threaded_targets_per_sec\":" << threaded_tps
        << ",\"speedup\":"
        << (m.threaded_ms > 0.0 ? m.serial_ms / m.threaded_ms : 0.0)
        << ",\"failed\":" << m.failed << ",\"timed_out\":" << m.timed_out
        << ",\"identical\":" << (m.identical ? "true" : "false") << "}"
        << (i + 1 < multi_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"multi_target_batched\": [\n";
  for (size_t i = 0; i < multi_rows.size(); ++i) {
    const MultiTargetRow& m = multi_rows[i];
    const double t = static_cast<double>(m.targets);
    const double serial_tps =
        m.serial_ms > 0.0 ? 1000.0 * t / m.serial_ms : 0.0;
    const double threaded_tps =
        m.threaded_ms > 0.0 ? 1000.0 * t / m.threaded_ms : 0.0;
    const double batched_tps =
        m.batched_ms > 0.0 ? 1000.0 * t / m.batched_ms : 0.0;
    out << "    {\"n\":" << m.n << ",\"targets\":" << m.targets
        << ",\"threads\":" << m.batched_threads
        << ",\"batch_targets\":" << m.batch_targets
        << ",\"batched_ms\":" << m.batched_ms
        << ",\"serial_targets_per_sec\":" << serial_tps
        << ",\"threaded_targets_per_sec\":" << threaded_tps
        << ",\"batched_targets_per_sec\":" << batched_tps
        << ",\"speedup_vs_serial\":"
        << (m.batched_ms > 0.0 ? m.serial_ms / m.batched_ms : 0.0)
        << ",\"speedup_vs_threaded\":"
        << (m.batched_ms > 0.0 ? m.threaded_ms / m.batched_ms : 0.0)
        << ",\"identical\":" << (m.batched_identical ? "true" : "false")
        << "}" << (i + 1 < multi_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fault_containment\": {\"n\":" << fault_row.n
      << ",\"targets\":" << fault_row.targets
      << ",\"poisoned_survivors_identical\":"
      << (fault_row.poisoned_isolated ? "true" : "false")
      << ",\"deadline_survivors_identical\":"
      << (fault_row.deadline_isolated ? "true" : "false")
      << "},\n  \"service\": {\"n\":" << service_section.n
      << ",\"capacity_targets_per_sec\":" << service_section.capacity_tps
      << ",\"queue_capacity\":" << service_section.queue_capacity
      << ",\"shed_watermark\":" << service_section.shed_watermark
      << ",\"gate\":"
      << (service_section.gate_ok ? "\"pass\"" : "\"fail\"")
      << ",\"rows\": [\n";
  for (size_t i = 0; i < service_section.rows.size(); ++i) {
    const ServiceRow& r = service_section.rows[i];
    out << "    {\"multiplier\":" << r.multiplier
        << ",\"offered_targets_per_sec\":" << r.offered_tps
        << ",\"submitted\":" << r.submitted << ",\"accepted\":" << r.accepted
        << ",\"rejected\":" << r.rejected << ",\"shed\":" << r.shed
        << ",\"retried\":" << r.retried << ",\"completed\":" << r.completed
        << ",\"p50_ms\":" << r.p50_ms << ",\"p99_ms\":" << r.p99_ms
        << ",\"goodput_targets_per_sec\":" << r.goodput_tps
        << ",\"identical\":" << (r.identical ? "true" : "false") << "}"
        << (i + 1 < service_section.rows.size() ? "," : "") << "\n";
  }
  out << "  ]},\n  \"churn\": {\"n\":" << churn_section.n
      << ",\"batch_edges\":" << churn_section.batch_edges
      << ",\"rounds\":" << churn_section.rounds
      << ",\"churn_ball_hops\":" << churn_section.ball_hops
      << ",\"incremental_ms\":" << churn_section.incremental_ms
      << ",\"full_rebuild_ms\":" << churn_section.full_rebuild_ms
      << ",\"speedup\":" << churn_section.speedup
      << ",\"epochs\":" << churn_section.epochs
      << ",\"bumped_targets\":" << churn_section.bumped_targets
      << ",\"completed\":" << churn_section.completed << ",\"gate\":"
      << (churn_section.gate_ok ? "\"pass\"" : "\"fail\"")
      << "},\n  \"equivalence\": [\n";
  for (size_t i = 0; i < equivalence.size(); ++i) {
    const EquivalenceRow& e = equivalence[i];
    out << "    {\"n\":" << e.n << ",\"attack\":\"" << e.attack
        << "\",\"identical_edges\":" << (e.identical_edges ? "true" : "false")
        << ",\"loss_delta\":" << e.loss_delta << "}"
        << (i + 1 < equivalence.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"scaling\": [\n";
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    out << "    {\"n\":" << r.n << ",\"edges\":" << r.edges
        << ",\"generate_ms\":" << r.generate_ms
        << ",\"train_ms\":" << r.train_ms << ",";
    WriteNullableMs(out, "save_ms", r.save_ms);
    out << ",";
    WriteNullableMs(out, "load_ms", r.load_ms);
    out << ",\"attack_ms\":" << r.attack_ms
        << ",\"explain_ms\":" << r.explain_ms
        << ",\"defend_ms\":" << r.defend_ms
        << ",\"pruned_edges\":" << r.pruned_edges
        << ",\"true_adversarial_pruned\":" << r.true_adversarial_pruned
        << ",\"guard_largest_alloc\":" << r.guard_largest_alloc << ",";
    WriteNullableMs(out, "peak_rss_mb", r.peak_rss_mb);
    out << ",\"ok\":" << (r.ok ? "true" : "false") << "}"
        << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"equivalence_gate\": " << (gate_ok ? "\"pass\"" : "\"fail\"")
      << "\n}\n";
  std::cerr << "[bench_attack] wrote " << json_path << "\n";
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace geattack

int main(int argc, char** argv) {
  std::string json_path = "BENCH_attack.json";
  bool quick = false;
  bool crash_child = false;
  std::string journal_path;
  std::string out_path;
  uint64_t crash_seed = 1234;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--crash-child") {
      crash_child = true;
    } else if (arg.rfind("--journal=", 0) == 0) {
      journal_path = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      crash_seed = std::strtoull(arg.substr(7).c_str(), nullptr, 10);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (crash_child) {
    if (journal_path.empty() || out_path.empty()) {
      std::cerr << "--crash-child requires --journal=PATH and --out=PATH\n";
      return 2;
    }
    return geattack::RunCrashChild(journal_path, out_path, crash_seed);
  }
  return geattack::RunHarness(json_path, quick);
}
