// Overload-safe attack service over the fault-contained multi-target driver,
// with epoch-versioned LIVE graphs and kill−9 crash recovery.
//
// The driver (src/attack/driver.h) is a batch engine: give it a request
// vector and it returns results.  Real evaluation campaigns do not arrive
// as one tidy vector — targets trickle in from many experiments against
// many graph snapshots, sometimes faster than the machine can attack them,
// and the graphs themselves change under the load.  AttackService is the
// long-lived front end for that regime:
//
//   * a registry of graph versions, each a chain of immutable,
//     shared_ptr-owned GraphSnapshot epochs (src/service/graph_snapshot.h).
//     RegisterGraph COPIES the caller's data and model into epoch 0 — the
//     old raw-pointer "must outlive the service" contract is retired;
//   * live churn: UpdateGraph applies an atomic, validated edge-flip batch
//     and publishes epoch k + 1 built incrementally (ApplyEdgeFlips /
//     GcnRenormalizeAfterFlips), bit-identical to a fresh re-prepare.
//     In-flight waves finish on the snapshot they were dispatched against;
//     queued requests are re-pinned to the new epoch only when the churn
//     touches their augmented ball (see churn_ball_hops), so unaffected
//     work is provably NOT invalidated;
//   * a BOUNDED submission queue with admission control, deadline-aware
//     dispatch, retry with backoff, priority shedding and budget/deadline
//     degradation under watermarks, and a ServiceStats health snapshot
//     (see PR 9's semantics, unchanged);
//   * a crash-durable WAL (journal_path): admissions (`s`), churn batches
//     (`g`), and finalized results (`t`) are fsync'd geajournal-v3 records.
//     After a kill −9 at ANY point, a fresh service that re-registers the
//     same epoch-0 graphs and calls Recover() replays the WAL — walking the
//     epoch chain to its current epoch, restoring every completed result
//     and every still-pending ticket from journal records alone — and
//     re-runs only the remainder on the recorded seed streams: exactly-once
//     delivery per accepted ticket.
//
// Epoch lifetime: a snapshot epoch lives exactly as long as something can
// still run on it — it is current, a queued or running ticket pins it, or a
// caller holds a CurrentSnapshot handle.  A finished but un-taken result
// does NOT pin its epoch (it keeps only the epoch number), and Recover()
// holds only the current epoch plus those pinned by pending tickets, never
// the whole chain.  ServiceStats::live_epochs counts what is held.  Each
// epoch still carries its own feature matrix, so this rule is what bounds
// memory: perfbench `service_live` (100 churn epochs of the Cora preset,
// ~28 MB of features each) peaked at 3020 MiB when finished results and
// Recover() pinned every epoch, and at 268 MiB under this rule (medians of
// seeds 11-20, 4-core Intel Xeon VM, GCC 12.2 Release).
//
// Determinism contract (the reason a service layer can exist at all
// without breaking the repo's bit-identity invariant):
//
//   Every accepted request is assigned a monotonically increasing
//   accepted_index at admission.  Attempt 0 of request k draws from
//   Rng(AttemptSeed(base_seed, k, 0)) == Rng(TargetSeed(base_seed, k)) —
//   exactly the stream the offline driver gives position k.  So for every
//   request that completes on its first attempt with an undegraded budget,
//   the picks are bit-identical to RunMultiTargetAttack over the accepted
//   set in admission order ON ITS PINNED SNAPSHOT EPOCH, at ANY thread
//   count, queue bound, wave packing and arrival order.  Retries must not
//   reuse the attempt-0 stream (a retry that replayed the same draws after
//   a *transient* fault would anchor "retry" to "identical failure" for
//   deterministic faults), so attempt a > 0 draws from the distinct
//   documented stream AttemptSeed(base, k, a) = TargetSeed(TargetSeed(base,
//   k), a).  The final attempt number, seed, effective budget, and epoch
//   are recorded in the ServiceResult, so ANY completed request — retried,
//   degraded, or computed at a churned epoch — can be replayed offline
//   bit-identically by passing the recorded seed and budget straight to
//   the driver against that epoch's context (tests do exactly that).
//
// Epoch staleness: ServiceResult::epoch is the snapshot epoch the result
// was computed at.  A caller that churned the graph mid-flight can compare
// it against CurrentEpoch(version) to detect results that predate the
// churn — the service never silently re-runs them (their picks are still
// exact for their epoch; whether staleness matters is the caller's call).
//
// Recovery scope (the no-clock-bits doctrine, see CONTRIBUTING.md): the
// WAL records seeds, budgets, epochs, and outcomes — never wall-clock.
// Deadlines, shedding, and degradation are load/time-dependent, so the
// byte-identical kill−9 guarantee is scoped to configurations that do not
// use them (the crash harness runs max_attempts = 1, no watermarks, no
// deadlines); already-FINALIZED degraded/shed results replay faithfully
// from their records either way.  Replayed results report latency_ms = 0.
//
// Threading model: Submit/Cancel/Take/Drain/UpdateGraph/stats are
// thread-safe.  One internal dispatcher thread builds waves (same snapshot,
// expiring-soonest first, up to wave_size) and runs each wave through
// RunMultiTargetAttack with config.num_threads workers; faults stay
// contained per target by the driver's isolation machinery.  Recover() is
// NOT concurrent: call it once, after RegisterGraph and before any
// Submit/UpdateGraph, whenever journal_path is set.

#ifndef GEATTACK_SRC_SERVICE_ATTACK_SERVICE_H_
#define GEATTACK_SRC_SERVICE_ATTACK_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/attack/attack.h"
#include "src/attack/driver.h"
#include "src/attack/journal.h"
#include "src/base/status.h"
#include "src/service/graph_snapshot.h"

namespace geattack {

/// The per-attempt RNG seed.  Attempt 0 is TargetSeed(base_seed, index) —
/// the offline driver's stream for position `index` — so un-retried
/// completions are bit-identical to the offline run for free.  Retries mix
/// the attempt number through a second TargetSeed application, landing in
/// streams that are (a) disjoint from every attempt-0 stream and (b) stable
/// functions of (base_seed, index, attempt), so a retried result is still
/// exactly reproducible offline.
uint64_t AttemptSeed(uint64_t base_seed, int64_t accepted_index, int attempt);

struct AttackServiceConfig {
  /// Base seed of the accepted-index streams (see AttemptSeed).
  uint64_t base_seed = 0;
  /// Worker threads handed to the driver per dispatch wave.
  int num_threads = 1;
  /// Driver target-group size within a wave (see AttackDriverConfig).
  int batch_targets = 1;
  /// Bounded queue: Submit rejects with kResourceExhausted when this many
  /// requests are already queued (in-flight waves do not count).
  int64_t queue_capacity = 64;
  /// Max targets dispatched per wave (one wave = one driver call over
  /// requests pinned to a single snapshot epoch).
  int64_t wave_size = 8;
  /// Total attempts per request, first try included (>= 1; 1 = no retry).
  int max_attempts = 1;
  /// Base backoff before retry r (1-indexed): retry_backoff_ms * 2^(r-1)
  /// milliseconds after the failed attempt finished.  0 retries eagerly.
  double retry_backoff_ms = 0.0;
  /// Per-target deadline armed by the driver when the target starts
  /// (<= 0 = none).  Degradation may shrink it (see below).
  double target_deadline_ms = 0.0;
  /// Admission feasibility floor: a request submitted with a deadline
  /// tighter than this is rejected up front with kResourceExhausted — it
  /// could not finish even on an idle service, so queueing it only steals
  /// a slot from a request that could.  <= 0 disables the check.
  double min_feasible_deadline_ms = 0.0;
  /// Shedding watermark: when the queue is deeper than this, the
  /// dispatcher sheds the lowest-priority / latest-deadline requests
  /// (structured kResourceExhausted results) until the depth is back at
  /// the watermark.  0 disables shedding (the bounded queue still rejects
  /// at capacity).
  int64_t shed_watermark = 0;
  /// Degradation watermark: waves dispatched while the queue is deeper
  /// than this run with the degraded budget/deadline below.  0 disables.
  int64_t degrade_watermark = 0;
  /// Per-target budget cap applied to degraded waves (> 0 to enable).
  /// The *effective* budget is recorded in the ServiceResult, so degraded
  /// completions remain offline-reproducible.
  int64_t degraded_budget_cap = 0;
  /// Per-target deadline for degraded waves (> 0 to enable; replaces
  /// target_deadline_ms for those waves).
  double degraded_target_deadline_ms = 0.0;
  /// Ball-overlap invalidation radius for UpdateGraph: a QUEUED request is
  /// re-pinned to the new epoch only when some churn endpoint lies within
  /// `churn_ball_hops` hops of its target in the augmented graph (clean
  /// edges + its candidate edges) — outside that ball, the view, its
  /// out-degrees, and the candidate set are provably unchanged, so old-
  /// and new-epoch picks are identical and the old pin stays valid.
  /// MUST be >= the attacker's own view radius (e.g. GEAttackConfig::hops)
  /// for that proof to apply; the default -1 is the conservative whole-
  /// graph ball (every queued request re-pins on every churn), matching
  /// the in-tree attackers that default to hops = -1.
  int churn_ball_hops = -1;
  /// Crash-recovery WAL path; empty disables journaling.  When set,
  /// Recover() must be called once after registering the epoch-0 graphs
  /// and before any Submit/UpdateGraph — on a fresh path it just opens the
  /// WAL, after a crash it replays it.
  std::string journal_path;
};

/// One submission.
struct AttackServiceRequest {
  /// Registered graph version to attack (see RegisterGraph).
  std::string graph;
  int64_t target_node = -1;
  /// Desired wrong label; -1 = untargeted.
  int64_t target_label = -1;
  int64_t budget = 1;
  /// Shedding priority: LOWER values are shed first under overload.
  /// Equal-priority ties shed the latest-deadline request first (it has
  /// the most slack to resubmit).
  int32_t priority = 0;
  /// Relative deadline from admission, in milliseconds; <= 0 = none.
  /// Queue wait counts against it: a request still queued when it expires
  /// comes back kSkipped without ever consuming its rng stream.
  double deadline_ms = 0.0;
};

/// Submit outcome: ok() with a ticket, or a structured rejection
/// (kResourceExhausted / kNotFound / kInvalidArgument) with ticket -1.
struct Admission {
  Status status;
  int64_t ticket = -1;
};

/// UpdateGraph outcome: ok() with the new epoch number, or a structured
/// rejection (kNotFound for an unregistered version, kInvalidArgument for
/// a malformed batch — in which case NOTHING was mutated).
struct ChurnResult {
  Status status;
  /// Epoch the batch created; -1 on rejection.
  int64_t epoch = -1;
  /// Queued requests re-pinned to the new epoch (ball overlap).
  int64_t requeued = 0;
};

/// What Recover() rebuilt from the WAL.
struct RecoveryReport {
  /// Ok, or the load's kDataLoss when a complete record failed CRC (replay
  /// still used everything before the corruption).
  Status status;
  /// Churn batches re-applied (epochs rebuilt).
  int64_t churn_batches = 0;
  /// Tickets whose recorded results were replayed (no recomputation).
  int64_t replayed_results = 0;
  /// Tickets re-queued for execution (admitted but never finalized).
  int64_t pending = 0;
  /// The re-queued tickets, in admission order — a resuming driver submits
  /// only work NOT in this list and Takes everything.
  std::vector<int64_t> pending_tickets;
  /// Tickets with replayed results, in finalization order.
  std::vector<int64_t> completed_tickets;
};

/// Final outcome of one accepted request, consumed via Take(ticket).
struct ServiceResult {
  AttackResult result;
  /// Position in the accepted sequence — the offline reference index.
  int64_t accepted_index = -1;
  /// Attempts actually run (0 = shed/cancelled before the first attempt).
  int attempts = 0;
  /// Seed of the final attempt: AttemptSeed(base, accepted_index,
  /// attempts - 1) when attempts > 0.
  uint64_t seed = 0;
  /// Budget the final attempt ran with (== requested unless degraded).
  int64_t effective_budget = 0;
  /// Snapshot epoch the result was computed at (the pin at finalization).
  /// Compare against CurrentEpoch(version) to detect staleness after
  /// churn; -1 only for never-admitted sentinel results (unknown ticket).
  int64_t epoch = -1;
  /// Wall-clock milliseconds from admission to finalization (queue wait +
  /// attempts + backoff).  The open-loop bench derives p50/p99 from this.
  /// 0 for results replayed from the WAL by Recover() — wall-clock is
  /// never journaled (no clock bits in recovery state).
  double latency_ms = 0.0;
};

/// Monotonic health counters plus current queue state.  `queue_depth`,
/// `in_flight` and `live_epochs` are instantaneous; everything else only
/// ever increases.
/// Conservation identity (holds at every quiescent point and is pinned
/// under races by service_test):
///   accepted == completed_ok + failed + timed_out + skipped + shed
///               + queue_depth + in_flight.
struct ServiceStats {
  int64_t submitted = 0;
  int64_t accepted = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_infeasible = 0;
  int64_t rejected_invalid = 0;   ///< kInvalidArgument / kNotFound rejects.
  int64_t shed = 0;               ///< Accepted, then shed under overload.
  int64_t retried = 0;            ///< Re-dispatched attempts (not requests).
  int64_t completed_ok = 0;
  int64_t failed = 0;             ///< Final kError / kInvalidArgument.
  int64_t timed_out = 0;          ///< Final kTimedOut (retries exhausted).
  int64_t skipped = 0;            ///< Deadline expired before a try ran.
  int64_t degraded_waves = 0;
  int64_t churn_batches = 0;      ///< Accepted UpdateGraph batches.
  int64_t requeued_stale = 0;     ///< Queued requests re-pinned by churn.
  int64_t replayed_results = 0;   ///< Results rebuilt from the WAL.
  int64_t queue_depth = 0;
  int64_t max_queue_depth = 0;
  int64_t in_flight = 0;
  /// Distinct snapshot epochs the service holds: the current one of each
  /// version plus those pinned by queued and running tickets.  Read-only
  /// gauge; callers' own CurrentSnapshot handles are not counted.
  int64_t live_epochs = 0;
};

class AttackService {
 public:
  explicit AttackService(const AttackServiceConfig& config);
  ~AttackService();
  AttackService(const AttackService&) = delete;
  AttackService& operator=(const AttackService&) = delete;

  /// Registers a graph version at epoch 0, COPYING `data` and `model` into
  /// a service-owned immutable snapshot (derived context bit-identical to
  /// MakeSparseAttackContext / MakeAttackContext on the same inputs, so
  /// offline references built by the caller still match).  `attack` is
  /// shared, not copied.  Re-registering a name is an error — snapshots
  /// are immutable; churn happens through UpdateGraph, which publishes the
  /// next epoch under the same name.  `dense_context` additionally
  /// materializes the dense clean adjacency (small reference graphs only).
  Status RegisterGraph(const std::string& version, const GraphData& data,
                       const Gcn& model,
                       std::shared_ptr<const TargetedAttack> attack,
                       bool dense_context = false);

  /// Applies one atomic churn batch to `version`, publishing the next
  /// epoch.  Validation is all-or-nothing: any malformed entry (range,
  /// self-loop, duplicate, add-present / remove-absent, non-finite or
  /// non-unit weight) rejects the WHOLE batch with kInvalidArgument and
  /// zero mutation.  In-flight waves are never disturbed; queued requests
  /// re-pin to the new epoch only on ball overlap (churn_ball_hops).
  /// Concurrent UpdateGraph calls serialize; Submit/Take stay live while
  /// the new snapshot is built.
  ChurnResult UpdateGraph(const std::string& version,
                          const ChurnBatch& batch);

  /// Replays the WAL after a crash (or opens it fresh).  Must be called
  /// exactly once, after every epoch-0 RegisterGraph and before any
  /// Submit / UpdateGraph, whenever journal_path is set.  Rebuilds epochs
  /// from `g` records (keeping only the current one and those pending
  /// tickets pin), completed results from `t` records (Take works on them
  /// immediately), and re-queues admitted-but-unfinalized tickets on their
  /// recorded accepted_index streams.
  RecoveryReport Recover();

  /// Admission control.  Never blocks.  Rejections are structured:
  /// kNotFound (unregistered graph), kInvalidArgument (bad node / label /
  /// budget), kResourceExhausted (queue full, or deadline below the
  /// feasibility floor).  With journaling on, the admission is durable
  /// (fsync'd `s` record) before the ticket is returned.
  Admission Submit(const AttackServiceRequest& request);

  /// Cooperatively cancels a queued or running request.  Queued requests
  /// finalize as kSkipped without consuming their rng stream; running ones
  /// stop at the next loop-top poll with kTimedOut partial results.
  void Cancel(int64_t ticket);

  /// Blocks until `ticket` finishes and consumes its result.  A ticket
  /// that was never issued (or already taken) returns kNotFound.
  ServiceResult Take(int64_t ticket);

  /// Blocks until the queue is empty and no wave is in flight.
  void Drain();

  /// Stops the dispatcher; queued requests finalize as kResourceExhausted
  /// ("service stopping").  Idempotent; the destructor calls it.
  void Stop();

  /// Current epoch of `version`, or -1 if unregistered.
  int64_t CurrentEpoch(const std::string& version) const;

  /// Current snapshot of `version` (offline-reference contexts for tests
  /// and benches), or nullptr if unregistered.
  std::shared_ptr<const GraphSnapshot> CurrentSnapshot(
      const std::string& version) const;

  ServiceStats stats() const;

 private:
  enum class EntryState { kQueued, kRunning, kDone };

  struct Entry {
    int64_t ticket = -1;
    AttackServiceRequest request;
    /// Pinned snapshot: the epoch this request will run against.
    /// UpdateGraph re-pins QUEUED entries on ball overlap; running entries
    /// keep theirs until finalization, which releases it (null when done).
    std::shared_ptr<const GraphSnapshot> snap;
    int64_t accepted_index = -1;
    /// Next attempt number to run (0-based).
    int attempt = 0;
    /// Earliest dispatch time (backoff); default = immediately.
    std::chrono::steady_clock::time_point eligible_at{};
    /// Absolute deadline mirror of `token` for expiring-soonest ordering.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Armed at admission; chained under the driver's per-target token so
    /// queue wait counts against the request's deadline.
    CancellationToken token;
    std::chrono::steady_clock::time_point submitted_at{};
    EntryState state = EntryState::kQueued;
    ServiceResult out;
  };

  /// Dispatcher body: shed, pick a wave, run it, finalize/requeue.
  void DispatcherLoop();
  /// Marks `e` done with `result`, stamps the epoch, updates final-outcome
  /// counters, and (unless `from_replay`) appends the WAL `t` record.
  /// Caller holds mu_.
  void Finalize(Entry* e, AttackResult result, bool from_replay = false);
  /// Bumps the final-outcome counter for `code`.  Caller holds mu_.
  void CountOutcome(StatusCode code);
  /// True when the config enables the WAL.  The writer must then be open
  /// (Recover() was called) before any admission or churn.
  bool journaling() const { return !config_.journal_path.empty(); }

  const AttackServiceConfig config_;

  /// Serializes UpdateGraph callers so each next-epoch snapshot is built
  /// (outside mu_, keeping Submit/Take live) against a stable predecessor.
  /// Lock order: churn_mu_ before mu_; nothing under mu_ takes churn_mu_.
  std::mutex churn_mu_;

  // mu_ is the lock itself, not a lazily filled cache: every member it
  // protects is read and written only under this mutex (const stats()
  // included). lint-ok: unguarded-mutable (the mutex is the guard)
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< Wakes the dispatcher.
  std::condition_variable done_cv_;   ///< Wakes Take()/Drain() waiters.
  /// Current (latest-epoch) snapshot per version.  Older epochs stay alive
  /// exactly as long as some queued/running entry or caller pins them
  /// (Finalize drops the entry's pin).
  std::map<std::string, std::shared_ptr<const GraphSnapshot>> graphs_;
  std::map<int64_t, std::unique_ptr<Entry>> entries_;  ///< By ticket.
  std::vector<Entry*> pending_;       ///< Queued tickets, unordered.
  int64_t next_ticket_ = 0;
  int64_t next_accepted_index_ = 0;
  int64_t in_flight_ = 0;
  bool stopping_ = false;
  bool recovered_ = false;            ///< Recover() already ran.
  ServiceStats stats_;
  ServiceJournalWriter wal_;

  std::thread dispatcher_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_SERVICE_ATTACK_SERVICE_H_
