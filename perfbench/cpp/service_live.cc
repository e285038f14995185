// service_live: an open loop of FGA-T requests against a WAL-journaled
// AttackService over the Cora preset, with edge churn interleaved.
//
// Three client threads share the service: the generator submits on a
// seeded Poisson-like schedule (never waiting for replies), a churn client
// calls UpdateGraph every kChurnEvery requests' due time, and a collector
// Takes results in ticket order.  Two phases run at the fixed offered
// rates kRateLo and kRateHi.  Afterwards a seeded sample of completed
// results is replayed offline on its recorded epoch, and a fresh service
// recovers the WAL and must return every ticket byte-identically.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "decorators.h"
#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/attack/journal.h"
#include "src/service/attack_service.h"
#include "src/service/graph_snapshot.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace geattack;

// The workload's fixed load shape.  The two offered rates are absolute: set
// once at about 35% and 70% of the capacity measured on a 4-core host with
// kMaxWorkers workers in its slower periods (a burst of 1000 requests
// drained at ~185 req/s; ~1.6x that when the host is quiet), and never
// re-derived per run.  A phase is sized by the percentile rule, not by
// --seconds: p99 needs 1000 samples, so both phases together last about
// 1000/65 + 1000/130 = 23 s.
constexpr double kRateLo = 65.0;              // Requests per second.
constexpr double kRateHi = 130.0;             // Requests per second.
constexpr int64_t kPhaseRequests = 1000;      // Per phase.
constexpr int64_t kChurnEvery = 20;           // Requests per churn batch.
constexpr int64_t kChurnEdges = 16;           // Edge flips per batch.
constexpr int64_t kBudgetCap = 2;             // Δ cap of every request.
constexpr int kMaxWorkers = 3;                // Service driver workers.
constexpr int64_t kReplaySample = 128;        // Results replayed offline.
const char* const kVersion = "cora";

struct Request {
  int phase = 0;
  double due_us = 0.0;
  int64_t pool_index = 0;
  // Filled by the generator.
  double send_start_us = 0.0;
  double send_end_us = 0.0;
  bool admitted = false;
  int64_t ticket = -1;
  int64_t submit_span = -1;
  // Filled by the collector.
  ServiceResult result;
  bool taken = false;
};

struct ChurnCall {
  int phase = 0;
  double due_us = 0.0;
  double start_us = 0.0;
  double ms = 0.0;
  bool ok = false;
  int64_t epoch = -1;
  int64_t requeued = 0;
};

/// Deterministic churn plan: even batches add kChurnEdges random absent
/// edges, odd batches remove the previous batch's edges again, so the
/// graph oscillates around the clean one instead of drifting.
std::vector<ChurnBatch> PlanChurn(const Graph& graph, int64_t batches,
                                  Rng* rng) {
  Graph work = graph;
  std::vector<ChurnBatch> plan;
  const int64_t n = graph.num_nodes();
  for (int64_t b = 0; b < batches; ++b) {
    ChurnBatch batch;
    if (b % 2 == 1) {
      batch.removed = plan.back().added;
      for (const ChurnEdge& e : batch.removed) work.RemoveEdge(e.u, e.v);
    } else {
      while (static_cast<int64_t>(batch.added.size()) < kChurnEdges) {
        const int64_t u = rng->UniformInt(0, n - 1);
        const int64_t v = rng->UniformInt(0, n - 1);
        if (u == v || work.HasEdge(u, v)) continue;
        work.AddEdge(u, v);
        batch.added.push_back({u, v, 1.0});
      }
    }
    plan.push_back(std::move(batch));
  }
  return plan;
}

/// Ticket-ordered result collector running on its own thread.
class Collector {
 public:
  Collector(AttackService* service, std::vector<Request>* requests)
      : service_(service), requests_(requests), thread_([this] { Loop(); }) {}
  ~Collector() {
    Close();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(index);
    cv_.notify_all();
  }
  /// Blocks until every pushed request has been taken.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  void Loop() {
    for (;;) {
      size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        index = queue_.front();
        queue_.pop_front();
        busy_ = true;
      }
      Request& r = (*requests_)[index];
      r.result = service_->Take(r.ticket);
      r.taken = true;
      {
        std::lock_guard<std::mutex> lock(mu_);
        busy_ = false;
        cv_.notify_all();
      }
    }
  }

  AttackService* service_;
  std::vector<Request>* requests_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<size_t> queue_;
  bool busy_ = false;
  bool closed_ = false;
  std::thread thread_;  // Last: starts after the members it uses.
};

void SleepUntilUs(double due_us) {
  const double wait = due_us - NowUs();
  if (wait > 0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(wait));
}

/// Runs one open-loop phase: requests[first, last) on the generator (this
/// thread) and the phase's churn calls on a churn thread.
void RunPhase(AttackService* service, const World& world,
              std::vector<Request>* requests, size_t first, size_t last,
              std::vector<ChurnCall>* churn, size_t churn_first,
              size_t churn_last, const std::vector<ChurnBatch>& plan,
              Collector* collector) {
  const double origin = NowUs() + 20000.0;  // Start 20 ms from now.
  for (size_t i = first; i < last; ++i) (*requests)[i].due_us += origin;
  for (size_t j = churn_first; j < churn_last; ++j) (*churn)[j].due_us += origin;

  std::thread churner([&] {
    for (size_t j = churn_first; j < churn_last; ++j) {
      ChurnCall& c = (*churn)[j];
      SleepUntilUs(c.due_us);
      c.start_us = NowUs();
      ChurnResult result;
      {
        ScopedSpan span("service.update_graph", static_cast<int64_t>(j));
        result = service->UpdateGraph(kVersion, plan[j]);
      }
      c.ms = MsSince(c.start_us);
      c.ok = result.status.ok();
      c.epoch = result.epoch;
      c.requeued = result.requeued;
    }
  });

  for (size_t i = first; i < last; ++i) {
    Request& r = (*requests)[i];
    const PreparedTarget& t = world.targets[static_cast<size_t>(r.pool_index)];
    AttackServiceRequest request;
    request.graph = kVersion;
    request.target_node = t.node;
    request.target_label = t.target_label;
    request.budget = t.budget;
    SleepUntilUs(r.due_us);
    r.send_start_us = NowUs();
    Admission admission;
    {
      ScopedSpan span("service.submit");
      admission = service->Submit(request);
      r.submit_span = span.id();
    }
    r.send_end_us = NowUs();
    r.admitted = admission.status.ok();
    r.ticket = admission.ticket;
    Tracer::Get().SetRequest(r.submit_span, r.ticket);
    if (r.admitted) collector->Push(i);
  }
  churner.join();
  collector->WaitIdle();
}

/// Computed bytes one epoch owns: features, labels, adjacency lists, both
/// CSRs and the degree column.
double EpochBytes(const GraphSnapshot& snap) {
  const double n = static_cast<double>(snap.data.num_nodes());
  const double f = static_cast<double>(snap.data.feature_dim());
  const double e2 = 2.0 * static_cast<double>(snap.data.graph.num_edges());
  const double csr = (n + 1.0) * 8.0 +
                     static_cast<double>(snap.ctx.clean_csr.nnz()) * 16.0;
  const double norm = (n + 1.0) * 8.0 +
                      static_cast<double>(snap.ctx.clean_norm_csr.nnz()) * 16.0;
  return n * f * 8.0 + n * 8.0 + e2 * 8.0 + csr + norm + n * 8.0;
}

bool SameServiceResult(const ServiceResult& a, const ServiceResult& b) {
  return a.result.status.code() == b.result.status.code() &&
         a.result.added_edges == b.result.added_edges &&
         a.accepted_index == b.accepted_index && a.attempts == b.attempts &&
         a.seed == b.seed && a.effective_budget == b.effective_budget &&
         a.epoch == b.epoch;
}

}  // namespace

int RunServiceLive(Run* run) {
  const RunOptions& opt = run->options;
  JsonWriter& json = *run->json;
  namespace fs = std::filesystem;

  // The paper_campaign world (same seed, same GCN) with half the paper's
  // target candidates: the pool only needs to be varied, not large.
  WorldSpec spec;
  spec.cora = true;
  spec.selection = {5, 5, 10};
  spec.budget_cap = kBudgetCap;

  const FgaAttack fga_t(/*targeted=*/true);
  const TracedAttack traced_fga(&fga_t, "attack.fga_t");
  const TargetedAttack* attack =
      opt.trace ? static_cast<const TargetedAttack*>(&traced_fga) : &fga_t;
  const auto shared_attack = std::shared_ptr<const TargetedAttack>(
      std::shared_ptr<const TargetedAttack>(), attack);

  AttackServiceConfig config;
  config.base_seed = opt.seed;
  config.num_threads = std::min(kMaxWorkers, opt.nproc);
  config.queue_capacity = 4 * kPhaseRequests;  // Admission never rejects.
  config.max_attempts = 1;  // Recover()'s byte-identity scope.
  const std::string wal_dir =
      opt.tmp_dir + "/wal-" + std::to_string(::getpid());
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  config.journal_path = wal_dir + "/service.wal";

  // Set-up: the world, then register epoch 0 and open the WAL.
  const double setup_start = NowUs();
  std::unique_ptr<World> world = BuildWorld(spec);
  std::unique_ptr<AttackService> service;
  double register_ms = 0.0;
  double open_ms = 0.0;
  {
    ScopedSpan span("service.setup");
    const double t0 = NowUs();
    service = std::make_unique<AttackService>(config);
    const Status registered = service->RegisterGraph(
        kVersion, world->data, *world->model, shared_attack);
    register_ms = MsSince(t0);
    const double t1 = NowUs();
    const RecoveryReport opened = service->Recover();
    open_ms = MsSince(t1);
    run->Expect("service_setup", registered.ok() && opened.status.ok(),
                registered.message() + opened.status.message());
  }
  json.Key("setup");
  json.BeginObject();
  json.Field("total_s", MsSince(setup_start) / 1000.0);
  for (const auto& [name, ms] : world->phase_ms) json.Field(name + "_ms", ms);
  json.Field("service.register_ms", register_ms);
  json.Field("service.open_wal_ms", open_ms);
  json.EndObject();
  WriteWorld(run, *world);
  run->Expect("targets_prepared", !world->targets.empty(),
              std::to_string(world->targets.size()) + " prepared targets");
  if (world->targets.empty()) return 1;

  // The seeded load, per phase: a Poisson process at the phase's rate
  // conditioned on exactly kPhaseRequests arrivals in its window (sorted
  // uniform due times), so arrivals are bursty but every phase lasts
  // kPhaseRequests / rate.  Each request targets a uniform pick from the
  // prepared pool; churn is due with every kChurnEvery-th request.
  Rng schedule_rng(TargetSeed(opt.seed, 0x5e4e1ce));
  std::vector<Request> requests;
  std::vector<ChurnCall> churn;
  const double rates[2] = {kRateLo, kRateHi};
  std::vector<size_t> phase_begin, churn_begin;
  for (int p = 0; p < 2; ++p) {
    phase_begin.push_back(requests.size());
    churn_begin.push_back(churn.size());
    const double window_us = static_cast<double>(kPhaseRequests) / rates[p] * 1e6;
    std::vector<double> dues;
    for (int64_t i = 0; i < kPhaseRequests; ++i)
      dues.push_back(schedule_rng.Uniform(0.0, window_us));
    std::sort(dues.begin(), dues.end());
    for (int64_t i = 0; i < kPhaseRequests; ++i) {
      const double t = dues[static_cast<size_t>(i)];
      Request r;
      r.phase = p;
      r.due_us = t;
      r.pool_index = schedule_rng.UniformInt(
          0, static_cast<int64_t>(world->targets.size()) - 1);
      requests.push_back(r);
      if ((i + 1) % kChurnEvery == 0) {
        ChurnCall c;
        c.phase = p;
        c.due_us = t;
        churn.push_back(c);
      }
    }
  }
  phase_begin.push_back(requests.size());
  churn_begin.push_back(churn.size());
  const std::vector<ChurnBatch> plan = PlanChurn(
      world->data.graph, static_cast<int64_t>(churn.size()), &schedule_rng);

  {
    Collector collector(service.get(), &requests);
    for (int p = 0; p < 2; ++p)
      RunPhase(service.get(), *world, &requests, phase_begin[p],
               phase_begin[p + 1], &churn, churn_begin[p], churn_begin[p + 1],
               plan, &collector);
  }
  service->Drain();
  const ServiceStats stats = service->stats();
  service->Stop();
  service.reset();

  json.Key("rates");
  json.Value(std::vector<double>{kRateLo, kRateHi});
  json.Key("requests");
  json.BeginArray();
  for (const Request& r : requests) {
    json.BeginArray();
    json.Value(r.phase);
    json.Value(r.due_us);
    json.Value(r.send_start_us);
    json.Value(r.send_end_us);
    json.Value(r.admitted ? r.result.latency_ms : -1.0);
    json.Value(static_cast<int64_t>(r.admitted ? r.result.result.status.code()
                                               : StatusCode::kResourceExhausted));
    json.Value(r.ticket);
    json.Value(r.result.epoch);
    json.EndArray();
  }
  json.EndArray();
  json.Key("churn");
  json.BeginArray();
  bool churn_ok = true;
  for (const ChurnCall& c : churn) {
    churn_ok = churn_ok && c.ok;
    json.BeginArray();
    json.Value(c.phase);
    json.Value(c.due_us);
    json.Value(c.start_us);
    json.Value(c.ms);
    json.Value(c.ok);
    json.Value(c.requeued);
    json.EndArray();
  }
  json.EndArray();
  run->Expect("churn_accepted", churn_ok,
              std::to_string(churn.size()) + " UpdateGraph batches");
  json.Key("stats");
  json.BeginObject();
  json.Field("submitted", stats.submitted);
  json.Field("accepted", stats.accepted);
  json.Field("rejected", stats.rejected_queue_full + stats.rejected_infeasible +
                             stats.rejected_invalid);
  json.Field("shed", stats.shed);
  json.Field("retried", stats.retried);
  json.Field("completed_ok", stats.completed_ok);
  json.Field("failed", stats.failed);
  json.Field("timed_out", stats.timed_out);
  json.Field("skipped", stats.skipped);
  json.Field("churn_batches", stats.churn_batches);
  json.Field("requeued_stale", stats.requeued_stale);
  json.Field("max_queue_depth", stats.max_queue_depth);
  json.EndObject();

  // Traced run: attempt spans carry their ticket (matched by seed stream).
  if (opt.trace) {
    std::map<uint64_t, int64_t> ticket_of_stream;
    for (const Request& r : requests)
      if (r.admitted)
        ticket_of_stream[Rng(AttemptSeed(opt.seed, r.result.accepted_index, 0))
                             .engine()()] = r.ticket;
    for (const RecordedPick& pick : traced_fga.Picks()) {
      const auto it = ticket_of_stream.find(pick.stream_tag);
      Tracer::Get().SetRequest(pick.span,
                               it == ticket_of_stream.end() ? -1 : it->second);
    }
  }

  // Offline replay of a seeded sample on each result's recorded epoch,
  // walking a shadow epoch chain built with the public ApplyChurn.
  std::vector<size_t> completed;
  for (size_t i = 0; i < requests.size(); ++i)
    if (requests[i].taken && requests[i].result.result.status.ok())
      completed.push_back(i);
  Rng sample_rng(TargetSeed(opt.seed, 0x5a3b1e));
  sample_rng.Shuffle(&completed);
  if (static_cast<int64_t>(completed.size()) > kReplaySample)
    completed.resize(static_cast<size_t>(kReplaySample));
  std::map<int64_t, std::vector<size_t>> sample_by_epoch;
  for (size_t i : completed)
    sample_by_epoch[requests[i].result.epoch].push_back(i);

  int64_t replayed = 0;
  int64_t replay_mismatch = 0;
  double epoch_bytes = 0.0;
  std::vector<double> apply_ms;
  {
    std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(
        "shadow", world->data, *world->model, shared_attack, false);
    epoch_bytes = EpochBytes(*snap);
    for (int64_t epoch = 0;; ++epoch) {
      const auto it = sample_by_epoch.find(epoch);
      if (it != sample_by_epoch.end()) {
        std::vector<AttackRequest> reqs;
        AttackDriverConfig driver;
        driver.num_threads = opt.nproc;
        for (size_t i : it->second) {
          const Request& r = requests[i];
          const PreparedTarget& t =
              world->targets[static_cast<size_t>(r.pool_index)];
          reqs.push_back({t.node, t.target_label, r.result.effective_budget});
          driver.request_seeds.push_back(r.result.seed);
        }
        const std::vector<AttackResult> replay =
            RunMultiTargetAttack(snap->ctx, fga_t, reqs, driver);
        for (size_t k = 0; k < replay.size(); ++k) {
          const ServiceResult& got = requests[it->second[k]].result;
          ++replayed;
          if (replay[k].added_edges != got.result.added_edges ||
              replay[k].status.code() != got.result.status.code())
            ++replay_mismatch;
        }
      }
      if (epoch >= static_cast<int64_t>(plan.size())) break;
      const double t0 = NowUs();
      {
        ScopedSpan span("snapshot.apply_churn", epoch + 1);
        snap = ApplyChurn(snap, plan[static_cast<size_t>(epoch)]);
      }
      apply_ms.push_back(MsSince(t0));
    }
  }
  run->Expect("replay_bit_identical", replay_mismatch == 0 && replayed > 0,
              std::to_string(replay_mismatch) + " of " +
                  std::to_string(replayed) + " sampled results differ");

  // Recovery on a fresh service over this run's WAL.
  const double wal_bytes =
      static_cast<double>(fs::file_size(config.journal_path));
  const int64_t wal_records = static_cast<int64_t>(
      LoadServiceJournal(config.journal_path, config.base_seed).events.size());
  double recover_s = 0.0;
  int64_t recovered_mismatch = 0;
  int64_t admitted = 0;
  {
    AttackService fresh(config);
    const Status registered = fresh.RegisterGraph(kVersion, world->data,
                                                  *world->model, shared_attack);
    const double t0 = NowUs();
    RecoveryReport report;
    {
      ScopedSpan span("service.recover");
      report = fresh.Recover();
    }
    recover_s = MsSince(t0) / 1000.0;
    for (const Request& r : requests) {
      if (!r.admitted) continue;
      ++admitted;
      if (!SameServiceResult(fresh.Take(r.ticket), r.result))
        ++recovered_mismatch;
    }
    run->Expect("recover_replays_every_ticket",
                registered.ok() && report.status.ok() && report.pending == 0 &&
                    report.replayed_results == admitted &&
                    recovered_mismatch == 0,
                std::to_string(report.replayed_results) + " replayed, " +
                    std::to_string(report.pending) + " pending, " +
                    std::to_string(recovered_mismatch) + " differ of " +
                    std::to_string(admitted));
  }
  fs::remove_all(wal_dir);

  json.Field("recover_s", recover_s);
  json.Key("probes");
  json.BeginObject();
  json.Field("wal_bytes", wal_bytes);
  json.Field("wal_records", wal_records);
  json.Field("epoch_bytes", epoch_bytes);
  json.Key("apply_churn_ms");
  json.Value(apply_ms);
  json.Field("replayed", replayed);
  json.EndObject();
  return 0;
}

}  // namespace perfbench
