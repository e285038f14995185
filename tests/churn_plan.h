// Deterministic churn plan shared by bench_attack's churn section and the
// crash-recovery child (tests/crash_child.cc).

#ifndef GEATTACK_TESTS_CHURN_PLAN_H_
#define GEATTACK_TESTS_CHURN_PLAN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/service/graph_snapshot.h"

namespace geattack {

/// `rounds` batches of `batch_edges` absent chords each, scanned in (u, v)
/// order off a working copy so every batch stays valid after the previous
/// ones applied.
inline std::vector<ChurnBatch> PlanChurn(const Graph& graph, int64_t rounds,
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

}  // namespace geattack

#endif  // GEATTACK_TESTS_CHURN_PLAN_H_
