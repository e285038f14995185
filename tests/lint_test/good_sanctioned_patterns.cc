// Fixture: the sanctioned versions of everything the checker bans.  Must
// produce zero findings.
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace geattack {

class Rng;  // the seeded wrapper from src/tensor/random.h

// Membership tests against unordered containers are fine — only iteration
// is hash-ordered.
bool HasEdge(const std::unordered_set<int64_t>& edges, int64_t key) {
  return edges.count(key) > 0;
}

// Iterating a sorted container is deterministic.
int64_t BusiestNode(const std::map<int64_t, int64_t>& degree) {
  int64_t best = -1;
  int64_t best_deg = -1;
  for (const auto& [node, deg] : degree) {
    if (deg > best_deg) {
      best = node;
      best_deg = deg;
    }
  }
  return best;
}

// Order-independent folds over unordered containers may be suppressed with
// an audit note naming the check.
int64_t CountLarge(const std::unordered_map<int64_t, int64_t>& sizes) {
  int64_t count = 0;
  // lint-ok: unordered-iteration (pure count; no order-dependent tie-break)
  for (const auto& [node, sz] : sizes) {
    if (sz > 10) ++count;
  }
  return count;
}

// `omp simd` over independent accumulators vectorizes without threads or
// reassociation (-fopenmp-simd): the kernels' sanctioned form.
void Axpy(double a, const double* x, double* y, int64_t n) {
#pragma omp simd
  for (int64_t j = 0; j < n; ++j) y[j] += a * x[j];
}

// A once_flag-guarded cache is the sanctioned lazy-init pattern.
class GuardedCache {
 public:
  const std::vector<int64_t>& Get() const {
    std::call_once(once_, [this] { cache_.assign(128, 0); });
    return cache_;
  }

 private:
  mutable std::once_flag once_;
  mutable std::vector<int64_t> cache_;
};

}  // namespace geattack
