// Fixture: a kernel that starts its own OpenMP team, nested inside the
// driver's worker pool.  Threads belong to the driver and service pools.
#include <omp.h>

#include <vector>

namespace geattack {

void Scale(std::vector<double>* v, double a) {
  const long n = static_cast<long>(v->size());
  omp_set_num_threads(4);
#pragma omp parallel for schedule(static)
  for (long i = 0; i < n; ++i) (*v)[static_cast<size_t>(i)] *= a;
}

}  // namespace geattack
