// Fixture: an OpenMP FP reduction — even a single-thread `omp simd` one —
// reassociates the sum into per-lane partials.
#include <vector>

namespace geattack {

double SumAll(const std::vector<double>& v) {
  double sum = 0.0;
  const long n = static_cast<long>(v.size());
#pragma omp simd reduction(+ : sum)
  for (long i = 0; i < n; ++i) sum += v[static_cast<size_t>(i)];
  return sum;
}

}  // namespace geattack
