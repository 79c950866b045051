#include "stats/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/assert.h"

namespace lsbench {

namespace {

/// Asymptotic Kolmogorov distribution survival function Q(lambda) =
/// 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
double KolmogorovSurvival(double lambda) {
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

}  // namespace

KsResult KolmogorovSmirnov(std::vector<double> a, std::vector<double> b) {
  KsResult r;
  if (a.empty() || b.empty()) {
    r.statistic = a.empty() && b.empty() ? 0.0 : 1.0;
    r.p_value = a.empty() && b.empty() ? 1.0 : 0.0;
    return r;
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t ia = 0, ib = 0;
  double d = 0.0;
  while (ia < a.size() && ib < b.size()) {
    const double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) ++ia;
    while (ib < b.size() && b[ib] <= x) ++ib;
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    d = std::max(d, std::fabs(fa - fb));
  }
  r.statistic = d;
  const double ne = na * nb / (na + nb);
  const double lambda = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
  r.p_value = KolmogorovSurvival(lambda);
  return r;
}

double MmdSquared(const std::vector<double>& a, const std::vector<double>& b,
                  double bandwidth) {
  const size_t m = a.size();
  const size_t n = b.size();
  if (m < 2 || n < 2) return 0.0;

  if (bandwidth <= 0.0) {
    // Median heuristic over the pooled pairwise distances (subsampled by
    // taking distances to the pooled median element to keep it O(n log n)).
    std::vector<double> pooled;
    pooled.reserve(m + n);
    pooled.insert(pooled.end(), a.begin(), a.end());
    pooled.insert(pooled.end(), b.begin(), b.end());
    std::sort(pooled.begin(), pooled.end());
    const double center = pooled[pooled.size() / 2];
    std::vector<double> dists;
    dists.reserve(pooled.size());
    for (double v : pooled) dists.push_back(std::fabs(v - center));
    std::sort(dists.begin(), dists.end());
    bandwidth = dists[dists.size() / 2];
    if (bandwidth <= 0.0) bandwidth = 1.0;
  }
  const double gamma = 1.0 / (2.0 * bandwidth * bandwidth);
  auto kernel = [gamma](double x, double y) {
    const double d = x - y;
    return std::exp(-gamma * d * d);
  };

  double kaa = 0.0;
  for (size_t i = 0; i < m; ++i)
    for (size_t j = i + 1; j < m; ++j) kaa += kernel(a[i], a[j]);
  kaa = 2.0 * kaa / (static_cast<double>(m) * static_cast<double>(m - 1));

  double kbb = 0.0;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i + 1; j < n; ++j) kbb += kernel(b[i], b[j]);
  kbb = 2.0 * kbb / (static_cast<double>(n) * static_cast<double>(n - 1));

  double kab = 0.0;
  for (size_t i = 0; i < m; ++i)
    for (size_t j = 0; j < n; ++j) kab += kernel(a[i], b[j]);
  kab = kab / (static_cast<double>(m) * static_cast<double>(n));

  return kaa + kbb - 2.0 * kab;
}

double JaccardSimilarity(const std::unordered_set<uint64_t>& a,
                         const std::unordered_set<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t intersection = 0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  for (uint64_t v : small) {
    if (large.count(v) > 0) ++intersection;
  }
  const size_t uni = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double WeightedJaccard(const std::vector<uint64_t>& keys_a,
                       const std::vector<double>& weights_a,
                       const std::vector<uint64_t>& keys_b,
                       const std::vector<double>& weights_b) {
  LSBENCH_ASSERT(keys_a.size() == weights_a.size());
  LSBENCH_ASSERT(keys_b.size() == weights_b.size());
  std::unordered_map<uint64_t, std::pair<double, double>> merged;
  for (size_t i = 0; i < keys_a.size(); ++i) {
    merged[keys_a[i]].first += weights_a[i];
  }
  for (size_t i = 0; i < keys_b.size(); ++i) {
    merged[keys_b[i]].second += weights_b[i];
  }
  if (merged.empty()) return 1.0;
  double num = 0.0, den = 0.0;
  for (const auto& [key, w] : merged) {
    num += std::min(w.first, w.second);
    den += std::max(w.first, w.second);
  }
  if (den == 0.0) return 1.0;
  return num / den;
}

std::vector<double> Subsample(const std::vector<double>& values,
                              size_t max_n) {
  if (values.size() <= max_n || max_n == 0) return values;
  std::vector<double> out;
  out.reserve(max_n);
  for (size_t i = 0; i < max_n; ++i) {
    out.push_back(values[SubsampleIndex(i, values.size(), max_n)]);
  }
  return out;
}

double PhiDissimilarity(double data_ks_statistic, double workload_jaccard,
                        double data_weight) {
  data_weight = std::clamp(data_weight, 0.0, 1.0);
  const double data_term = std::clamp(data_ks_statistic, 0.0, 1.0);
  const double workload_term = 1.0 - std::clamp(workload_jaccard, 0.0, 1.0);
  return data_weight * data_term + (1.0 - data_weight) * workload_term;
}

}  // namespace lsbench
