#ifndef LSBENCH_STATS_SIMILARITY_H_
#define LSBENCH_STATS_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace lsbench {

/// Result of a two-sample Kolmogorov–Smirnov test: the paper's suggested
/// estimator for similarity across *data* distributions (§V-D1).
struct KsResult {
  double statistic = 0.0;  ///< sup |F1(x) - F2(x)| in [0, 1].
  double p_value = 1.0;    ///< Asymptotic p-value (Smirnov distribution).
};

/// Two-sample KS test over raw samples. Copies and sorts internally.
KsResult KolmogorovSmirnov(std::vector<double> a, std::vector<double> b);

/// Unbiased estimate of the squared Maximum Mean Discrepancy between two
/// samples using an RBF kernel — the paper's alternative data-similarity
/// estimator (Gretton et al.). `bandwidth <= 0` selects the median heuristic.
/// Cost is O(n^2); callers should subsample first (see Subsample below).
double MmdSquared(const std::vector<double>& a, const std::vector<double>& b,
                  double bandwidth = -1.0);

/// Jaccard similarity |A ∩ B| / |A ∪ B| between two sets of 64-bit hashes —
/// the paper's estimator for similarity across *workloads*, where the hashes
/// identify query-plan subtrees (§V-D1). Two empty sets have similarity 1.
double JaccardSimilarity(const std::unordered_set<uint64_t>& a,
                         const std::unordered_set<uint64_t>& b);

/// Weighted (multiset) Jaccard: sum(min(wa, wb)) / sum(max(wa, wb)) over the
/// union of keys. Inputs are parallel key/weight vectors per side.
double WeightedJaccard(const std::vector<uint64_t>& keys_a,
                       const std::vector<double>& weights_a,
                       const std::vector<uint64_t>& keys_b,
                       const std::vector<double>& weights_b);

/// Deterministically subsamples `values` down to at most `max_n` elements
/// using a fixed stride; preserves distribution shape for KS/MMD inputs.
std::vector<double> Subsample(const std::vector<double>& values, size_t max_n);

/// Index of Subsample's `i`-th pick out of `n` values when `n > max_n`, for
/// callers that subsample a sequence they do not want to materialize.
inline size_t SubsampleIndex(size_t i, size_t n, size_t max_n) {
  const double stride = static_cast<double>(n) / static_cast<double>(max_n);
  return static_cast<size_t>(static_cast<double>(i) * stride);
}

/// The Φ dissimilarity function of Fig. 1a: a convex combination of the data
/// KS statistic and (1 - workload Jaccard). Both terms live in [0, 1], so
/// Φ = 0 means "identical to baseline" and Φ = 1 "maximally different".
double PhiDissimilarity(double data_ks_statistic, double workload_jaccard,
                        double data_weight = 0.5);

}  // namespace lsbench

#endif  // LSBENCH_STATS_SIMILARITY_H_
