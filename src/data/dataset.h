#ifndef LSBENCH_DATA_DATASET_H_
#define LSBENCH_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/distribution.h"
#include "util/random.h"

namespace lsbench {

/// A generated key set: sorted, de-duplicated 64-bit keys plus provenance.
struct Dataset {
  std::string name;
  std::vector<uint64_t> keys;  ///< Sorted ascending, unique.
  uint64_t domain_max = 0;     ///< Keys were drawn from [0, domain_max).
  uint64_t seed = 0;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// Keys normalized into [0, 1) — the representation KS/MMD consume.
  std::vector<double> NormalizedKeys() const;

  /// Equals Subsample(NormalizedKeys(), max_n) (stats/similarity.h), but
  /// normalizes only the picked keys instead of the whole key set.
  std::vector<double> NormalizedKeys(size_t max_n) const;
};

/// Options for dataset generation.
struct DatasetOptions {
  size_t num_keys = 100000;
  uint64_t domain_max = uint64_t{1} << 48;
  uint64_t seed = 42;
};

/// Samples `options.num_keys` distinct keys from `dist` scaled into the key
/// domain. Oversamples internally until enough distinct keys exist, so the
/// result always has exactly `num_keys` keys (requires
/// num_keys <= domain_max / 2).
Dataset GenerateDataset(const UnitDistribution& dist,
                        const DatasetOptions& options);

/// A sequence of datasets drifting from `from` to `to` in `steps` stages.
/// Stage i samples from Blend(from, to, i/(steps-1)), so stage 0 is pure
/// `from` and the last stage pure `to` — the raw material for the paper's
/// "changing data distributions" requirement.
std::vector<Dataset> GenerateDriftSequence(const UnitDistribution& from,
                                           const UnitDistribution& to,
                                           int steps,
                                           const DatasetOptions& options);

/// Synthesizer for email-address-like string keys — the paper's §V-C example
/// of replacing a sensitive column by a synthetic generator with a similar
/// distribution. Domains follow a Zipf-like popularity; local parts combine
/// pools of first/last names with numeric suffixes.
class EmailGenerator {
 public:
  explicit EmailGenerator(uint64_t seed);

  /// One synthetic address, e.g. "maria.chen91@mailhub.example".
  std::string Next();

  /// Order-preserving 64-bit key from the first 8 bytes of the address
  /// (big-endian), so learned indexes can ingest string keys.
  static uint64_t ToKey(const std::string& email);

 private:
  Rng rng_;
  std::vector<std::string> domains_;
  std::vector<double> domain_cdf_;
};

/// Generates a Dataset whose keys come from EmailGenerator::ToKey over
/// `num_keys` distinct synthetic addresses.
Dataset GenerateEmailDataset(size_t num_keys, uint64_t seed);

}  // namespace lsbench

#endif  // LSBENCH_DATA_DATASET_H_
