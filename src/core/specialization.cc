#include "core/specialization.h"

#include <algorithm>

#include "stats/similarity.h"
#include "util/assert.h"
#include "workload/generator.h"

namespace lsbench {

SpecializationReport BuildSpecializationReport(
    const RunSpec& spec, const RunResult& result,
    const SpecializationOptions& options) {
  LSBENCH_ASSERT(options.baseline_phase >= 0);
  LSBENCH_ASSERT(static_cast<size_t>(options.baseline_phase) <
                 spec.phases.size());
  SpecializationReport report;
  report.baseline_phase = options.baseline_phase;

  const PhaseSpec& base_phase = spec.phases[options.baseline_phase];
  const Dataset& base_dataset = spec.datasets[base_phase.dataset_index];
  const std::vector<double> base_keys =
      base_dataset.NormalizedKeys(options.ks_sample);
  const WorkloadSignature base_signature = ComputePhaseSignature(
      base_dataset, base_phase, options.similarity_sample, spec.seed + 17);

  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseSpec& phase = spec.phases[i];
    const Dataset& dataset = spec.datasets[phase.dataset_index];

    SpecializationEntry entry;
    entry.phase = static_cast<int32_t>(i);
    entry.phase_name = phase.name.empty()
                           ? "phase" + std::to_string(i)
                           : phase.name;
    entry.holdout = phase.holdout;

    entry.data_ks =
        KolmogorovSmirnov(base_keys, dataset.NormalizedKeys(options.ks_sample))
            .statistic;
    const WorkloadSignature sig = ComputePhaseSignature(
        dataset, phase, options.similarity_sample, spec.seed + 17);
    entry.workload_jaccard = base_signature.Similarity(sig);
    entry.phi = PhiDissimilarity(entry.data_ks, entry.workload_jaccard,
                                 options.data_weight);

    if (i < result.metrics.phases.size()) {
      entry.throughput_box = result.metrics.phases[i].throughput_box;
      entry.mean_throughput = result.metrics.phases[i].mean_throughput;
    }
    report.entries.push_back(std::move(entry));
  }

  std::stable_sort(report.entries.begin(), report.entries.end(),
                   [](const SpecializationEntry& a,
                      const SpecializationEntry& b) { return a.phi < b.phi; });
  return report;
}

}  // namespace lsbench
