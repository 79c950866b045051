#ifndef LSBENCH_CORE_METRICS_H_
#define LSBENCH_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/events.h"
#include "stats/descriptive.h"
#include "util/histogram.h"

namespace lsbench {

struct RunSpec;

/// One point of the Fig. 1b cumulative-completions curve.
struct CumulativePoint {
  int64_t t_nanos = 0;
  uint64_t completed = 0;
};

/// Samples the cumulative completed-queries curve at interval boundaries.
/// `events` must be sorted by timestamp (the driver emits them sorted).
/// Runs the same fold ComputeRunMetrics uses for RunMetrics::cumulative.
std::vector<CumulativePoint> BuildCumulativeCurve(const EventStream& events,
                                                  int64_t interval_nanos);

/// Signed area (in query-seconds) between the measured cumulative curve and
/// the ideal constant-throughput line through (start, 0) -> (end, total):
/// negative means the system lagged the ideal early and caught up late (the
/// paper's single-value adaptability summary for Fig. 1b).
double AreaVsIdeal(const std::vector<CumulativePoint>& curve);

/// Signed area between two cumulative curves (a - b), interpolating where
/// sample times differ. Positive means `a` stayed ahead.
double AreaBetweenCurves(const std::vector<CumulativePoint>& a,
                         const std::vector<CumulativePoint>& b);

/// One reporting interval of the Fig. 1c SLA-band chart.
struct LatencyBand {
  int64_t start_nanos = 0;
  uint64_t within_sla = 0;
  uint64_t violated = 0;

  uint64_t Total() const { return within_sla + violated; }
};

/// Buckets completions into `interval_nanos` bands split by the SLA
/// threshold. Empty trailing intervals are preserved up to the last event.
/// Runs the same fold ComputeRunMetrics uses for RunMetrics::bands.
std::vector<LatencyBand> BuildSlaBands(const EventStream& events,
                                       int64_t interval_nanos,
                                       int64_t sla_nanos);

/// SLA threshold calibrated from observed latencies: percentile * margin
/// (§V-D2: derive the threshold from a baseline's latency statistics).
int64_t CalibrateSla(const EventStream& events, double percentile,
                     double margin);

/// §V-D2's extension of Fig. 1c: "Increasing the number of bands and
/// color-coding them appropriately (e.g., green-yellow-orange-red) could
/// provide additional visual insight." One interval's completions split
/// into K+1 latency classes given K ascending thresholds: counts[0] holds
/// latencies <= thresholds[0], ..., counts[K] holds latencies above the
/// last threshold.
struct MultiBand {
  int64_t start_nanos = 0;
  std::vector<uint64_t> counts;

  uint64_t Total() const;
};

/// Buckets completions into multi-threshold bands. `thresholds_nanos` must
/// be non-empty and strictly ascending.
std::vector<MultiBand> BuildMultiBands(
    const EventStream& events, int64_t interval_nanos,
    const std::vector<int64_t>& thresholds_nanos);

/// Per-phase performance summary — the ingredients of one Fig. 1a box.
struct PhaseMetrics {
  int32_t phase = 0;
  bool holdout = false;
  uint64_t operations = 0;
  double duration_seconds = 0.0;
  double mean_throughput = 0.0;  ///< ops/s over the whole phase.
  /// Box-plot statistics over per-sample throughput (ops/s measured in
  /// sub-intervals of boxplot_sample_nanos).
  BoxPlotSummary throughput_box;
  Histogram latency;
  uint64_t sla_violations = 0;
  /// Adjustment-speed metric: sum of latency above the SLA threshold over
  /// the first `adjustment_window_ops` operations of the phase, seconds.
  double adjustment_excess_seconds = 0.0;
  /// Operations that ultimately failed in this phase (errors, timeouts,
  /// and load shed by the circuit breaker).
  uint64_t failed_operations = 0;
};

/// Health metrics under injected or organic failures (§III Lesson 2: a
/// benchmark must expose stalls and outages that averages hide). Counts are
/// pure functions of the event stream; degraded-mode duration and breaker/
/// training counters are stamped by the driver, which owns that state.
struct ResilienceMetrics {
  uint64_t failed_operations = 0;  ///< Errors + timeouts + shed.
  uint64_t timeouts = 0;           ///< Ops that blew their latency budget.
  uint64_t shed_operations = 0;    ///< Dropped by the open circuit breaker.
  uint64_t total_retries = 0;      ///< Retry attempts across all ops.
  uint64_t breaker_opens = 0;      ///< Entries into the open state.
  uint64_t failed_trains = 0;      ///< Training passes that failed.
  double degraded_seconds = 0.0;   ///< Time with the breaker not closed.
  /// Fraction of operations that completed successfully: the headline
  /// availability number (1.0 on a healthy run).
  double availability = 1.0;
};

/// Open-loop service-mode metrics ([service] section), separating the two
/// latencies coordinated omission conflates:
///   response time  = completion - *intended arrival*  (what a client felt)
///   service time   = completion - actual issue        (what the SUT did)
/// Under overload the gap between their p99s IS the coordinated-omission
/// error a closed-loop harness silently drops. Histograms cover executed
/// open-loop operations only; shed arrivals are tallied separately (their
/// "latency" is a policy decision, not a measurement of the SUT).
struct ServiceMetrics {
  bool enabled = false;
  std::string policy;            ///< Overload policy label from the spec.
  uint32_t queue_capacity = 0;   ///< Per-worker admission-queue bound.
  Histogram response_latency;    ///< Completion minus intended arrival.
  Histogram service_latency;     ///< Completion minus actual issue.
  Histogram queue_wait;          ///< Actual issue minus intended arrival.
  uint64_t open_loop_operations = 0;  ///< Offered open-loop arrivals.
  uint64_t queue_shed_operations = 0; ///< Dropped by the admission queue.
  double shed_fraction = 0.0;    ///< queue sheds / offered arrivals.
  /// Offered load: open-loop arrivals over their intended-arrival span.
  double offered_qps = 0.0;
  /// Achieved goodput: successful operations over the wall-clock span.
  double achieved_qps = 0.0;
  // Verdicts against the spec's targets (echoed for the report).
  int64_t slo_p99_nanos = 0;
  double max_shed_fraction = 1.0;
  bool slo_met = true;        ///< response p99 <= slo (when an SLO is set).
  bool shed_bound_met = true; ///< shed_fraction <= max_shed_fraction.
};

/// Per-op-class rollup for the report's operation-type table. One row per
/// OpType (the table is always sized kNumOpTypes; unused classes render as
/// zero rows or are skipped by the renderer). Batch classes (kBatchGet /
/// kBatchPut) count per-element events — a batch of 64 contributes 64
/// operations — and additionally report *effective per-op latency*, the
/// request-unit latency divided by the batch size, which is the number a
/// batch row must be judged by when compared against scalar rows.
struct OpTypeMetrics {
  OpType type = OpType::kGet;
  uint64_t operations = 0;        ///< Events (batch classes: elements).
  uint64_t ok_operations = 0;     ///< Data-level successes.
  uint64_t failed_operations = 0; ///< Errors, timeouts, sheds.
  Histogram latency;              ///< Request-unit latency per event.
  /// latency / batch per event; identical to `latency` for scalar classes.
  Histogram effective_latency;
  /// Sum of each event's `batch` field (== operations for scalar classes).
  uint64_t batch_sum = 0;

  double MeanBatchSize() const {
    return operations > 0
               ? static_cast<double>(batch_sum) /
                     static_cast<double>(operations)
               : 1.0;
  }
};

/// Everything the benchmark reports about one run, computed purely from the
/// event stream and phase boundaries.
struct RunMetrics {
  uint64_t total_operations = 0;
  double wall_seconds = 0.0;
  double mean_throughput = 0.0;
  int64_t sla_nanos = 0;
  uint64_t total_sla_violations = 0;
  Histogram overall_latency;
  /// Always exactly kNumOpTypes rows, indexed by static_cast<size_t>(type).
  std::vector<OpTypeMetrics> op_types;
  std::vector<PhaseMetrics> phases;
  std::vector<CumulativePoint> cumulative;
  std::vector<LatencyBand> bands;
  double area_vs_ideal = 0.0;
  ResilienceMetrics resilience;
  ServiceMetrics service;
};

/// Parameters mirrored from the RunSpec (kept separate so metric code does
/// not depend on workload specs).
struct MetricsOptions {
  int64_t interval_nanos = 1000000000;
  int64_t boxplot_sample_nanos = 100000000;
  uint64_t adjustment_window_ops = 1000;
  /// Fixed SLA threshold; 0 requests calibration from phase 0.
  int64_t sla_nanos = 0;
  double sla_auto_percentile = 0.99;
  double sla_auto_margin = 2.0;
  // [service] echo (string label, not the enum, so the metric layer keeps
  // its independence from workload specs).
  bool service_enabled = false;
  std::string service_policy;
  uint32_t service_queue_capacity = 0;
  int64_t service_slo_p99_nanos = 0;
  double service_max_shed_fraction = 1.0;

  /// The one mirroring point from a RunSpec's reporting/SLA fields — every
  /// consumer (driver, per-shard accumulation, tools) goes through this so
  /// the two layers cannot drift apart.
  static MetricsOptions FromSpec(const RunSpec& spec);
};

/// Order-independent aggregates of one event shard. Each worker can fold
/// its own events into a ShardAccumulation without synchronization; merging
/// the per-worker accumulations yields exactly the totals ComputeRunMetrics
/// derives from the merged stream (every field is a sum, so accumulation
/// commutes with the shard merge). ComputeRunMetrics itself routes its
/// whole-run totals through this type to machine-enforce that property.
struct ShardAccumulation {
  uint64_t operations = 0;
  uint64_t ok_operations = 0;
  uint64_t sla_violations = 0;
  uint64_t failed_operations = 0;
  uint64_t timeouts = 0;
  uint64_t shed_operations = 0;
  uint64_t total_retries = 0;
  Histogram latency;
  // Open-loop / service-mode aggregates (untouched on closed-loop events).
  uint64_t open_loop_operations = 0;
  uint64_t queue_shed_operations = 0;
  Histogram response_latency;  ///< Executed open-loop ops only.
  Histogram service_latency;   ///< Executed open-loop ops only.
  Histogram queue_wait;        ///< Executed open-loop ops only.
  /// Intended-arrival span of open-loop events (recovered as
  /// timestamp - latency); INT64_MAX/MIN sentinels while empty.
  int64_t intended_min_nanos = INT64_MAX;
  int64_t intended_max_nanos = INT64_MIN;

  /// Folds one event in. `sla_nanos` must be the run's resolved threshold.
  void Accumulate(const OpEvent& event, int64_t sla_nanos);

  /// Everything Accumulate folds except the SLA violation count, for a
  /// caller that learns the threshold only after a first pass over the
  /// events (ComputeRunMetrics under an auto-calibrated SLA).
  void AccumulateSlaFree(const OpEvent& event);

  /// Adds another shard's aggregates into this one.
  void Merge(const ShardAccumulation& other);
};

/// Computes the full metric suite. `events` must be sorted by timestamp and
/// each event's phase must match one of `boundaries`.
///
/// One fold over the stream feeds every accumulator in event order (run
/// totals, cumulative curve, SLA bands, op-type rollup, per-phase boxes),
/// so the cost is linear in the event count. With a fixed SLA
/// (`options.sla_nanos > 0`) that is the only pass. An auto-calibrated SLA
/// is an order statistic of phase 0's latencies, so the SLA-dependent
/// counts (violations, adjustment excess, bands) take a second pass once
/// the first has gathered them.
RunMetrics ComputeRunMetrics(const EventStream& events,
                             const std::vector<PhaseBoundary>& boundaries,
                             const MetricsOptions& options);

}  // namespace lsbench

#endif  // LSBENCH_CORE_METRICS_H_
