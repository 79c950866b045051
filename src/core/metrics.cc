#include "core/metrics.h"

#include <algorithm>
#include <cmath>

#include "core/run_spec.h"
#include "util/assert.h"

namespace lsbench {

std::vector<CumulativePoint> BuildCumulativeCurve(const EventStream& events,
                                                  int64_t interval_nanos) {
  LSBENCH_ASSERT(interval_nanos > 0);
  std::vector<CumulativePoint> curve;
  curve.push_back({0, 0});
  if (events.empty()) return curve;
  int64_t boundary = interval_nanos;
  uint64_t completed = 0;
  for (const OpEvent& e : events) {
    while (e.timestamp_nanos >= boundary) {
      curve.push_back({boundary, completed});
      boundary += interval_nanos;
    }
    ++completed;
  }
  curve.push_back({boundary, completed});
  return curve;
}

double AreaVsIdeal(const std::vector<CumulativePoint>& curve) {
  if (curve.size() < 2) return 0.0;
  const double t0 = static_cast<double>(curve.front().t_nanos) * 1e-9;
  const double t1 = static_cast<double>(curve.back().t_nanos) * 1e-9;
  const double total = static_cast<double>(curve.back().completed);
  if (t1 <= t0) return 0.0;
  const double ideal_rate = total / (t1 - t0);
  double area = 0.0;
  for (size_t i = 1; i < curve.size(); ++i) {
    const double ta = static_cast<double>(curve[i - 1].t_nanos) * 1e-9;
    const double tb = static_cast<double>(curve[i].t_nanos) * 1e-9;
    const double va = static_cast<double>(curve[i - 1].completed) -
                      ideal_rate * (ta - t0);
    const double vb = static_cast<double>(curve[i].completed) -
                      ideal_rate * (tb - t0);
    area += 0.5 * (va + vb) * (tb - ta);  // Trapezoid of the difference.
  }
  return area;
}

namespace {

/// Linear interpolation of a cumulative curve at time t (clamped).
double CurveAt(const std::vector<CumulativePoint>& curve, double t_nanos) {
  if (curve.empty()) return 0.0;
  if (t_nanos <= static_cast<double>(curve.front().t_nanos)) {
    return static_cast<double>(curve.front().completed);
  }
  if (t_nanos >= static_cast<double>(curve.back().t_nanos)) {
    return static_cast<double>(curve.back().completed);
  }
  const CumulativePoint probe{static_cast<int64_t>(t_nanos), 0};
  const auto it = std::lower_bound(
      curve.begin(), curve.end(), probe,
      [](const CumulativePoint& a, const CumulativePoint& b) {
        return a.t_nanos < b.t_nanos;
      });
  const size_t hi = it - curve.begin();
  const size_t lo = hi - 1;
  const double ta = static_cast<double>(curve[lo].t_nanos);
  const double tb = static_cast<double>(curve[hi].t_nanos);
  const double frac = tb > ta ? (t_nanos - ta) / (tb - ta) : 0.0;
  return static_cast<double>(curve[lo].completed) +
         frac * (static_cast<double>(curve[hi].completed) -
                 static_cast<double>(curve[lo].completed));
}

}  // namespace

double AreaBetweenCurves(const std::vector<CumulativePoint>& a,
                         const std::vector<CumulativePoint>& b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const double start = std::min(static_cast<double>(a.front().t_nanos),
                                static_cast<double>(b.front().t_nanos));
  const double end = std::max(static_cast<double>(a.back().t_nanos),
                              static_cast<double>(b.back().t_nanos));
  if (end <= start) return 0.0;
  constexpr int kSteps = 512;
  const double dt = (end - start) / kSteps;
  double area = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double t = start + dt * i;
    const double diff = CurveAt(a, t) - CurveAt(b, t);
    const double weight = (i == 0 || i == kSteps) ? 0.5 : 1.0;
    area += weight * diff * dt * 1e-9;
  }
  return area;
}

std::vector<LatencyBand> BuildSlaBands(const EventStream& events,
                                       int64_t interval_nanos,
                                       int64_t sla_nanos) {
  LSBENCH_ASSERT(interval_nanos > 0);
  std::vector<LatencyBand> bands;
  if (events.empty()) return bands;
  const int64_t last = events.back().timestamp_nanos;
  const size_t num_bands =
      static_cast<size_t>(last / interval_nanos) + 1;
  bands.resize(num_bands);
  for (size_t i = 0; i < num_bands; ++i) {
    bands[i].start_nanos = static_cast<int64_t>(i) * interval_nanos;
  }
  for (const OpEvent& e : events) {
    const size_t idx =
        static_cast<size_t>(e.timestamp_nanos / interval_nanos);
    LSBENCH_ASSERT(idx < num_bands);
    if (e.latency_nanos <= sla_nanos) {
      ++bands[idx].within_sla;
    } else {
      ++bands[idx].violated;
    }
  }
  return bands;
}

uint64_t MultiBand::Total() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

std::vector<MultiBand> BuildMultiBands(
    const EventStream& events, int64_t interval_nanos,
    const std::vector<int64_t>& thresholds_nanos) {
  LSBENCH_ASSERT(interval_nanos > 0);
  LSBENCH_ASSERT(!thresholds_nanos.empty());
  for (size_t i = 1; i < thresholds_nanos.size(); ++i) {
    LSBENCH_ASSERT(thresholds_nanos[i - 1] < thresholds_nanos[i]);
  }
  std::vector<MultiBand> bands;
  if (events.empty()) return bands;
  const size_t num_bands =
      static_cast<size_t>(events.back().timestamp_nanos / interval_nanos) + 1;
  bands.resize(num_bands);
  for (size_t i = 0; i < num_bands; ++i) {
    bands[i].start_nanos = static_cast<int64_t>(i) * interval_nanos;
    bands[i].counts.assign(thresholds_nanos.size() + 1, 0);
  }
  for (const OpEvent& e : events) {
    const size_t idx =
        static_cast<size_t>(e.timestamp_nanos / interval_nanos);
    const size_t cls =
        std::lower_bound(thresholds_nanos.begin(), thresholds_nanos.end(),
                         e.latency_nanos) -
        thresholds_nanos.begin();
    ++bands[idx].counts[cls];
  }
  return bands;
}

namespace {

/// CalibrateSla over already-gathered latencies.
int64_t CalibrateSlaFromLatencies(std::vector<double> latencies,
                                  double percentile, double margin) {
  if (latencies.empty()) return 1000000;  // 1 ms fallback.
  const double p = Quantile(std::move(latencies), percentile);
  const double threshold = std::max(1.0, p * margin);
  return static_cast<int64_t>(threshold);
}

}  // namespace

int64_t CalibrateSla(const EventStream& events, double percentile,
                     double margin) {
  std::vector<double> latencies;
  latencies.reserve(events.size());
  for (const OpEvent& e : events) {
    latencies.push_back(static_cast<double>(e.latency_nanos));
  }
  return CalibrateSlaFromLatencies(std::move(latencies), percentile, margin);
}

MetricsOptions MetricsOptions::FromSpec(const RunSpec& spec) {
  MetricsOptions options;
  options.interval_nanos = spec.interval_nanos;
  options.boxplot_sample_nanos = spec.boxplot_sample_nanos;
  options.adjustment_window_ops = spec.adjustment_window_ops;
  options.sla_nanos = spec.sla.threshold_nanos;
  options.sla_auto_percentile = spec.sla.auto_percentile;
  options.sla_auto_margin = spec.sla.auto_margin;
  options.service_enabled = spec.service.enabled;
  options.service_policy = OverloadPolicyToString(spec.service.policy);
  options.service_queue_capacity = spec.service.queue_capacity;
  options.service_slo_p99_nanos = spec.service.slo_p99_nanos;
  options.service_max_shed_fraction = spec.service.max_shed_fraction;
  return options;
}

void ShardAccumulation::Accumulate(const OpEvent& event, int64_t sla_nanos) {
  ++operations;
  if (event.ok) ++ok_operations;
  latency.Record(static_cast<double>(event.latency_nanos));
  if (event.latency_nanos > sla_nanos) ++sla_violations;
  if (event.failed) ++failed_operations;
  if (event.timed_out) ++timeouts;
  if (event.shed) ++shed_operations;
  total_retries += event.retries;
  if (event.open_loop) {
    ++open_loop_operations;
    const int64_t intended = event.timestamp_nanos - event.latency_nanos;
    intended_min_nanos = std::min(intended_min_nanos, intended);
    intended_max_nanos = std::max(intended_max_nanos, intended);
    if (event.queue_shed) {
      ++queue_shed_operations;
    } else {
      // Executed ops only: a shed's "latency" is the policy's decision
      // delay, not a measurement of the SUT. Since issue >= intended
      // arrival, response >= service pointwise, so the p99 gap the report
      // prints — the coordinated-omission error — is nonnegative by
      // construction.
      response_latency.Record(static_cast<double>(event.latency_nanos));
      service_latency.Record(
          static_cast<double>(event.timestamp_nanos - event.issue_nanos));
      queue_wait.Record(
          static_cast<double>(event.issue_nanos - intended));
    }
  }
}

void ShardAccumulation::Merge(const ShardAccumulation& other) {
  operations += other.operations;
  ok_operations += other.ok_operations;
  sla_violations += other.sla_violations;
  failed_operations += other.failed_operations;
  timeouts += other.timeouts;
  shed_operations += other.shed_operations;
  total_retries += other.total_retries;
  latency.Merge(other.latency);
  open_loop_operations += other.open_loop_operations;
  queue_shed_operations += other.queue_shed_operations;
  response_latency.Merge(other.response_latency);
  service_latency.Merge(other.service_latency);
  queue_wait.Merge(other.queue_wait);
  intended_min_nanos = std::min(intended_min_nanos, other.intended_min_nanos);
  intended_max_nanos = std::max(intended_max_nanos, other.intended_max_nanos);
}

RunMetrics ComputeRunMetrics(const EventStream& events,
                             const std::vector<PhaseBoundary>& boundaries,
                             const MetricsOptions& options) {
  RunMetrics metrics;
  metrics.total_operations = events.size();
  if (!events.empty()) {
    metrics.wall_seconds =
        static_cast<double>(events.back().timestamp_nanos) * 1e-9;
    if (metrics.wall_seconds > 0.0) {
      metrics.mean_throughput =
          static_cast<double>(events.size()) / metrics.wall_seconds;
    }
  }

  // SLA threshold: fixed or calibrated on the first phase's events.
  int64_t sla = options.sla_nanos;
  if (sla <= 0) {
    // Gather only the first phase's latencies: no event copies.
    size_t first_phase_ops = 0;
    for (const OpEvent& e : events) {
      if (e.phase == 0) ++first_phase_ops;
    }
    std::vector<double> latencies;
    latencies.reserve(first_phase_ops);
    for (const OpEvent& e : events) {
      if (e.phase == 0) {
        latencies.push_back(static_cast<double>(e.latency_nanos));
      }
    }
    sla = CalibrateSlaFromLatencies(std::move(latencies),
                                    options.sla_auto_percentile,
                                    options.sla_auto_margin);
  }
  metrics.sla_nanos = sla;

  // Whole-run totals go through the same mergeable accumulation the
  // multi-worker driver uses per shard, so the two paths cannot diverge.
  ShardAccumulation acc;
  for (const OpEvent& e : events) acc.Accumulate(e, sla);
  metrics.overall_latency = acc.latency;
  metrics.total_sla_violations = acc.sla_violations;
  metrics.resilience.failed_operations = acc.failed_operations;
  metrics.resilience.timeouts = acc.timeouts;
  metrics.resilience.shed_operations = acc.shed_operations;
  metrics.resilience.total_retries = acc.total_retries;
  if (!events.empty()) {
    metrics.resilience.availability =
        static_cast<double>(events.size() -
                            metrics.resilience.failed_operations) /
        static_cast<double>(events.size());
  }

  // Service-mode latency decomposition (populated from the same
  // accumulation; enabled is an explicit spec echo so a run with zero
  // open-loop events still reports the section).
  ServiceMetrics& svc = metrics.service;
  svc.enabled = options.service_enabled;
  svc.policy = options.service_policy;
  svc.queue_capacity = options.service_queue_capacity;
  svc.slo_p99_nanos = options.service_slo_p99_nanos;
  svc.max_shed_fraction = options.service_max_shed_fraction;
  svc.response_latency = acc.response_latency;
  svc.service_latency = acc.service_latency;
  svc.queue_wait = acc.queue_wait;
  svc.open_loop_operations = acc.open_loop_operations;
  svc.queue_shed_operations = acc.queue_shed_operations;
  if (acc.open_loop_operations > 0) {
    svc.shed_fraction = static_cast<double>(acc.queue_shed_operations) /
                        static_cast<double>(acc.open_loop_operations);
    const int64_t span = acc.intended_max_nanos - acc.intended_min_nanos;
    if (span > 0) {
      svc.offered_qps = static_cast<double>(acc.open_loop_operations) /
                        (static_cast<double>(span) * 1e-9);
    }
  }
  if (metrics.wall_seconds > 0.0) {
    svc.achieved_qps =
        static_cast<double>(acc.ok_operations) / metrics.wall_seconds;
  }
  svc.shed_bound_met = svc.shed_fraction <= svc.max_shed_fraction;
  svc.slo_met = svc.slo_p99_nanos <= 0 ||
                svc.response_latency.P99() <=
                    static_cast<double>(svc.slo_p99_nanos);

  metrics.cumulative = BuildCumulativeCurve(events, options.interval_nanos);
  metrics.area_vs_ideal = AreaVsIdeal(metrics.cumulative);
  metrics.bands = BuildSlaBands(events, options.interval_nanos, sla);

  // Per-op-type rollup: one row per operation class, batch classes counted
  // per element with effective (per-element) latency alongside the
  // request-unit latency.
  metrics.op_types.resize(kNumOpTypes);
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    metrics.op_types[i].type = static_cast<OpType>(i);
  }
  for (const OpEvent& e : events) {
    const size_t idx = static_cast<size_t>(e.type);
    LSBENCH_ASSERT(idx < kNumOpTypes);
    OpTypeMetrics& ot = metrics.op_types[idx];
    ++ot.operations;
    if (e.ok) ++ot.ok_operations;
    if (e.failed) ++ot.failed_operations;
    ot.latency.Record(static_cast<double>(e.latency_nanos));
    const uint32_t batch = e.batch > 0 ? e.batch : 1;
    ot.effective_latency.Record(static_cast<double>(e.latency_nanos) /
                                static_cast<double>(batch));
    ot.batch_sum += batch;
  }

  // Per-phase metrics.
  metrics.phases.reserve(boundaries.size());
  size_t event_idx = 0;
  for (const PhaseBoundary& b : boundaries) {
    PhaseMetrics pm;
    pm.phase = b.phase;
    pm.holdout = b.holdout;
    pm.duration_seconds =
        static_cast<double>(b.end_nanos - b.start_nanos) * 1e-9;

    // Events are sorted; phases are contiguous.
    std::vector<double> per_sample_counts;
    int64_t sample_start = b.start_nanos;
    uint64_t sample_count = 0;
    uint64_t window_ops = 0;
    while (event_idx < events.size() &&
           events[event_idx].phase == b.phase) {
      const OpEvent& e = events[event_idx];
      ++pm.operations;
      pm.latency.Record(static_cast<double>(e.latency_nanos));
      if (e.latency_nanos > sla) ++pm.sla_violations;
      if (e.failed) ++pm.failed_operations;
      if (window_ops < options.adjustment_window_ops) {
        ++window_ops;
        if (e.latency_nanos > sla) {
          pm.adjustment_excess_seconds +=
              static_cast<double>(e.latency_nanos - sla) * 1e-9;
        }
      }
      while (e.timestamp_nanos >= sample_start + options.boxplot_sample_nanos) {
        per_sample_counts.push_back(static_cast<double>(sample_count));
        sample_count = 0;
        sample_start += options.boxplot_sample_nanos;
      }
      ++sample_count;
      ++event_idx;
    }
    // Convert per-sample counts to ops/s.
    const double sample_seconds =
        static_cast<double>(options.boxplot_sample_nanos) * 1e-9;
    for (double& c : per_sample_counts) c /= sample_seconds;
    // The trailing sample is partial: scale by its actual duration, and
    // drop it entirely when it covers too little of the interval to be a
    // meaningful throughput estimate (unless it is the only sample).
    if (sample_count > 0) {
      const double partial_seconds =
          static_cast<double>(b.end_nanos - sample_start) * 1e-9;
      if (partial_seconds >= 0.2 * sample_seconds ||
          per_sample_counts.empty()) {
        per_sample_counts.push_back(static_cast<double>(sample_count) /
                                    std::max(partial_seconds, 1e-9));
      }
    }
    pm.throughput_box = ComputeBoxPlot(std::move(per_sample_counts));
    if (pm.duration_seconds > 0.0) {
      pm.mean_throughput =
          static_cast<double>(pm.operations) / pm.duration_seconds;
    }
    metrics.phases.push_back(std::move(pm));
  }
  return metrics;
}

}  // namespace lsbench
