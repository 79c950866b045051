#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/run_spec.h"
#include "util/assert.h"

namespace lsbench {

namespace {

// Each metric below is computed by one fold, fed one event at a time in
// stream order. The public Build* functions run a fold over a whole stream;
// ComputeRunMetrics feeds the same folds from its single pass.

/// The Fig. 1b cumulative curve: one point per interval boundary crossed,
/// then a closing point after the last event.
class CurveFold {
 public:
  explicit CurveFold(int64_t interval_nanos)
      : interval_nanos_(interval_nanos), boundary_(interval_nanos) {
    LSBENCH_ASSERT(interval_nanos > 0);
    curve_.push_back({0, 0});
  }

  void Add(const OpEvent& e) {
    while (e.timestamp_nanos >= boundary_) {
      curve_.push_back({boundary_, completed_});
      boundary_ += interval_nanos_;
    }
    ++completed_;
  }

  std::vector<CumulativePoint> Take() {
    if (completed_ > 0) curve_.push_back({boundary_, completed_});
    return std::move(curve_);
  }

 private:
  int64_t interval_nanos_;
  int64_t boundary_;
  uint64_t completed_ = 0;
  std::vector<CumulativePoint> curve_;
};

/// The Fig. 1c SLA bands, sized up front from the stream's last (latest)
/// event so empty trailing intervals are kept.
class BandFold {
 public:
  BandFold(const EventStream& events, int64_t interval_nanos)
      : interval_nanos_(interval_nanos) {
    LSBENCH_ASSERT(interval_nanos > 0);
    if (events.empty()) return;
    const size_t num_bands =
        static_cast<size_t>(events.back().timestamp_nanos / interval_nanos) +
        1;
    bands_.resize(num_bands);
    for (size_t i = 0; i < num_bands; ++i) {
      bands_[i].start_nanos = static_cast<int64_t>(i) * interval_nanos;
    }
  }

  void Add(const OpEvent& e, int64_t sla_nanos) {
    const size_t idx = static_cast<size_t>(e.timestamp_nanos / interval_nanos_);
    LSBENCH_ASSERT(idx < bands_.size());
    if (e.latency_nanos <= sla_nanos) {
      ++bands_[idx].within_sla;
    } else {
      ++bands_[idx].violated;
    }
  }

  std::vector<LatencyBand> Take() { return std::move(bands_); }

 private:
  int64_t interval_nanos_;
  std::vector<LatencyBand> bands_;
};

}  // namespace

std::vector<CumulativePoint> BuildCumulativeCurve(const EventStream& events,
                                                  int64_t interval_nanos) {
  CurveFold fold(interval_nanos);
  for (const OpEvent& e : events) fold.Add(e);
  return fold.Take();
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
  BandFold fold(events, interval_nanos);
  for (const OpEvent& e : events) fold.Add(e, sla_nanos);
  return fold.Take();
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
  AccumulateSlaFree(event);
  if (event.latency_nanos > sla_nanos) ++sla_violations;
}

void ShardAccumulation::AccumulateSlaFree(const OpEvent& event) {
  ++operations;
  if (event.ok) ++ok_operations;
  latency.Record(static_cast<double>(event.latency_nanos));
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

namespace {

/// ComputeRunMetrics' fold over the merged stream. AddSlaFree feeds every
/// accumulator that does not depend on the SLA threshold: run totals,
/// the cumulative curve, the op-type rollup and per-phase counts, latency
/// and throughput samples. AddSlaBound feeds the ones that do: violation
/// counts, the adjustment-window excess and the SLA bands. Every
/// accumulator sees the events in stream order, so its floating-point sums
/// are a pure function of the stream.
///
/// Events are attributed to phases by one cursor walk over the boundaries:
/// each boundary, in order, owns the maximal run of consecutive events
/// carrying its phase id. An event that matches none of the remaining
/// boundaries closes them all, so it and every later event belong to no
/// phase. The two halves walk separately, which lets the SLA-bound half run
/// in a pass of its own when the threshold is calibrated from the stream.
class RunFold {
 public:
  RunFold(const EventStream& events,
          const std::vector<PhaseBoundary>& boundaries,
          const MetricsOptions& options)
      : boundaries_(boundaries),
        options_(options),
        curve_(options.interval_nanos),
        bands_(events, options.interval_nanos) {
    metrics_.total_operations = events.size();
    if (!events.empty()) {
      metrics_.wall_seconds =
          static_cast<double>(events.back().timestamp_nanos) * 1e-9;
      if (metrics_.wall_seconds > 0.0) {
        metrics_.mean_throughput =
            static_cast<double>(events.size()) / metrics_.wall_seconds;
      }
    }
    metrics_.op_types.resize(kNumOpTypes);
    for (size_t i = 0; i < kNumOpTypes; ++i) {
      metrics_.op_types[i].type = static_cast<OpType>(i);
    }
    metrics_.phases.resize(boundaries.size());
    for (size_t i = 0; i < boundaries.size(); ++i) {
      const PhaseBoundary& b = boundaries[i];
      PhaseMetrics& pm = metrics_.phases[i];
      pm.phase = b.phase;
      pm.holdout = b.holdout;
      pm.duration_seconds =
          static_cast<double>(b.end_nanos - b.start_nanos) * 1e-9;
    }
    if (!boundaries.empty()) sample_start_ = boundaries[0].start_nanos;
  }

  /// The threshold AddSlaBound compares against; set before its first call.
  void set_sla(int64_t sla_nanos) { metrics_.sla_nanos = sla_nanos; }

  void AddSlaFree(const OpEvent& e) {
    acc_.AccumulateSlaFree(e);
    curve_.Add(e);

    // Per-op-type rollup: batch classes counted per element, with the
    // effective (per-element) latency beside the request-unit latency.
    const size_t type = static_cast<size_t>(e.type);
    LSBENCH_ASSERT(type < kNumOpTypes);
    OpTypeMetrics& ot = metrics_.op_types[type];
    ++ot.operations;
    if (e.ok) ++ot.ok_operations;
    if (e.failed) ++ot.failed_operations;
    ot.latency.Record(static_cast<double>(e.latency_nanos));
    const uint32_t batch = e.batch > 0 ? e.batch : 1;
    ot.effective_latency.Record(static_cast<double>(e.latency_nanos) /
                                static_cast<double>(batch));
    ot.batch_sum += batch;

    AdvancePhase(e, &free_slot_);
    while (closed_ < free_slot_) ClosePhase(closed_++);
    if (free_slot_ == boundaries_.size()) return;
    PhaseMetrics& pm = metrics_.phases[free_slot_];
    ++pm.operations;
    pm.latency.Record(static_cast<double>(e.latency_nanos));
    if (e.failed) ++pm.failed_operations;
    while (e.timestamp_nanos >= sample_start_ + options_.boxplot_sample_nanos) {
      samples_.push_back(static_cast<double>(sample_count_));
      sample_count_ = 0;
      sample_start_ += options_.boxplot_sample_nanos;
    }
    ++sample_count_;
  }

  void AddSlaBound(const OpEvent& e) {
    const int64_t sla = metrics_.sla_nanos;
    const bool violated = e.latency_nanos > sla;
    if (violated) ++acc_.sla_violations;
    bands_.Add(e, sla);

    const size_t slot = bound_slot_;
    AdvancePhase(e, &bound_slot_);
    if (bound_slot_ != slot) window_ops_ = 0;
    if (bound_slot_ == boundaries_.size()) return;
    PhaseMetrics& pm = metrics_.phases[bound_slot_];
    if (violated) ++pm.sla_violations;
    if (window_ops_ < options_.adjustment_window_ops) {
      ++window_ops_;
      if (violated) {
        pm.adjustment_excess_seconds +=
            static_cast<double>(e.latency_nanos - sla) * 1e-9;
      }
    }
  }

  RunMetrics Finish();

 private:
  /// Moves `*slot` past every boundary `e` does not belong to (the cursor
  /// walk above); boundaries_.size() means no phase.
  void AdvancePhase(const OpEvent& e, size_t* slot) const {
    while (*slot < boundaries_.size() && e.phase != boundaries_[*slot].phase) {
      ++*slot;
    }
  }

  /// Turns boundary `i`'s throughput samples into its box plot and mean,
  /// then starts the samples of boundary i + 1.
  void ClosePhase(size_t i);

  const std::vector<PhaseBoundary>& boundaries_;
  const MetricsOptions& options_;
  RunMetrics metrics_;
  // Whole-run totals go through the same mergeable accumulation the
  // multi-worker driver uses per shard, so the two paths cannot diverge.
  ShardAccumulation acc_;
  CurveFold curve_;
  BandFold bands_;
  // SLA-free half: the boundary being fed, how many boundaries are closed,
  // and the open boundary's throughput samples (sub-interval counts).
  size_t free_slot_ = 0;
  size_t closed_ = 0;
  std::vector<double> samples_;
  int64_t sample_start_ = 0;
  uint64_t sample_count_ = 0;
  // SLA-bound half: the boundary being fed and how many of its events have
  // entered the adjustment window.
  size_t bound_slot_ = 0;
  uint64_t window_ops_ = 0;
};

void RunFold::ClosePhase(size_t i) {
  PhaseMetrics& pm = metrics_.phases[i];
  // Convert per-sample counts to ops/s.
  const double sample_seconds =
      static_cast<double>(options_.boxplot_sample_nanos) * 1e-9;
  for (double& c : samples_) c /= sample_seconds;
  // The trailing sample is partial: scale by its actual duration, and
  // drop it entirely when it covers too little of the interval to be a
  // meaningful throughput estimate (unless it is the only sample).
  if (sample_count_ > 0) {
    const double partial_seconds =
        static_cast<double>(boundaries_[i].end_nanos - sample_start_) * 1e-9;
    if (partial_seconds >= 0.2 * sample_seconds || samples_.empty()) {
      samples_.push_back(static_cast<double>(sample_count_) /
                         std::max(partial_seconds, 1e-9));
    }
  }
  pm.throughput_box = ComputeBoxPlot(std::move(samples_));  // Leaves it empty.
  if (pm.duration_seconds > 0.0) {
    pm.mean_throughput =
        static_cast<double>(pm.operations) / pm.duration_seconds;
  }
  sample_count_ = 0;
  if (i + 1 < boundaries_.size()) {
    sample_start_ = boundaries_[i + 1].start_nanos;
  }
}

RunMetrics RunFold::Finish() {
  while (closed_ < boundaries_.size()) ClosePhase(closed_++);
  metrics_.cumulative = curve_.Take();
  metrics_.area_vs_ideal = AreaVsIdeal(metrics_.cumulative);
  metrics_.bands = bands_.Take();

  metrics_.overall_latency = std::move(acc_.latency);
  metrics_.total_sla_violations = acc_.sla_violations;
  ResilienceMetrics& res = metrics_.resilience;
  res.failed_operations = acc_.failed_operations;
  res.timeouts = acc_.timeouts;
  res.shed_operations = acc_.shed_operations;
  res.total_retries = acc_.total_retries;
  if (acc_.operations > 0) {
    res.availability =
        static_cast<double>(acc_.operations - res.failed_operations) /
        static_cast<double>(acc_.operations);
  }

  // Service-mode latency decomposition (enabled is an explicit spec echo
  // so a run with zero open-loop events still reports the section).
  ServiceMetrics& svc = metrics_.service;
  svc.enabled = options_.service_enabled;
  svc.policy = options_.service_policy;
  svc.queue_capacity = options_.service_queue_capacity;
  svc.slo_p99_nanos = options_.service_slo_p99_nanos;
  svc.max_shed_fraction = options_.service_max_shed_fraction;
  svc.response_latency = std::move(acc_.response_latency);
  svc.service_latency = std::move(acc_.service_latency);
  svc.queue_wait = std::move(acc_.queue_wait);
  svc.open_loop_operations = acc_.open_loop_operations;
  svc.queue_shed_operations = acc_.queue_shed_operations;
  if (acc_.open_loop_operations > 0) {
    svc.shed_fraction = static_cast<double>(acc_.queue_shed_operations) /
                        static_cast<double>(acc_.open_loop_operations);
    const int64_t span = acc_.intended_max_nanos - acc_.intended_min_nanos;
    if (span > 0) {
      svc.offered_qps = static_cast<double>(acc_.open_loop_operations) /
                        (static_cast<double>(span) * 1e-9);
    }
  }
  if (metrics_.wall_seconds > 0.0) {
    svc.achieved_qps =
        static_cast<double>(acc_.ok_operations) / metrics_.wall_seconds;
  }
  svc.shed_bound_met = svc.shed_fraction <= svc.max_shed_fraction;
  svc.slo_met = svc.slo_p99_nanos <= 0 ||
                svc.response_latency.P99() <=
                    static_cast<double>(svc.slo_p99_nanos);
  return std::move(metrics_);
}

}  // namespace

RunMetrics ComputeRunMetrics(const EventStream& events,
                             const std::vector<PhaseBoundary>& boundaries,
                             const MetricsOptions& options) {
  RunFold fold(events, boundaries, options);
  if (options.sla_nanos > 0) {
    fold.set_sla(options.sla_nanos);
    for (const OpEvent& e : events) {
      fold.AddSlaFree(e);
      fold.AddSlaBound(e);
    }
    return fold.Finish();
  }

  // Auto SLA: the threshold is an order statistic of phase 0's latencies,
  // so the SLA-bound half needs a second pass. The gather is sized for the
  // worst case (every event in phase 0); capacity past the phase-0 count is
  // never written, so it costs address space, not resident memory.
  std::vector<double> phase0_latencies;
  phase0_latencies.reserve(events.size());
  for (const OpEvent& e : events) {
    fold.AddSlaFree(e);
    if (e.phase == 0) {
      phase0_latencies.push_back(static_cast<double>(e.latency_nanos));
    }
  }
  fold.set_sla(CalibrateSlaFromLatencies(std::move(phase0_latencies),
                                         options.sla_auto_percentile,
                                         options.sla_auto_margin));
  for (const OpEvent& e : events) fold.AddSlaBound(e);
  return fold.Finish();
}

}  // namespace lsbench
