#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>


namespace lsbench {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::Clear() { *this = StreamingStats(); }

double StreamingStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::StdDev() const { return std::sqrt(Variance()); }

double StreamingStats::CoefficientOfVariation() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return StdDev() / m;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // The two order statistics QuantileSorted interpolates between, found by
  // selection: nth_element places the lo-th smallest at `lo` with every
  // element after it >= it, so the (lo+1)-th smallest is the least of those.
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  const double hi_value = lo + 1 < values.size()
                              ? *std::min_element(lo_it + 1, values.end())
                              : lo_value;
  const double frac = pos - static_cast<double>(lo);
  return lo_value + frac * (hi_value - lo_value);
}

std::string BoxPlotSummary::ToString() const {
  std::ostringstream os;
  os << "n=" << count << " min=" << min << " q1=" << q1
     << " median=" << median << " q3=" << q3 << " max=" << max
     << " mean=" << mean << " outliers=" << outliers.size();
  return os.str();
}

BoxPlotSummary ComputeBoxPlot(std::vector<double> values) {
  BoxPlotSummary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.min = values.front();
  s.max = values.back();
  s.q1 = QuantileSorted(values, 0.25);
  s.median = QuantileSorted(values, 0.5);
  s.q3 = QuantileSorted(values, 0.75);
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());

  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  s.whisker_low = s.max;   // Will shrink below.
  s.whisker_high = s.min;  // Will grow below.
  for (double v : values) {
    if (v < lo_fence || v > hi_fence) {
      s.outliers.push_back(v);
    } else {
      s.whisker_low = std::min(s.whisker_low, v);
      s.whisker_high = std::max(s.whisker_high, v);
    }
  }
  if (s.outliers.size() == s.count) {
    // Degenerate: everything flagged (cannot happen with 1.5*IQR and a
    // nonempty interquartile range, but guard zero-IQR pathologies).
    s.whisker_low = s.min;
    s.whisker_high = s.max;
    s.outliers.clear();
  }
  return s;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx == 0.0 || vy == 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace lsbench
