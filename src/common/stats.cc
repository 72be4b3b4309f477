#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mmrfd {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  assert(p >= 0.0 && p <= 100.0);
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

}  // namespace mmrfd
