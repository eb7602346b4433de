// Histogram: a fixed-bucket log-scale accumulator with an O(1) record
// path — no allocation, no sorting, no locking. Percentiles come from a
// cumulative walk over the fixed buckets, so reading a snapshot never
// sorts the recorded values. The registry's histogram probes rebuild one
// from their series at every snapshot.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mhrp::telemetry {

/// Log-scale histogram with a fixed bucket layout: kSubBuckets buckets per
/// octave (power of two), covering 2^kMinExp .. 2^kMaxExp. Values below the
/// range land in an underflow bucket, values above in an overflow bucket.
/// record() is a frexp + two integer ops; quantile() walks the cumulative
/// counts with linear interpolation inside the winning bucket. With 8
/// sub-buckets per octave the relative quantile error is bounded by ~9%,
/// plenty for latency distributions spanning microseconds to minutes.
class Histogram {
 public:
  static constexpr int kMinExp = -20;  // ~9.5e-7: sub-microsecond floor
  static constexpr int kMaxExp = 21;   // ~2.1e6: covers multi-week sim times
  static constexpr int kSubBuckets = 8;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void record(double v) {
    ++count_;
    sum_ += v;
    if (count_ == 1) {
      min_ = v;
      max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
    ++buckets_[bucket_index(v)];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Empty histograms report 0 for min/max/mean — never +/-inf — so the
  /// values are always safe to export as JSON.
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Approximate quantile (q in [0,1]) from the bucket cumulative counts.
  /// Returns 0 for an empty histogram. Exact for the min/max endpoints.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return min();
    if (q >= 1.0) return max();
    const double rank = q * static_cast<double>(count_ - 1);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      if (buckets_[i] == 0) continue;
      const double next = cumulative + static_cast<double>(buckets_[i]);
      if (rank < next) {
        const double lo = bucket_lower(i);
        const double hi = bucket_upper(i);
        const double frac =
            (rank - cumulative) / static_cast<double>(buckets_[i]);
        double v = lo + (hi - lo) * frac;
        // Clamp to observed extremes: the winning bucket's nominal edges can
        // straddle them.
        if (v < min_) v = min_;
        if (v > max_) v = max_;
        return v;
      }
      cumulative = next;
    }
    return max();
  }

  void reset() {
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    buckets_.fill(0);
  }

  /// Bucket index for a value; exposed for tests.
  [[nodiscard]] static std::size_t bucket_index(double v) {
    if (!(v > 0.0) || std::isnan(v)) return 0;  // underflow bucket (incl. <=0)
    int exp = 0;
    const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
    if (exp <= kMinExp) return 0;
    if (exp > kMaxExp) return kBucketCount - 1;  // overflow bucket
    // mantissa in [0.5, 1): map linearly onto kSubBuckets slots.
    auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 *
                                       static_cast<double>(kSubBuckets));
    if (sub >= kSubBuckets) sub = kSubBuckets - 1;
    return 1 +
           static_cast<std::size_t>(exp - kMinExp - 1) * kSubBuckets + sub;
  }

 private:
  [[nodiscard]] static double bucket_lower(std::size_t i) {
    if (i == 0) return 0.0;
    if (i == kBucketCount - 1) return std::ldexp(1.0, kMaxExp);
    const std::size_t rel = i - 1;
    const int exp = kMinExp + static_cast<int>(rel / kSubBuckets);
    const auto sub = static_cast<double>(rel % kSubBuckets);
    return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp + 1);
  }

  [[nodiscard]] static double bucket_upper(std::size_t i) {
    if (i == 0) return std::ldexp(1.0, kMinExp);
    if (i == kBucketCount - 1) return std::ldexp(1.0, kMaxExp + 1);
    const std::size_t rel = i - 1;
    const int exp = kMinExp + static_cast<int>(rel / kSubBuckets);
    const auto sub = static_cast<double>(rel % kSubBuckets) + 1.0;
    return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp + 1);
  }

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBucketCount> buckets_{};
};

}  // namespace mhrp::telemetry
