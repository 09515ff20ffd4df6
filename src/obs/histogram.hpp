// Deterministic log-bucketed latency histogram (PR 10, DESIGN.md §16).
//
// TickHistogram aggregates latencies into HDR-style buckets (the serving
// engine keeps virtual ticks per tenant and host microseconds per engine):
// values below kLinear land in singleton buckets (percentiles are exact
// there), larger values share an exponent bucket subdivided into kLinear
// mantissa slots, bounding the relative quantization error by 2^-kSubBits.
// Because bucketing is pure integer arithmetic on the recorded values — no
// wall-clock, no RNG, no allocation after construction — two runs that
// record the same multiset of latencies produce bit-identical histograms
// regardless of insertion order or MN_THREADS, and merge() is associative
// and commutative (it is elementwise addition of bucket counts).
//
// This is a plain value type, deliberately NOT gated by MN_OBS: the serving
// engine uses it for SLO accounting that must behave identically whether or
// not the span/event machinery is compiled in.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mn::obs {

class TickHistogram {
 public:
  // 2^kSubBits mantissa slots per exponent. With kSubBits = 6 every value
  // below 128 ticks has its own bucket; above that the reported percentile
  // is the bucket's lower bound, within a factor of (1 + 2^-6) of the true
  // nearest-rank value.
  static constexpr int kSubBits = 6;
  static constexpr int64_t kLinear = int64_t{1} << kSubBits;  // 64

  TickHistogram() : counts_(static_cast<std::size_t>(num_buckets()), 0) {}

  // Total buckets needed to cover non-negative int64 values: kLinear
  // singleton buckets plus kLinear mantissa slots for each exponent in
  // [kSubBits, 62].
  static constexpr int num_buckets() {
    return static_cast<int>(kLinear + (63 - kSubBits) * kLinear);
  }

  // Bucket index for a value; negative values clamp to bucket 0.
  static int bucket_of(int64_t v) {
    if (v < 0) v = 0;
    if (v < kLinear) return static_cast<int>(v);
    int e = 63;
    while (!((v >> e) & 1)) --e;  // floor(log2(v)), e >= kSubBits
    int shift = e - kSubBits;
    int sub = static_cast<int>((v >> shift) - kLinear);  // [0, kLinear)
    return static_cast<int>(kLinear + int64_t(e - kSubBits) * kLinear + sub);
  }

  // Smallest value mapping to `index` — the representative percentile()
  // reports, so reported quantiles never exceed the true value.
  static int64_t bucket_lower(int index) {
    if (index < kLinear) return index;
    int b = index - static_cast<int>(kLinear);
    int e = kSubBits + b / static_cast<int>(kLinear);
    int64_t sub = b % kLinear;
    return (kLinear + sub) << (e - kSubBits);
  }

  void record(int64_t v) {
    ++counts_[static_cast<std::size_t>(bucket_of(v))];
    ++count_;
    max_ = std::max(max_, v < 0 ? int64_t{0} : v);
  }

  // Elementwise bucket addition: associative, commutative, order-free.
  void merge(const TickHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i)
      counts_[i] += other.counts_[i];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  int64_t count() const { return count_; }
  int64_t max() const { return max_; }
  const std::vector<int64_t>& buckets() const { return counts_; }

  // Nearest-rank percentile (rank ceil(q * count), at least 1), reported as
  // the lower bound of the bucket holding the rank'th sample. Exact for
  // values below 2 * kLinear; never above the true value elsewhere. Returns
  // 0 on an empty histogram.
  int64_t percentile(double q) const {
    if (count_ == 0) return 0;
    int64_t rank =
        static_cast<int64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<int64_t>(rank, 1, count_);
    int64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return bucket_lower(static_cast<int>(i));
    }
    return max_;
  }

  bool operator==(const TickHistogram& other) const {
    return count_ == other.count_ && max_ == other.max_ &&
           counts_ == other.counts_;
  }

 private:
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  int64_t max_ = 0;
};

}  // namespace mn::obs
