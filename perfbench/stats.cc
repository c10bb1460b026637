// Exact percentiles, histogram deltas, seeded generators, the report
// printer, and their self-tests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rand.h"
#include "obs/trace.h"

namespace perfbench {

// --- report -------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& why) {
  correct = false;
  notes.push_back("ORACLE FAILED: " + why);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(std::ostream& os) const {
  for (const std::string& line : notes) os << "# " << line << "\n";
  for (const Metric& m : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-40s %14.4f %-6s", m.name.c_str(),
                  m.value, m.unit.c_str());
    os << buf;
    if (m.samples > 0) os << " (n=" << m.samples << ")";
    os << "\n";
  }
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << sqlflow::obs::JsonEscape(metrics[i].name)
       << "\": {\"value\": " << JsonNumber(metrics[i].value)
       << ", \"unit\": \"" << sqlflow::obs::JsonEscape(metrics[i].unit)
       << "\"}";
  }
  os << "}}" << std::endl;
}

// --- percentiles ----------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double lo_value = values[lo];
  if (hi == lo) return lo_value;
  const double hi_value =
      *std::min_element(values.begin() + lo + 1, values.end());
  return lo_value + (pos - static_cast<double>(lo)) * (hi_value - lo_value);
}

double MixMedian(const std::vector<std::pair<std::string, double>>& kind_us) {
  if (kind_us.empty()) return 0;
  std::map<std::string, std::vector<double>> by_kind;
  for (const auto& [kind, us] : kind_us) by_kind[kind].push_back(us);
  double weighted = 0;
  for (const auto& [kind, us] : by_kind) {
    weighted += Median(us) * static_cast<double>(us.size());
  }
  return weighted / static_cast<double>(kind_us.size());
}

HistogramCdf SnapshotCdf(const sqlflow::obs::Histogram& histogram) {
  // ValueAtPercentile(p) returns the bucket bound holding the sample of
  // rank ceil(p/100 * n), so rank r maps to bound(r), monotone in r. A
  // binary search per distinct bound recovers the exact cumulative
  // count at each occupied bucket.
  HistogramCdf cdf;
  const uint64_t n = histogram.count();
  if (n == 0) return cdf;
  auto bound_at_rank = [&](uint64_t rank) {
    const double p = (static_cast<double>(rank) - 0.5) * 100.0 /
                     static_cast<double>(n);
    return histogram.ValueAtPercentile(p);
  };
  uint64_t rank = 1;
  while (rank <= n) {
    const uint64_t bound = bound_at_rank(rank);
    uint64_t lo = rank;
    uint64_t hi = n;  // largest rank with the same bound lies in [lo, hi]
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo + 1) / 2;
      if (bound_at_rank(mid) <= bound) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    cdf.emplace_back(bound, lo);
    rank = lo + 1;
  }
  return cdf;
}

uint64_t DeltaPercentile(const HistogramCdf& before, const HistogramCdf& after,
                         double q) {
  auto cumulative = [](const HistogramCdf& cdf, uint64_t bound) {
    uint64_t count = 0;
    for (const auto& [b, c] : cdf) {
      if (b > bound) break;
      count = c;
    }
    return count;
  };
  const uint64_t total_before = before.empty() ? 0 : before.back().second;
  const uint64_t total_after = after.empty() ? 0 : after.back().second;
  if (total_after <= total_before) return 0;
  const uint64_t delta_n = total_after - total_before;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(delta_n)));
  if (target == 0) target = 1;
  for (const auto& [bound, count] : after) {
    if (count - cumulative(before, bound) >= target) return bound;
  }
  return after.back().first;
}

// --- generators -------------------------------------------------------------------

uint64_t Rng::Next() { return sqlflow::SplitMix64Next(&state_); }

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return sqlflow::SplitMix64(seed * 0x100000001b3ULL + purpose);
}

OpMix::OpMix(std::vector<double> weights) {
  double total = 0;
  for (double w : weights) total += w;
  double running = 0;
  for (double w : weights) {
    running += w / total;
    cumulative_.push_back(running);
  }
  cumulative_.back() = 1.0;
}

size_t OpMix::Next(Rng& rng) const {
  const double u = rng.Unit();
  for (size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return i;
  }
  return cumulative_.size() - 1;
}

// --- self-tests ---------------------------------------------------------------------

namespace {

bool Expect(bool ok, const std::string& what, std::ostream& log) {
  log << (ok ? "ok   " : "FAIL ") << what << "\n";
  return ok;
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

}  // namespace

bool RunSelfTests(std::ostream& log) {
  bool ok = true;
  // Percentiles on known data: 1..100 and a single sample.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ok &= Expect(Near(Quantile(hundred, 0.5), 50.5, 1e-9),
               "median of 1..100 is 50.5", log);
  ok &= Expect(Near(Quantile(hundred, 0.99), 99.01, 1e-9),
               "p99 of 1..100 is 99.01", log);
  ok &= Expect(Near(Quantile(hundred, 0.0), 1, 0) &&
                   Near(Quantile(hundred, 1.0), 100, 0),
               "p0 / p100 are the extremes", log);
  ok &= Expect(Quantile({7.0}, 0.99) == 7.0, "single sample", log);
  ok &= Expect(Quantile({}, 0.5) == 0.0, "empty input gives 0", log);
  std::vector<double> shuffled = {9, 1, 8, 2, 7, 3, 6, 4, 5};
  ok &= Expect(Quantile(shuffled, 0.5) == 5.0 &&
                   Near(Quantile(shuffled, 0.25), 3, 1e-12),
               "order of input does not matter", log);

  // Mix medians: 60 requests of 10 us and 40 of 1000..1039 us. The
  // plain median is 10; the mix median is 0.6 * 10 + 0.4 * 1019.5.
  std::vector<std::pair<std::string, double>> mix_us;
  for (int i = 0; i < 60; ++i) mix_us.emplace_back("fast", 10);
  for (int i = 0; i < 40; ++i) mix_us.emplace_back("slow", 1000 + i);
  ok &= Expect(Near(MixMedian(mix_us), 0.6 * 10 + 0.4 * 1019.5, 1e-9),
               "mix median weights each kind's median by its share", log);
  ok &= Expect(MixMedian({{"a", 3}, {"a", 5}, {"a", 4}}) == 4.0 &&
                   MixMedian({}) == 0.0,
               "mix median of one kind is its median; of none, 0", log);

  // Histogram deltas: 100 samples of 1000 ns, then 300 of 10 ns; the
  // delta median is the 10 ns bucket (exact below 16).
  sqlflow::obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  HistogramCdf before = SnapshotCdf(h);
  for (int i = 0; i < 300; ++i) h.Record(10);
  HistogramCdf after = SnapshotCdf(h);
  ok &= Expect(!after.empty() && after.back().second == 400,
               "cdf totals every sample", log);
  ok &= Expect(DeltaPercentile(before, after, 0.5) == 10,
               "delta median ignores samples before the snapshot", log);
  ok &= Expect(DeltaPercentile(after, after, 0.5) == 0,
               "empty delta gives 0", log);
  ok &= Expect(DeltaPercentile({}, before, 0.5) ==
                   h.ValueAtPercentile(100) &&
                   DeltaPercentile({}, before, 0.5) >= 1000,
               "delta from empty equals the whole histogram", log);

  // Op mix: deterministic per seed, frequencies follow the weights.
  OpMix mix({45, 20, 20, 15});
  Rng a(42), b(42), c(43);
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    size_t x = mix.Next(a);
    same &= x == mix.Next(b);
    differs |= x != mix.Next(c);
  }
  ok &= Expect(same, "same seed gives the same op sequence", log);
  ok &= Expect(differs, "another seed gives another op sequence", log);
  Rng r(7);
  std::vector<int> counts(4, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) counts[mix.Next(r)]++;
  const double expected[] = {0.45, 0.20, 0.20, 0.15};
  bool within = true;
  for (int k = 0; k < 4; ++k) {
    within &= Near(static_cast<double>(counts[k]) / draws, expected[k], 0.01);
  }
  ok &= Expect(within, "op frequencies within 1% of the weights", log);
  OpMix only({0, 1});
  Rng z(1);
  bool never_zero = true;
  for (int i = 0; i < 1000; ++i) never_zero &= only.Next(z) == 1;
  ok &= Expect(never_zero, "a zero weight is never drawn", log);
  Rng u(3);
  bool in_range = true;
  for (int i = 0; i < 10000; ++i) {
    const double x = u.Unit();
    in_range &= x >= 0 && x < 1 && u.Below(5) < 5;
  }
  ok &= Expect(in_range, "uniform draws stay in range", log);
  return ok;
}

}  // namespace perfbench
