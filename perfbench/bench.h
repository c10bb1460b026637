// Shared declarations of the sqlflow benchmark binary: options, the
// report every run prints, exact percentile helpers, the seeded op-mix
// generator, and the in-memory span recorder used by traced runs.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small data and short phases: a quick end-to-end check of the
  /// harness, not a measurement.
  bool smoke = false;
  /// Scratch space for WAL directories and trace files (inside the
  /// checkout the benchmark runs from).
  std::string work_dir = ".bench_build/work";
};

/// What one run prints: a verdict, operation counts, and named metrics
/// in the order they were added.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    /// Samples behind a percentile (0 = not a percentile).
    size_t samples = 0;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Marks the run incorrect and records why.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }

  /// Human-readable lines (metric, unit, sample count), then the one
  /// JSON object the harness contract asks for on the last line.
  void Print(std::ostream& os) const;
};

// --- exact statistics ---------------------------------------------------------

/// Quantile `q` in [0, 1] of `values` by linear interpolation between
/// the closest order statistics (the "type 7" estimator). Exact: every
/// sample counts, no bucketing. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Median latency of a mix of request kinds, from (kind, latency)
/// samples: each kind's exact median, weighted by the kind's share of
/// the samples; 0 for an empty input. The plain median of a mix whose
/// kinds differ in cost falls in the gap between two kinds and jumps
/// when their shares shift a little; this one moves only as the kinds'
/// own medians and shares do.
double MixMedian(const std::vector<std::pair<std::string, double>>& kind_us);

/// Cumulative counts of an obs::Histogram, as (bucket upper bound,
/// samples at or below it) pairs, rebuilt through its public percentile
/// accessor. Two snapshots give the histogram of what happened between
/// them (DeltaPercentile).
using HistogramCdf = std::vector<std::pair<uint64_t, uint64_t>>;
HistogramCdf SnapshotCdf(const sqlflow::obs::Histogram& histogram);
/// Bucket upper bound of the p-th quantile (q in [0, 1]) of the samples
/// recorded between `before` and `after`; 0 when none were.
uint64_t DeltaPercentile(const HistogramCdf& before, const HistogramCdf& after,
                         double q);

// --- seeded generation --------------------------------------------------------

/// splitmix64 stream; the same seed yields the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives independent per-purpose seeds from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// Weighted choice among op kinds 0..n-1.
class OpMix {
 public:
  explicit OpMix(std::vector<double> weights);
  size_t Next(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// Self-tests of the percentile code, histogram deltas and the op-mix
/// generator. Returns false (after logging) on the first failure.
bool RunSelfTests(std::ostream& log);

// --- tracing ------------------------------------------------------------------

int64_t NowNs();

/// In-memory span recorder of the traced run. Each thread records into
/// its own Track, so recording takes no lock; the recorder owns the
/// tracks and writes every span out when the run ends.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    const char* name = "";
    std::string tag;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  class Track {
   public:
    /// Opens a span as a child of the innermost open one.
    size_t Open(const char* name, std::string tag);
    void Close(size_t index);
    const std::deque<Span>& spans() const { return spans_; }

   private:
    friend class SpanRecorder;
    Track(SpanRecorder* owner, uint32_t index)
        : owner_(owner), index_(index) {}
    SpanRecorder* owner_;
    uint32_t index_;
    std::deque<Span> spans_;
    std::vector<size_t> open_;
  };

  /// RAII span on a track; a null track records nothing.
  class Scope {
   public:
    Scope(Track* track, const char* name, std::string tag = {})
        : track_(track),
          index_(track ? track->Open(name, std::move(tag)) : 0) {}
    ~Scope() {
      if (track_ != nullptr) track_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Track* track_;
    size_t index_;
  };

  explicit SpanRecorder(size_t max_spans_per_track)
      : max_spans_per_track_(max_spans_per_track) {}

  Track* NewTrack();

  /// Self time (duration minus the time its children cover) of every
  /// span, grouped by span name, in nanoseconds.
  std::map<std::string, std::vector<double>> SelfTimesNs() const;
  size_t span_count() const;

  /// Chrome trace_event JSON ("X" events; tid = track).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  size_t max_spans_per_track_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Track>> tracks_;
};

// --- workloads ----------------------------------------------------------------

/// Runs one workload end to end in this process (set-up, warm-up, timed
/// phase, oracles, recovery timing, and in a traced run the layer
/// replay) and fills `report`.
void RunWorkload(const Options& options, Report* report);

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
