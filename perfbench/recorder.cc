// The traced run's in-memory span recorder.
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t SpanRecorder::Track::Open(const char* name, std::string tag) {
  Span span;
  span.id = owner_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = name;
  span.tag = std::move(tag);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Track::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  // Over the cap a span is still opened (its children need the parent
  // link); once finished it sits at the tail and is discarded here.
  while (spans_.size() > owner_->max_spans_per_track_ &&
         (open_.empty() || open_.back() < spans_.size() - 1) &&
         spans_.back().end_ns != 0) {
    spans_.pop_back();
  }
}

SpanRecorder::Track* SpanRecorder::NewTrack() {
  std::lock_guard<std::mutex> lock(mutex_);
  tracks_.push_back(std::unique_ptr<Track>(
      new Track(this, static_cast<uint32_t>(tracks_.size()))));
  return tracks_.back().get();
}

size_t SpanRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& track : tracks_) n += track->spans().size();
  return n;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfTimesNs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::vector<double>> out;
  for (const auto& track : tracks_) {
    // Children on one track run inside their parent and never overlap
    // each other, so the covered part is the sum of their durations.
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span& s : track->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const Span& s : track->spans()) {
      auto it = child_ns.find(s.id);
      const int64_t covered = it == child_ns.end() ? 0 : it->second;
      out[s.name].push_back(
          static_cast<double>(s.end_ns - s.start_ns - covered));
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const auto& track : tracks_) {
    if (!track->spans().empty()) {
      origin = std::min(origin, track->spans().front().start_ns);
    }
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& track : tracks_) {
    for (const Span& s : track->spans()) {
      if (!first) out << ",";
      first = false;
      out << "\n{\"name\": \"" << sqlflow::obs::JsonEscape(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << track->index_
          << ", \"ts\": " << (s.start_ns - origin) / 1000.0
          << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"op\": \"" << sqlflow::obs::JsonEscape(s.tag) << "\"}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
