#pragma once

// In-memory span recorder for the humo-e2e benchmark. Spans are recorded
// around calls into the library's public API from bench_e2e.cc, never from
// inside src/. A disabled recorder records nothing, so the untraced runs
// that produce the end-to-end metrics pay one branch per span.
//
// Spans nest strictly (one recording thread), which is what lets run.py
// compute a layer's self time as its duration minus its direct children's.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace humo::bench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Records one span from construction to destruction. `name` must be a
  /// string literal (it is stored, not copied).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder->enabled_ ? recorder : nullptr) {
      if (recorder_ != nullptr) index_ = recorder_->Begin(name);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }

  /// Writes every span as a Chrome trace-event "complete" event (loadable in
  /// Perfetto / chrome://tracing). `rep` tags every event so traces of
  /// several repetitions can be merged. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path, size_t rep) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"rep\": %zu}}%s\n",
                   s.name, rep, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent), rep,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into spans_, -1 for a root span
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  size_t Begin(const char* name) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back({name, NowNs(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of the spans still open, outermost first
};

}  // namespace humo::bench
