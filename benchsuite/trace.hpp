// Span recorder for the benchmark's traced pass. Spans are taken around the
// benchmark's own calls into each layer (the library itself is not
// instrumented), kept in memory while the run measures, and written once at
// exit as Chrome trace-event JSON: open the file in chrome://tracing or
// https://ui.perfetto.dev. Nesting is step -> pass -> task; every span also
// carries its parent's id in `args`, and its layer type as the category.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace xconv::bench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  /// Open a span that ends at `end(id)`; returns its id, the `parent` of
  /// spans recorded inside it.
  int begin(std::string name, std::string type, int parent = -1) {
    const Clock::time_point t = Clock::now();
    return add(std::move(name), std::move(type), parent, t, t);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].t1 = Clock::now(); }

  /// Record a finished span from timestamps the caller already took.
  int add(std::string name, std::string type, int parent, Clock::time_point t0,
          Clock::time_point t1) {
    spans_.push_back({std::move(name), std::move(type), parent, t0, t1});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Write every span as a complete ("X") event, in microseconds from the
  /// log's creation. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.type.c_str(),
                   us(s.t0 - origin_), us(s.t1 - s.t0), i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;  ///< node / layer / pass name (plain identifiers)
    std::string type;  ///< layer type, e.g. "Convolution", "step", "pass"
    int parent;
    Clock::time_point t0, t1;
  };

  static double us(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace xconv::bench
