// Wall-clock spans recorded by the benchmark around its own calls into the
// library's layers. Spans nest strictly (the benchmark is single-threaded)
// and are kept in memory until the run ends. A span's self time is its
// duration minus the durations of its direct children, so the self times
// of a span's subtree sum to that span's duration.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  double begin = 0, end = 0;  ///< seconds since the log was created
  double children = 0;  ///< summed durations of the direct children
  double seconds() const { return end - begin; }
  double self_seconds() const { return seconds() - children; }
};

class SpanLog {
 public:
  SpanLog() : origin_(clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name) {
    spans_.push_back({std::move(name), current_, now(), 0, 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  /// Closes the innermost open span, which must be `id`; returns its
  /// duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    current_ = s.parent;
    if (s.parent >= 0)
      spans_[static_cast<std::size_t>(s.parent)].children += s.seconds();
    return s.seconds();
  }


  /// JSON array of {name, parent, begin, end, self} objects.
  std::string to_json() const {
    std::string out = "[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"parent\": %d, \"begin\": %.9f, "
                    "\"end\": %.9f, \"self\": %.9f}",
                    i ? ", " : "", s.name.c_str(), s.parent, s.begin, s.end,
                    s.self_seconds());
      out += buf;
    }
    return out + "]";
  }

 private:
  using clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }
  clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
