// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions (the outside view of each layer): name,
// start, end, the span that caused it, and the instance or job id. They
// stay in memory and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Trace {
public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::uint64_t id;
  };

  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span and returns its index (the handle for end()).
  int begin(const char* name, std::uint64_t id, int parent = -1);
  void end(int span);

  /// Seconds covered by `span`'s direct children (their union).
  [[nodiscard]] double child_cover(int span) const;
  [[nodiscard]] double duration(int span) const;

  /// Writes every span as JSON (times in microseconds since the origin).
  void write_json(const std::string& path) const;

private:
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
