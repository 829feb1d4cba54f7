#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

int Trace::begin(const char* name, std::uint64_t id, int parent) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::end(int span) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(span)).end = now;
}

double Trace::duration(int span) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_.at(static_cast<std::size_t>(span));
  return seconds_between(s.start, s.end);
}

double Trace::child_cover(int span) const {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_)
      if (s.parent == span) children.emplace_back(s.start, s.end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  Clock::time_point reach{};
  bool any = false;
  for (const auto& [start, end] : children) {
    const Clock::time_point from = any ? std::max(start, reach) : start;
    if (end > from) covered += seconds_between(from, end);
    reach = any ? std::max(reach, end) : end;
    any = true;
  }
  return covered;
}

void Trace::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << seconds_between(origin_, s.start) * 1e6
        << ",\"end_us\":" << seconds_between(origin_, s.end) * 1e6
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
