// Shared vocabulary of the whole-run benchmark: instances, per-run
// results, the metric sink and the small statistics helpers every
// workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cosynth.hpp"
#include "core/report.hpp"
#include "model/system.hpp"
#include "server/wire.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One synthesis request as a user submits it: the generated `.mmsyn`
/// text, the system parsed back from that text (shared by requests that
/// send the same text), and the options in their job-server form (the
/// in-process options are derived from them exactly as the server derives
/// its own).
struct Instance {
  std::string name;
  std::string text;
  std::shared_ptr<const mmsyn::System> system;
  mmsyn::JobOptions job;
};

/// SynthesisOptions of a job request: the same mapping the job server
/// applies before it calls synthesize().
[[nodiscard]] mmsyn::SynthesisOptions synthesis_options(
    const mmsyn::JobOptions& job);

/// Report options of a job request (timing excluded, as in stored
/// server reports), so in-process and served reports compare byte-wise.
[[nodiscard]] mmsyn::ReportOptions report_options(const mmsyn::JobOptions& job);

/// Outcome of one synthesize + audit + report call.
struct SynthesisRun {
  double seconds = 0.0;
  double power_mw = 0.0;
  bool feasible = false;
  int audit_violations = 0;
  std::string report;
};

/// Counts the operations attempted and failed. Any failure (an audit
/// violation, a report mismatch, a throw, a refused or lost job) makes the
/// run incorrect.
struct Tally {
  long attempted = 0;
  long failed = 0;
  long infeasible = 0;
  long syntheses = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what);
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Ordered metric sink; the last stdout line is built from it.
class Metrics {
public:
  void set(const std::string& name, double value, const std::string& unit);
  void print_table() const;
  [[nodiscard]] std::string json(const Tally& tally) const;

private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double pct);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// The highest of 99/95/90/75/50 that leaves at least ten samples above
/// it; 50 when even the median has fewer than ten beyond it.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// FNV-1a over a sequence of reports: a compact digest two commits can
/// compare.
[[nodiscard]] std::uint64_t report_digest(
    const std::vector<std::string>& reports);

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Deterministic splitmix64 stream for the benchmark's own draws
/// (generator configs).
class Draw {
public:
  explicit Draw(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  [[nodiscard]] int uniform_int(int lo, int hi);  // inclusive

private:
  std::uint64_t state_;
};

}  // namespace perfbench
